// Out-of-core sharded evaluation of the robustness metric.
//
// analyzeStream() sweeps an on-disk perturbation batch (the binary format
// of robust/core/instance_file.hpp) against a CompiledProblem without ever
// materializing it: the file is carved into shards of
// StreamOptions::shardInstances, each shard is pulled through a reusable
// memory-mapped window into a per-worker arena, scanned with the metric
// lane's exact row arithmetic, and the per-shard (rho, argmin, binding)
// results are merged by a left fold in shard order. The global
// answer — metric bits, argmin instance, binding feature, floored flag —
// is bit-identical to running analyzeBatchMetric over the whole batch in
// memory and folding the per-instance results with the first-strict-min
// rule, for every shard size, thread count, and SIMD dispatch target
// (DESIGN.md section 4.11 carries the argument).
//
// The throughput lever is incumbent screening: each worker holds the best
// metric seen so far (a process-wide monotone atomic minimum), and a
// conservatively-margined interval test proves most rows of most
// instances cannot bind without computing their dot products. Screening
// never changes the returned bits — a screened row's radius is provably
// strictly above the incumbent, and an instance rejected against the
// incumbent is provably not the global first-minimum — it only skips
// work, exactly like the in-memory lane's pruning. Problems outside the
// screen's premises (callable features, discrete parameters, non-analytic
// solvers) take the unscreened lane: shards run through the same
// cache-blocked batch scan the in-memory path uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "robust/core/compiled.hpp"
#include "robust/core/input_policy.hpp"

namespace robust::core {

/// "No instance": the argmin when the stream holds no instance with a
/// finite metric (every radius infinite, or an empty file).
inline constexpr std::size_t kNoInstance = static_cast<std::size_t>(-1);

struct StreamOptions {
  /// Instances per shard: the unit of scheduling, mapping, and arena
  /// reuse. The result does not depend on it.
  std::size_t shardInstances = 4096;
  /// Worker threads; 0 means defaultThreadCount(). The result does not
  /// depend on it.
  std::size_t threads = 0;
  /// Incumbent screening (see the header comment). Bit-neutral; off
  /// exists to pin that equality in tests.
  bool screen = true;
  /// In-row incumbent pruning, forwarded to the metric lane. Bit-neutral.
  bool prune = true;
  /// Boundary policy for the file lane: header validation caps and the
  /// payload finiteness check (fused into the first pass over each
  /// shard). analyzeStreamValues() does not consult it — in-memory spans
  /// are the caller's trusted data, matching analyzeBatchMetric.
  InputPolicy policy{};
};

struct StreamResult {
  /// The global metric: min over instances of the per-instance rho.
  double metric = 0.0;
  /// First instance attaining it (kNoInstance when the metric is +inf).
  std::size_t argminInstance = kNoInstance;
  /// Binding feature of that instance (0 when argmin is kNoInstance).
  std::size_t bindingFeature = 0;
  /// Whether the winning instance's metric was discrete-floored.
  bool floored = false;

  std::uint64_t instances = 0;  ///< instances evaluated
  std::uint64_t shards = 0;     ///< shards scanned
  /// Instances whose exact metric was never materialized because the
  /// screen proved them strictly above the incumbent.
  std::uint64_t screenedInstances = 0;
};

/// Streams the instance file at `path`. Throws util::ParseError on a
/// malformed file (header or non-finite payload under options.policy),
/// InvalidArgumentError when the file's dimension does not match the
/// problem's, std::runtime_error on I/O failure.
[[nodiscard]] StreamResult analyzeStream(const CompiledProblem& problem,
                                         const std::string& path,
                                         const StreamOptions& options = {});

/// The same sharded scan over an in-memory batch (values.size() must be a
/// multiple of the problem dimension; instance i occupies
/// values[i*dim, (i+1)*dim)). Exists so tests can pin file/memory
/// equality and callers with materialized batches get the screened lane.
[[nodiscard]] StreamResult analyzeStreamValues(
    const CompiledProblem& problem, std::span<const double> values,
    const StreamOptions& options = {});

}  // namespace robust::core

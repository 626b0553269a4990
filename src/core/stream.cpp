#include "robust/core/stream.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "robust/core/instance_file.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"
#include "robust/util/error.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Process-wide monotone minimum of exact per-instance metrics. Relaxed
/// ordering is enough: correctness never depends on how fresh a loaded
/// value is (a stale — larger — incumbent only screens less), and every
/// stored value is the exact metric of some instance.
class SharedMin {
 public:
  [[nodiscard]] double load() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

  void update(double metric) noexcept {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    for (;;) {
      if (!(metric < std::bit_cast<double>(cur))) {
        return;  // not an improvement (also rejects NaN)
      }
      if (bits_.compare_exchange_weak(cur, std::bit_cast<std::uint64_t>(metric),
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(kInf)};
};

/// The winning candidate of one shard (or one reduction node): the exact
/// first-minimum over the instances it covers.
struct Winner {
  double metric = kInf;
  std::size_t argmin = kNoInstance;
  std::size_t binding = 0;
  bool floored = false;
};

/// Fixed-order pairwise combine; `a` must cover lower instance indices
/// than `b`. Strict < keeps the earlier side on ties — the same rule the
/// serial first-minimum fold applies — so any pairing order that
/// preserves index order yields the serial fold's exact result.
Winner combine(const Winner& a, const Winner& b) noexcept {
  return b.metric < a.metric ? b : a;
}

struct ShardOutcome {
  Winner winner;
  std::uint64_t screened = 0;
};

/// Reusable per-worker scratch: the mapped window, the per-instance
/// perturbation distances, the block-level active-row list, and the
/// metric-lane workspace. One arena serves every shard a worker pulls,
/// so the steady state allocates nothing.
struct Arena {
  util::MmapFile::View view;
  std::vector<double> delta;
  std::vector<std::uint32_t> active;
  std::vector<AnalysisInstance> instances;
  std::vector<MetricResult> results;
  MetricWorkspace metric;
};

}  // namespace

/// Friend of CompiledProblem: replicates the metric lane's row arithmetic
/// against on-disk shards and screens rows with the compiled
/// default-origin dots.
class StreamEngine {
 public:
  StreamEngine(const CompiledProblem& problem, const StreamOptions& options)
      : p_(problem), opt_(options) {
    // The screen's premises: every feature is an affine row evaluated by
    // the analytic kernel lane, and the metric is not discrete-floored
    // (flooring breaks the strict-inequality argument that lets a
    // screened instance be discarded).
    screen_ = opt_.screen && p_.fastSolver_ && p_.callables_.empty() &&
              !p_.parameter_.discrete && p_.rowCount() > 0;
    const auto dim = static_cast<double>(p_.dim_);
    relMargin_ = 1e-9 + 1e-15 * dim;
    absCoeff_ = 8.0 * 2.220446049250313e-16 * (dim + 4.0);
  }

  StreamResult run(const InstanceFileReader* reader,
                   std::span<const double> values) const;

 private:
  void scanShard(std::span<const double> vals, std::uint64_t firstIndex,
                 std::size_t count, Arena& arena, ShardOutcome& outcome,
                 SharedMin& shared, bool validate,
                 const std::string& source) const;

  /// True when row r of feature i provably cannot produce a radius at or
  /// below `rho` for any instance within L2 distance `delta` of the
  /// compiled default origin. The margins majorize every rounding the
  /// evaluating arithmetic can commit (DESIGN.md section 4.11), so a
  /// screened row can never change the returned bits.
  [[nodiscard]] bool screenRow(std::size_t i, std::size_t r, double delta,
                               double rho) const {
    const double deff = p_.effDual_[r];
    if (!(deff > 0.0)) {
      return false;  // degenerate / NaN dual norms must keep failing
                     // exactly as the serial lane fails
    }
    const double c = p_.constants_[i];
    const double refAt = p_.dotOrigin_[r] + c;
    const double move =
        delta * p_.dualNorms_[static_cast<int>(NormKind::L2)][r];
    const double slack =
        move * (1.0 + relMargin_) +
        absCoeff_ * (p_.absDotOrigin_[r] + std::fabs(c) + move);
    const double guard = rho * deff * (1.0 + relMargin_);
    const auto& bounds = p_.features_[i].bounds;
    if (bounds.min && !(refAt - slack > *bounds.min + guard)) {
      return false;
    }
    if (bounds.max && !(refAt + slack < *bounds.max - guard)) {
      return false;
    }
    return true;
  }

  /// The metric lane's exact row arithmetic for one file instance
  /// (scale 1, compiled constants), restricted to the rows of `active`
  /// that survive the per-instance screen against `rho`. Returns the
  /// candidate (metric, binding): exact whenever candidate <= rho.
  void scanActiveRows(std::span<const double> x, double delta, double rho,
                      std::span<const std::uint32_t> active,
                      double& candidate, std::size_t& binding) const {
    candidate = kInf;
    binding = 0;
    for (const std::uint32_t idx : active) {
      const auto i = static_cast<std::size_t>(idx);
      const std::size_t row = p_.rowIndex_[i];
      if (screenRow(i, row, delta, rho)) {
        continue;
      }
      const double atOrigin =
          num::simd::dotBlocked(p_.rowOf(i), x) + p_.constants_[i];
      const double deff = p_.effDual_[row];
      const auto& bounds = p_.features_[i].bounds;
      const bool withinMin = !bounds.min || atOrigin >= *bounds.min;
      const bool withinMax = !bounds.max || atOrigin <= *bounds.max;
      double radius;
      if (!withinMin || !withinMax) {
        radius = 0.0;  // violated at the operating point
      } else {
        ROBUST_REQUIRE(
            deff > 0.0,
            "analytic radius: impact does not depend on the parameter");
        double gap = kInf;
        if (bounds.min) {
          gap = std::fabs(atOrigin - *bounds.min);
        }
        if (bounds.max) {
          const double g2 = std::fabs(atOrigin - *bounds.max);
          if (g2 < gap) {
            gap = g2;
          }
        }
        if (opt_.prune && candidate < kInf &&
            gap > candidate * deff * (1.0 + 1e-9)) {
          continue;  // same bit-neutral prune as metricFromDots
        }
        radius = gap / deff;
      }
      if (radius < candidate) {
        candidate = radius;
        binding = i;
      }
    }
  }

  const CompiledProblem& p_;
  const StreamOptions& opt_;
  bool screen_ = false;
  double relMargin_ = 0.0;
  double absCoeff_ = 0.0;
};

void StreamEngine::scanShard(std::span<const double> vals,
                             std::uint64_t firstIndex, std::size_t count,
                             Arena& arena, ShardOutcome& outcome,
                             SharedMin& shared, bool validate,
                             const std::string& source) const {
  const std::size_t dim = p_.dim_;
  const std::size_t nFeatures = p_.features_.size();

  auto accept = [&](std::size_t localIdx, double metric, std::size_t binding,
                    bool floored) {
    if (metric < outcome.winner.metric) {
      outcome.winner.metric = metric;
      outcome.winner.argmin = static_cast<std::size_t>(firstIndex) + localIdx;
      outcome.winner.binding = binding;
      outcome.winner.floored = floored;
    }
    shared.update(metric);
  };

  if (!screen_) {
    // Unscreened lane: the exact cache-blocked batch scan the in-memory
    // path runs, with the shard as one block and the arena as its
    // workspace. Handles callables, discrete floors, and non-analytic
    // solver configurations.
    if (validate) {
      for (std::size_t i = 0; i < count; ++i) {
        const double* x = vals.data() + i * dim;
        for (std::size_t k = 0; k < dim; ++k) {
          if (!std::isfinite(x[k])) {
            util::Diagnostics(source).fail(
                util::RejectCategory::Domain,
                static_cast<std::size_t>(firstIndex) + i + 1, k + 1,
                "payload value " + util::formatValue(x[k]) +
                    " is not finite");
          }
        }
      }
    }
    arena.instances.resize(count);
    arena.results.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      arena.instances[i] =
          AnalysisInstance{vals.subspan(i * dim, dim), {}, {}};
    }
    p_.metricBlock(arena.instances, arena.results, 0, count, arena.metric,
                   opt_.prune);
    for (std::size_t i = 0; i < count; ++i) {
      accept(i, arena.results[i].metric, arena.results[i].bindingFeature,
             arena.results[i].floored);
    }
    return;
  }

  // Screened lane. Pass 1 (fused with the boundary's finiteness check):
  // per-instance L2 distance from the compiled default origin — the only
  // quantity the screen needs about an instance.
  arena.delta.resize(count);
  const double* origin0 = p_.parameter_.origin.data();
  for (std::size_t i = 0; i < count; ++i) {
    const double* x = vals.data() + i * dim;
    double sumSq = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      const double v = x[k];
      if (validate && !std::isfinite(v)) {
        util::Diagnostics(source).fail(
            util::RejectCategory::Domain,
            static_cast<std::size_t>(firstIndex) + i + 1, k + 1,
            "payload value " + util::formatValue(v) + " is not finite");
      }
      const double d = v - origin0[k];
      sumSq += d * d;
    }
    arena.delta[i] = std::sqrt(sumSq);
  }

  // Pass 2, blockwise: one prescreen with the block's max distance
  // produces the active-row list every instance of the block shares;
  // instances then rescreen the (usually tiny) active list with their own
  // distance and evaluate the survivors row by row.
  constexpr std::size_t kScreenBlock = 64;
  for (std::size_t b0 = 0; b0 < count; b0 += kScreenBlock) {
    const std::size_t b1 = std::min(count, b0 + kScreenBlock);
    double deltaMax = 0.0;
    for (std::size_t i = b0; i < b1; ++i) {
      deltaMax = std::max(deltaMax, arena.delta[i]);
    }
    const double rhoBlock = std::min(outcome.winner.metric, shared.load());
    arena.active.clear();
    for (std::size_t i = 0; i < nFeatures; ++i) {
      if (!screenRow(i, p_.rowIndex_[i], deltaMax, rhoBlock)) {
        arena.active.push_back(static_cast<std::uint32_t>(i));
      }
    }
    if (arena.active.empty()) {
      // Every row of every instance in the block is provably above the
      // incumbent: the whole block is rejected without a dot product.
      outcome.screened += b1 - b0;
      continue;
    }
    if (arena.active.size() * 2 >= nFeatures) {
      // Screen not selective yet (cold incumbent): the full kernel pass
      // is cheaper per row than per-row dots. Results are exact.
      for (std::size_t i = b0; i < b1; ++i) {
        const AnalysisInstance inst{vals.subspan(i * dim, dim), {}, {}};
        const MetricResult r =
            p_.evaluateMetric(inst, arena.metric, opt_.prune);
        accept(i, r.metric, r.bindingFeature, r.floored);
      }
      continue;
    }
    for (std::size_t i = b0; i < b1; ++i) {
      const double rho = std::min(outcome.winner.metric, shared.load());
      double candidate;
      std::size_t binding;
      scanActiveRows(vals.subspan(i * dim, dim), arena.delta[i], rho,
                     arena.active, candidate, binding);
      if (candidate > rho) {
        // Every unevaluated row was screened against a value >= rho and
        // the evaluated minimum exceeds rho, so this instance's true
        // metric is strictly above an exact metric held elsewhere: it
        // can never be the global first-minimum.
        ++outcome.screened;
        continue;
      }
      accept(i, candidate, binding, false);
    }
  }
}

StreamResult StreamEngine::run(const InstanceFileReader* reader,
                               std::span<const double> values) const {
  const std::size_t dim = p_.dim_;
  ROBUST_REQUIRE(dim > 0,
                 "analyzeStream: problem has no perturbation dimension");
  ROBUST_REQUIRE(opt_.shardInstances > 0,
                 "analyzeStream: shardInstances must be positive");
  std::uint64_t total;
  bool validate = false;
  std::string source;
  if (reader != nullptr) {
    ROBUST_REQUIRE(reader->dim() == dim,
                   "analyzeStream: file dimension does not match the "
                   "compiled problem");
    total = reader->instances();
    validate = opt_.policy.requireFinite;
    source = reader->path();
  } else {
    ROBUST_REQUIRE(values.size() % dim == 0,
                   "analyzeStream: value count is not a multiple of the "
                   "problem dimension");
    total = values.size() / dim;
  }

  StreamResult result;
  result.metric = kInf;
  result.instances = total;
  if (total == 0) {
    return result;
  }
  const std::uint64_t shard = opt_.shardInstances;
  const std::uint64_t nShards = (total + shard - 1) / shard;
  result.shards = nShards;

  const obs::Span span("core.analyzeStream");
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kShards = obs::counterId("core.stream.shards");
    static const obs::MetricId kInstances =
        obs::counterId("core.stream.instances");
    static const obs::MetricId kQueue =
        obs::gaugeId("core.stream.queue_high_water");
    obs::addCounter(kShards, nShards);
    obs::addCounter(kInstances, total);
    obs::maxGauge(kQueue, static_cast<std::int64_t>(nShards));
  }

  std::vector<ShardOutcome> outcomes(static_cast<std::size_t>(nShards));
  SharedMin shared;
  // Any shard claim order is fine: each shard writes only its own outcome
  // slot and the shared incumbent is a monotone minimum of exact metrics.
  std::vector<Arena> arenas(shardParticipants(nShards, opt_.threads));
  std::atomic<std::int64_t> inflight{0};
  forEachShard(nShards, opt_.threads, [&](std::size_t s, std::size_t worker) {
    const std::int64_t running =
        inflight.fetch_add(1, std::memory_order_relaxed) + 1;
    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kInflight =
          obs::gaugeId("core.stream.inflight_high_water");
      obs::maxGauge(kInflight, running);
    }
    Arena& arena = arenas[worker];
    const std::uint64_t first = s * shard;
    const auto count =
        static_cast<std::size_t>(std::min<std::uint64_t>(shard,
                                                         total - first));
    const std::span<const double> vals =
        reader != nullptr
            ? reader->read(first, count, arena.view)
            : values.subspan(static_cast<std::size_t>(first) * dim,
                             count * dim);
    scanShard(vals, first, count, arena, outcomes[s], shared, validate,
              source);
    inflight.fetch_sub(1, std::memory_order_relaxed);
  });

  // Fixed-order pairwise reduction over the shard winners. Every combine
  // keeps the lower-shard side on ties, so the tree computes the same
  // first-minimum the serial left fold over instances computes.
  std::vector<Winner> level;
  level.reserve(outcomes.size());
  for (const ShardOutcome& o : outcomes) {
    level.push_back(o.winner);
    result.screenedInstances += o.screened;
  }
  while (level.size() > 1) {
    std::vector<Winner> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(combine(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) {
      next.push_back(level.back());
    }
    level.swap(next);
  }
  result.metric = level[0].metric;
  result.argminInstance = level[0].argmin;
  result.bindingFeature = level[0].binding;
  result.floored = level[0].floored;
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kScreened =
        obs::counterId("core.stream.instances_screened");
    obs::addCounter(kScreened, result.screenedInstances);
  }
  return result;
}

StreamResult analyzeStream(const CompiledProblem& problem,
                           const std::string& path,
                           const StreamOptions& options) {
  const InstanceFileReader reader(path, options.policy);
  return StreamEngine(problem, options).run(&reader, {});
}

StreamResult analyzeStreamValues(const CompiledProblem& problem,
                                 std::span<const double> values,
                                 const StreamOptions& options) {
  return StreamEngine(problem, options).run(nullptr, values);
}

}  // namespace robust::core

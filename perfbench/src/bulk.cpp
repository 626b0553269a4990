// bulk: one analysis job on a 256 x 64 affine problem, the same compiled
// rows used four ways per op:
//   1. analyzeBatchMetric on a fresh in-memory batch (kernel-bound);
//   2. analyzeStream over the .rbi file packed at set-up (screening- and
//      bytes-bound);
//   3. computeCurve on the closed-form lane;
//   4. computeCurve, fewer samples, on a constrained variant, which takes
//      the bracket + bisect fallback lane.
// A kernel change should move this workload; a change that speeds one lane
// at another's cost shows in the per-layer split.
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "harness.hpp"
#include "robust/core/compiled.hpp"
#include "robust/core/instance_file.hpp"
#include "robust/core/stream.hpp"
#include "robust/curve/curve.hpp"
#include "robust/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using robust::core::AnalysisInstance;
using robust::core::CompiledProblem;
using robust::core::MetricResult;

constexpr std::size_t kRows = 256;
constexpr std::size_t kDim = 64;
constexpr std::size_t kBatchInstances = 512;
/// Default shard sizes throughout: the file is two stream shards, so
/// analyzeStream (like analyzeBatchMetric) starts a kThreads pool, while
/// both curves fit in one shard and run on the calling thread. Every pool
/// start adds thread wake-ups, the part of an op that varies most with
/// contention on the host.
constexpr std::size_t kFileInstances = 8192;
constexpr std::size_t kFastSamples = 2048;
/// Curve digest points; each costs two Clopper-Pearson inversions.
constexpr std::size_t kGridPoints = 16;
constexpr std::size_t kFallbackSamples = 8;
/// The problem's content is fixed, so every seed analyzes the same rows;
/// the seed drives the instances and the curve substreams.
constexpr std::uint64_t kProblemSeed = 6;
constexpr std::uint64_t kFileFamily = 0x62756c6b;  // "bulk"
constexpr std::uint64_t kBatchFamily = kFileFamily + 1;

robust::core::ProblemSpec makeSpec(bool constrained) {
  auto rng = robust::makeStream(kProblemSeed, 0);
  robust::core::ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin.resize(kDim);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(0.5, 1.5);
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    robust::num::Vec weights(kDim);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < kDim; ++k) {
      atOrigin += weights[k] * spec.parameter.origin[k];
    }
    const double bound = atOrigin * rng.uniform(1.05, 4.0);
    spec.features.push_back(robust::core::PerformanceFeature{
        "F_" + std::to_string(r),
        robust::core::ImpactFunction::affine(std::move(weights)),
        robust::core::ToleranceBounds::atMost(bound)});
  }
  if (constrained) {
    // A loose budget: with 1.02x the origin's load, clamping the worst-case
    // radius alone took about 17 ms per fallback call and swamped the
    // per-sample bracket + bisect work the lane is there to measure.
    robust::core::LinearConstraint budget;
    budget.name = "budget";
    budget.coeffs.assign(kDim, 1.0);
    double load = 0.0;
    for (double v : spec.parameter.origin) {
      load += v;
    }
    budget.bound = 3.0 * load;
    spec.constraints.push_back(std::move(budget));
  }
  return spec;
}

/// Origins perturbed around the problem's operating point.
void fillOrigins(const CompiledProblem& problem, robust::Pcg32& rng,
                 std::size_t instances, std::vector<double>& out) {
  const auto& origin = problem.parameter().origin;
  out.resize(instances * kDim);
  for (std::size_t i = 0; i < instances; ++i) {
    for (std::size_t k = 0; k < kDim; ++k) {
      out[i * kDim + k] = origin[k] * rng.uniform(0.9, 1.1);
    }
  }
}

std::vector<AnalysisInstance> viewsOf(const std::vector<double>& origins) {
  std::vector<AnalysisInstance> views(origins.size() / kDim);
  for (std::size_t i = 0; i < views.size(); ++i) {
    views[i].origin = std::span<const double>(origins.data() + i * kDim, kDim);
  }
  return views;
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A degradation curve must be a CDF floored at the problem's rho.
bool curveValid(const robust::curve::CurveResult& c, std::size_t samples,
                double rho, bool fastLane, std::string& why) {
  if (c.samples != samples || c.radii.size() != samples) {
    why = "curve sample count";
    return false;
  }
  if (c.fastLane != fastLane || c.cacheHit) {
    why = "curve lane or cache hit";
    return false;
  }
  if (!sameBits(c.rho, rho)) {
    why = "curve rho differs from evaluateMetric()";
    return false;
  }
  for (std::size_t i = 0; i < c.radii.size(); ++i) {
    if (!(c.radii[i] >= rho) || (i > 0 && c.radii[i] < c.radii[i - 1])) {
      why = "curve radii not sorted or below rho";
      return false;
    }
  }
  double last = 0.0;
  for (const auto& p : c.points) {
    if (!(p.probability >= last && p.probability <= 1.0 &&
          p.lower <= p.probability && p.probability <= p.upper)) {
      why = "curve points not a monotone CDF inside its band";
      return false;
    }
    last = p.probability;
  }
  return true;
}

class Bulk final : public SequentialWorkload {
 public:
  explicit Bulk(const RunConfig& config)
      : config_(config),
        path_(config.workDir + "/perfbench-bulk-" +
              std::to_string(::getpid()) + ".rbi") {}

  ~Bulk() override { std::remove(path_.c_str()); }

  void setup(SpanLog& spans) override {
    robust::core::ProblemSpec spec = makeSpec(false);
    robust::core::ProblemSpec constrainedSpec = makeSpec(true);
    {
      Span span(spans, "core.compile");
      problem_ = std::make_unique<CompiledProblem>(
          CompiledProblem::compile(std::move(spec)));
    }
    {
      Span span(spans, "core.compile");
      constrained_ = std::make_unique<CompiledProblem>(
          CompiledProblem::compile(std::move(constrainedSpec)));
    }
    auto rng = robust::makeStream(config_.seed, kFileFamily, 0);
    fillOrigins(*problem_, rng, kFileInstances, fileValues_);
    std::ofstream file(path_, std::ios::binary | std::ios::trunc);
    robust::core::InstanceFileWriter writer(file, kDim);
    writer.appendBatch(fileValues_);
    writer.finish();
  }

  void prepare(std::uint64_t index) override {
    auto rng = robust::makeStream(config_.seed, kBatchFamily, index);
    fillOrigins(*problem_, rng, kBatchInstances, batchValues_);
    batch_ = viewsOf(batchValues_);
  }

  void op(std::uint64_t index, SpanLog& spans) override {
    {
      Span span(spans, "core.metric");
      span.items(batch_.size());
      metrics_ = problem_->analyzeBatchMetric(batch_, kThreads);
    }
    {
      Span span(spans, "core.stream");
      span.items(kFileInstances);
      robust::core::StreamOptions options;
      options.threads = kThreads;
      stream_ = robust::core::analyzeStream(*problem_, path_, options);
    }
    robust::curve::CurveOptions options;
    options.threads = kThreads;
    options.seed = robust::familySeed(config_.seed, index);
    options.gridPoints = kGridPoints;
    {
      Span span(spans, "curve.fast");
      span.items(kFastSamples);
      options.samples = kFastSamples;
      fast_ = robust::curve::computeCurve(*problem_, options);
    }
    {
      Span span(spans, "curve.fallback");
      span.items(kFallbackSamples);
      options.samples = kFallbackSamples;
      fallback_ = robust::curve::computeCurve(*constrained_, options);
    }
  }

  bool check(std::uint64_t, std::string& why) override {
    if (!oracleReady_) {
      buildOracle();
    }
    if (metrics_.size() != batch_.size()) {
      why = "batch result count";
      return false;
    }
    const MetricResult single = problem_->evaluateMetric(batch_.front());
    if (!sameBits(single.metric, metrics_.front().metric) ||
        single.bindingFeature != metrics_.front().bindingFeature) {
      why = "batch lane differs from evaluateMetric";
      return false;
    }
    if (!sameBits(stream_.metric, streamOracle_.metric) ||
        stream_.argminInstance != streamOracle_.argminInstance ||
        stream_.bindingFeature != streamOracle_.bindingFeature ||
        stream_.instances != kFileInstances) {
      why = "stream rho/argmin differs from the batch-lane minimum";
      return false;
    }
    return curveValid(fast_, kFastSamples, rho_, true, why) &&
           curveValid(fallback_, kFallbackSamples, constrainedRho_, false,
                      why);
  }

  [[nodiscard]] double rho() const override {
    double sum = 0.0;
    for (const MetricResult& m : metrics_) {
      sum += m.metric;
    }
    return sum / static_cast<double>(metrics_.size());
  }

  void finalCheck(Outcome&) override {}

  [[nodiscard]] double poolsPerOp() const override { return 2.0; }

 private:
  /// The stream's answer recomputed on the batch lane over the same
  /// instances: the minimum metric and its first argmin.
  void buildOracle() {
    const auto views = viewsOf(fileValues_);
    const std::vector<MetricResult> all =
        problem_->analyzeBatchMetric(views, kThreads);
    streamOracle_ = {};
    streamOracle_.metric = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].metric < streamOracle_.metric) {
        streamOracle_.metric = all[i].metric;
        streamOracle_.argminInstance = i;
        streamOracle_.bindingFeature = all[i].bindingFeature;
      }
    }
    rho_ = problem_->evaluateMetric().metric;
    constrainedRho_ = constrained_->evaluateMetric().metric;
    oracleReady_ = true;
  }

  RunConfig config_;
  std::string path_;
  std::unique_ptr<CompiledProblem> problem_;
  std::unique_ptr<CompiledProblem> constrained_;
  std::vector<double> fileValues_;
  std::vector<double> batchValues_;
  std::vector<AnalysisInstance> batch_;

  std::vector<MetricResult> metrics_;
  robust::core::StreamResult stream_;
  robust::curve::CurveResult fast_;
  robust::curve::CurveResult fallback_;

  bool oracleReady_ = false;
  robust::core::StreamResult streamOracle_;
  double rho_ = 0.0;
  double constrainedRho_ = 0.0;
};

}  // namespace

Outcome runBulk(const RunConfig& config) {
  SequentialSpec spec;
  spec.tailQuantile = 0.90;
  spec.make = [](const RunConfig& c) { return std::make_unique<Bulk>(c); };
  spec.info = {{"bulk.shape", "256x64"},
               {"bulk.batch_instances", std::to_string(kBatchInstances)},
               {"bulk.file_instances", std::to_string(kFileInstances)},
               {"bulk.fast_samples", std::to_string(kFastSamples)},
               {"bulk.fallback_samples", std::to_string(kFallbackSamples)}};
  return runSequential(config, spec);
}

}  // namespace perfbench

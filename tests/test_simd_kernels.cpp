// The SIMD kernel lane and the metric-only evaluation lane.
//
// Three layers of guarantees are pinned here:
//   1. Kernel correctness and determinism: dotBlocked / dotRowsBlocked /
//      norm*Blocked agree with naive references, are bit-identical between
//      the scalar fallback and the AVX2 target (the scalar lanes replay the
//      vector schedule, including the masked tail), and handle degenerate
//      shapes (0 elements, 1 element, every remainder tail, signed zeros).
//   2. Metric-lane equivalence: CompiledProblem::evaluateMetric matches
//      evaluate() within 1e-12 relative with the same argmin across all
//      four norms, origin/constant/scale overrides, discrete flooring, and
//      the callable fallback; incumbent pruning changes no result bits;
//      batch results are bit-identical for every thread count.
//   3. The HiPer-D lane and search wiring: CompiledScenario::analyzeMetric
//      vs the full analyze(), pruning bit-equality, and the shape-generic
//      localSearch / annealMapping / geneticAlgorithm overloads driven by
//      hiperd::robustnessObjective.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/numeric/vector_ops.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/mapping.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"

namespace robust {
namespace {

using num::simd::Target;

/// RAII guard: restores the auto-resolved dispatch target after each test
/// so a forced-scalar test cannot leak into the rest of the binary.
class SimdKernels : public ::testing::Test {
 protected:
  void TearDown() override {
    num::simd::setTarget(num::simd::avx2Available() ? Target::Avx2
                                                    : Target::Scalar);
  }
};

using MetricLane = SimdKernels;
using HiperdMetricLane = SimdKernels;
using SearchWiring = SimdKernels;

std::vector<double> randomVec(std::size_t n, Pcg32& rng, double lo = -2.0,
                              double hi = 2.0) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.uniform(lo, hi);
  }
  return v;
}

// ------------------------------------------------------------- kernels

TEST_F(SimdKernels, DotMatchesReferenceAcrossSizes) {
  Pcg32 rng(1);
  for (std::size_t n = 0; n <= 33; ++n) {
    const auto a = randomVec(n, rng);
    const auto x = randomVec(n, rng);
    double reference = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      reference += a[i] * x[i];
    }
    const double blocked = num::simd::dotBlocked(a, x);
    // The blocked order differs from the element order, so the comparison
    // is relative, not bitwise.
    const double scale = std::max(1.0, std::fabs(reference));
    EXPECT_NEAR(blocked, reference, 1e-12 * scale) << "n = " << n;
  }
}

TEST_F(SimdKernels, NormsMatchReferencesAcrossSizes) {
  Pcg32 rng(2);
  for (std::size_t n = 0; n <= 33; ++n) {
    const auto a = randomVec(n, rng);
    EXPECT_NEAR(num::simd::norm1Blocked(a), num::norm1(a),
                1e-12 * std::max(1.0, num::norm1(a)))
        << "n = " << n;
    EXPECT_NEAR(num::simd::norm2Blocked(a), num::norm2(a),
                1e-12 * std::max(1.0, num::norm2(a)))
        << "n = " << n;
    // max is order-independent: the l-inf kernel is bit-equal to the
    // legacy loop for every input without NaNs.
    EXPECT_EQ(num::simd::normInfBlocked(a), num::normInf(a)) << "n = " << n;
  }
}

TEST_F(SimdKernels, ScalarAndAvx2AreBitIdentical) {
  if (!num::simd::avx2Available()) {
    GTEST_SKIP() << "no AVX2 on this host/build";
  }
  Pcg32 rng(3);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{7}, std::size_t{8},
        std::size_t{13}, std::size_t{16}, std::size_t{17}, std::size_t{100},
        std::size_t{1003}}) {
    const auto a = randomVec(n, rng);
    const auto x = randomVec(n, rng);

    num::simd::setTarget(Target::Scalar);
    ASSERT_EQ(num::simd::activeTarget(), Target::Scalar);
    const double dotS = num::simd::dotBlocked(a, x);
    const double n1S = num::simd::norm1Blocked(a);
    const double n2S = num::simd::norm2Blocked(a);
    const double niS = num::simd::normInfBlocked(a);

    num::simd::setTarget(Target::Avx2);
    ASSERT_EQ(num::simd::activeTarget(), Target::Avx2);
    EXPECT_EQ(num::simd::dotBlocked(a, x), dotS) << "n = " << n;
    EXPECT_EQ(num::simd::norm1Blocked(a), n1S) << "n = " << n;
    EXPECT_EQ(num::simd::norm2Blocked(a), n2S) << "n = " << n;
    EXPECT_EQ(num::simd::normInfBlocked(a), niS) << "n = " << n;
  }
}

TEST_F(SimdKernels, DotRowsMatchesPerRowDotBitwise) {
  Pcg32 rng(4);
  const std::vector<Target> targets =
      num::simd::avx2Available()
          ? std::vector<Target>{Target::Scalar, Target::Avx2}
          : std::vector<Target>{Target::Scalar};
  for (std::size_t rows = 0; rows <= 9; ++rows) {
    for (const std::size_t dims : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}, std::size_t{13}}) {
      const auto matrix = randomVec(rows * dims, rng);
      const auto x = randomVec(dims, rng);
      for (const Target target : targets) {
        num::simd::setTarget(target);
        std::vector<double> out(rows, std::numeric_limits<double>::quiet_NaN());
        num::simd::dotRowsBlocked(matrix.data(), rows, x, out.data());
        for (std::size_t r = 0; r < rows; ++r) {
          const std::span<const double> row{matrix.data() + r * dims, dims};
          EXPECT_EQ(out[r], num::simd::dotBlocked(row, x))
              << "rows = " << rows << " dims = " << dims << " r = " << r
              << " target = " << num::simd::toString(target);
        }
      }
    }
  }
}

TEST_F(SimdKernels, DegenerateShapes) {
  const std::vector<double> empty;
  EXPECT_EQ(num::simd::dotBlocked(empty, empty), 0.0);
  EXPECT_EQ(num::simd::norm1Blocked(empty), 0.0);
  EXPECT_EQ(num::simd::norm2Blocked(empty), 0.0);
  EXPECT_EQ(num::simd::normInfBlocked(empty), 0.0);

  const std::vector<double> one{-3.0};
  const std::vector<double> oneX{2.0};
  EXPECT_EQ(num::simd::dotBlocked(one, oneX), -6.0);
  EXPECT_EQ(num::simd::norm1Blocked(one), 3.0);
  EXPECT_EQ(num::simd::norm2Blocked(one), 3.0);
  EXPECT_EQ(num::simd::normInfBlocked(one), 3.0);

  // Signed zeros: the masked tail contributes +0.0 products, and the abs
  // reductions must strip the sign (-0.0 weights are valid inputs).
  const std::vector<double> zeros{-0.0, 0.0, -0.0};
  EXPECT_EQ(num::simd::norm1Blocked(zeros), 0.0);
  EXPECT_FALSE(std::signbit(num::simd::norm1Blocked(zeros)));
  EXPECT_EQ(num::simd::normInfBlocked(zeros), 0.0);
  EXPECT_FALSE(std::signbit(num::simd::normInfBlocked(zeros)));
  const std::vector<double> zerosX{1.0, -1.0, 5.0};
  EXPECT_EQ(num::simd::dotBlocked(zeros, zerosX), 0.0);

  // dotRowsBlocked with zero rows must not touch out.
  num::simd::dotRowsBlocked(nullptr, 0, empty, nullptr);
}

TEST_F(SimdKernels, DotBlockedRejectsMismatchedSizes) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> x{1.0};
  EXPECT_THROW((void)num::simd::dotBlocked(a, x), InvalidArgumentError);
}

TEST_F(SimdKernels, EnvOverrideNamesRoundTrip) {
  EXPECT_STREQ(num::simd::toString(Target::Scalar), "scalar");
  EXPECT_STREQ(num::simd::toString(Target::Avx2), "avx2");
  // Forcing Avx2 on a host without it must fall back, never crash.
  num::simd::setTarget(Target::Avx2);
  if (!num::simd::avx2Available()) {
    EXPECT_EQ(num::simd::activeTarget(), Target::Scalar);
  } else {
    EXPECT_EQ(num::simd::activeTarget(), Target::Avx2);
  }
}

// --------------------------------------------------------- metric lane

/// A random all-affine problem: `rows` features of dimension `dims` with
/// one- and two-sided bounds placed so some rows bind tightly and most lose
/// early (exercising the pruning branch).
core::CompiledProblem randomProblem(std::size_t rows, std::size_t dims,
                                    core::NormKind norm, Pcg32& rng,
                                    bool discrete = false) {
  core::ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.discrete = discrete;
  spec.parameter.origin.resize(dims);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(0.5, 1.5);
  }
  spec.options.norm = norm;
  if (norm == core::NormKind::Weighted) {
    spec.options.normWeights.resize(dims);
    for (double& w : spec.options.normWeights) {
      w = rng.uniform(0.25, 4.0);
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    num::Vec weights(dims);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < dims; ++k) {
      atOrigin += weights[k] * spec.parameter.origin[k];
    }
    const double margin = atOrigin * rng.uniform(0.05, 3.0);
    const core::ToleranceBounds bounds =
        rng.nextDouble() < 0.5
            ? core::ToleranceBounds::atMost(atOrigin + margin)
            : core::ToleranceBounds::between(atOrigin - margin,
                                             atOrigin + margin);
    spec.features.push_back(core::PerformanceFeature{
        "F_" + std::to_string(r),
        core::ImpactFunction::affine(std::move(weights)), bounds});
  }
  return core::CompiledProblem::compile(std::move(spec));
}

void expectMetricMatchesEvaluate(const core::CompiledProblem& problem,
                                 const core::AnalysisInstance& instance,
                                 const std::string& label) {
  const core::RobustnessReport full = problem.evaluate(instance);
  const core::MetricResult lane = problem.evaluateMetric(instance);
  const double scale = std::max(1.0, std::fabs(full.metric));
  EXPECT_NEAR(lane.metric, full.metric, 1e-12 * scale) << label;
  EXPECT_EQ(lane.bindingFeature, full.bindingFeature) << label;
  EXPECT_EQ(lane.floored, full.floored) << label;
}

TEST_F(MetricLane, MatchesEvaluateAcrossNormsAndShapes) {
  Pcg32 rng(10);
  const core::NormKind norms[] = {core::NormKind::L1, core::NormKind::L2,
                                  core::NormKind::LInf,
                                  core::NormKind::Weighted};
  for (const core::NormKind norm : norms) {
    for (const auto [rows, dims] :
         {std::pair<std::size_t, std::size_t>{1, 1},
          std::pair<std::size_t, std::size_t>{3, 5},
          std::pair<std::size_t, std::size_t>{17, 13},
          std::pair<std::size_t, std::size_t>{40, 8}}) {
      const auto problem = randomProblem(rows, dims, norm, rng);
      const std::string label = "norm " + core::toString(norm) + " rows " +
                                std::to_string(rows) + " dims " +
                                std::to_string(dims);
      // Compiled defaults (cached origin dots)...
      expectMetricMatchesEvaluate(problem, core::AnalysisInstance{}, label);
      // ...and an overridden origin (live kernel dot pass).
      const auto origin = randomVec(dims, rng, 0.6, 1.4);
      core::AnalysisInstance instance;
      instance.origin = origin;
      expectMetricMatchesEvaluate(problem, instance, label + " origin");
    }
  }
}

TEST_F(MetricLane, MatchesEvaluateWithConstantAndScaleOverrides) {
  Pcg32 rng(11);
  const auto problem = randomProblem(9, 7, core::NormKind::L2, rng);
  const auto origin = randomVec(7, rng, 0.6, 1.4);
  std::vector<double> constants(9);
  std::vector<double> scales(9);
  for (std::size_t i = 0; i < 9; ++i) {
    constants[i] = rng.uniform(-0.5, 0.5);
    scales[i] = rng.uniform(0.5, 2.0);
  }
  core::AnalysisInstance instance;
  instance.origin = origin;
  instance.constants = constants;
  expectMetricMatchesEvaluate(problem, instance, "constants");
  instance.scales = scales;
  expectMetricMatchesEvaluate(problem, instance, "constants + scales");
}

TEST_F(MetricLane, PruningChangesNoBits) {
  Pcg32 rng(12);
  for (const core::NormKind norm :
       {core::NormKind::L1, core::NormKind::L2, core::NormKind::LInf,
        core::NormKind::Weighted}) {
    const auto problem = randomProblem(60, 16, norm, rng);
    const auto origin = randomVec(16, rng, 0.6, 1.4);
    core::AnalysisInstance instance;
    instance.origin = origin;
    core::MetricWorkspace workspace;
    const core::MetricResult pruned =
        problem.evaluateMetric(instance, workspace, /*prune=*/true);
    const core::MetricResult unpruned =
        problem.evaluateMetric(instance, workspace, /*prune=*/false);
    EXPECT_EQ(pruned.metric, unpruned.metric);
    EXPECT_EQ(pruned.bindingFeature, unpruned.bindingFeature);
    EXPECT_EQ(pruned.floored, unpruned.floored);
  }
}

TEST_F(MetricLane, DeterministicAcrossRunsAndDispatchTargets) {
  Pcg32 rng(13);
  const auto problem = randomProblem(33, 19, core::NormKind::L2, rng);
  const auto origin = randomVec(19, rng, 0.6, 1.4);
  core::AnalysisInstance instance;
  instance.origin = origin;

  const core::MetricResult first = problem.evaluateMetric(instance);
  const core::MetricResult second = problem.evaluateMetric(instance);
  EXPECT_EQ(first.metric, second.metric);
  EXPECT_EQ(first.bindingFeature, second.bindingFeature);

  if (num::simd::avx2Available()) {
    num::simd::setTarget(Target::Scalar);
    const core::MetricResult scalar = problem.evaluateMetric(instance);
    num::simd::setTarget(Target::Avx2);
    const core::MetricResult avx2 = problem.evaluateMetric(instance);
    EXPECT_EQ(scalar.metric, avx2.metric);
    EXPECT_EQ(scalar.bindingFeature, avx2.bindingFeature);
    EXPECT_EQ(scalar.metric, first.metric);
  }
}

TEST_F(MetricLane, BatchIsBitIdenticalAcrossThreadCounts) {
  Pcg32 rng(14);
  const auto problem = randomProblem(25, 11, core::NormKind::L2, rng);
  constexpr std::size_t kInstances = 23;  // not a multiple of the tile width
  std::vector<num::Vec> origins;
  origins.reserve(kInstances);
  std::vector<core::AnalysisInstance> instances(kInstances);
  for (std::size_t i = 0; i < kInstances; ++i) {
    origins.emplace_back(randomVec(11, rng, 0.6, 1.4));
    if (i % 5 != 0) {  // every 5th instance keeps the compiled default
      instances[i].origin = origins.back();
    }
  }
  const auto serial = problem.analyzeBatchMetric(instances, /*threads=*/1);
  const auto parallel = problem.analyzeBatchMetric(instances, /*threads=*/4);
  ASSERT_EQ(serial.size(), kInstances);
  ASSERT_EQ(parallel.size(), kInstances);
  core::MetricWorkspace workspace;
  for (std::size_t i = 0; i < kInstances; ++i) {
    EXPECT_EQ(serial[i].metric, parallel[i].metric) << "i = " << i;
    EXPECT_EQ(serial[i].bindingFeature, parallel[i].bindingFeature)
        << "i = " << i;
    // The batch lane and the single-instance lane share metricFromDots.
    const auto single = problem.evaluateMetric(instances[i], workspace);
    EXPECT_EQ(serial[i].metric, single.metric) << "i = " << i;
    EXPECT_EQ(serial[i].bindingFeature, single.bindingFeature) << "i = " << i;
  }
}

TEST_F(MetricLane, DiscreteParameterFloorsTheMetric) {
  Pcg32 rng(15);
  const auto problem =
      randomProblem(6, 4, core::NormKind::L2, rng, /*discrete=*/true);
  const core::MetricResult lane = problem.evaluateMetric();
  const core::RobustnessReport full = problem.evaluate();
  EXPECT_EQ(lane.floored, full.floored);
  EXPECT_EQ(lane.metric, full.metric);  // floor() of near-equal radii
  EXPECT_EQ(lane.metric, std::floor(lane.metric));
}

TEST_F(MetricLane, CallableFeaturesFallBackToTheFullArithmetic) {
  Pcg32 rng(16);
  core::ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin = {1.0, 2.0};
  // One affine row plus one callable feature: the callable goes through
  // the same per-feature fallback the full path runs, so the lane stays
  // exact.
  spec.features.push_back(core::PerformanceFeature{
      "affine", core::ImpactFunction::affine(num::Vec{1.0, 1.0}),
      core::ToleranceBounds::atMost(10.0)});
  spec.features.push_back(core::PerformanceFeature{
      "quadratic",
      core::ImpactFunction::callable([](std::span<const double> x) {
        double s = 0.0;
        for (double v : x) {
          s += v * v;
        }
        return s;
      }),
      core::ToleranceBounds::atMost(30.0)});
  const auto problem = core::CompiledProblem::compile(std::move(spec));

  const core::RobustnessReport full = problem.evaluate();
  const core::MetricResult lane = problem.evaluateMetric();
  const double scale = std::max(1.0, std::fabs(full.metric));
  EXPECT_NEAR(lane.metric, full.metric, 1e-12 * scale);
  EXPECT_EQ(lane.bindingFeature, full.bindingFeature);
}

// -------------------------------------------------- weighted-norm hoist

TEST_F(MetricLane, WeightedRadiusPinnedToTheClosedForm) {
  // weights (3, 4), norm weights (1, 4), bound dot + 5: the weighted dual
  // norm is sqrt(9/1 + 16/4) = sqrt(13), so the radius is 5 / sqrt(13).
  core::ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin = {1.0, 1.0};
  spec.options.norm = core::NormKind::Weighted;
  spec.options.normWeights = {1.0, 4.0};
  spec.features.push_back(core::PerformanceFeature{
      "pinned", core::ImpactFunction::affine(num::Vec{3.0, 4.0}),
      core::ToleranceBounds::atMost(7.0 + 5.0)});
  const auto problem = core::CompiledProblem::compile(std::move(spec));

  const core::RobustnessReport full = problem.evaluate();
  ASSERT_EQ(full.radii.size(), 1u);
  EXPECT_DOUBLE_EQ(full.radii[0].radius, 5.0 / std::sqrt(13.0));
  const core::MetricResult lane = problem.evaluateMetric();
  EXPECT_NEAR(lane.metric, full.metric, 1e-12 * full.metric);
}

TEST_F(MetricLane, WeightedDenomHintIsBitIdenticalToTheRecompute) {
  Pcg32 rng(17);
  const auto weights = randomVec(9, rng, 0.1, 2.0);
  const auto origin = randomVec(9, rng, 0.5, 1.5);
  const auto normWeights = randomVec(9, rng, 0.25, 4.0);
  core::AnalyzerOptions options;
  options.norm = core::NormKind::Weighted;
  options.normWeights.assign(normWeights.begin(), normWeights.end());

  core::AffineFeatureView view;
  view.weights = weights;
  double atOrigin = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    atOrigin += weights[i] * origin[i];
  }
  view.boundMax = atOrigin + 1.0;

  // The hint must be the exact element-order sum the recompute performs.
  double denom = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    denom += weights[i] * weights[i] / normWeights[i];
  }

  core::RadiusReport withHint;
  core::RadiusReport withoutHint;
  core::evaluateAffineRadius(view, origin, options, "w", withoutHint, 0.0,
                             0.0);
  core::evaluateAffineRadius(view, origin, options, "w", withHint, 0.0,
                             denom);
  EXPECT_EQ(withHint.radius, withoutHint.radius);
  EXPECT_EQ(withHint.boundaryLevel, withoutHint.boundaryLevel);
  ASSERT_EQ(withHint.boundaryPoint.size(), withoutHint.boundaryPoint.size());
  for (std::size_t i = 0; i < withHint.boundaryPoint.size(); ++i) {
    EXPECT_EQ(withHint.boundaryPoint[i], withoutHint.boundaryPoint[i])
        << "i = " << i;
  }
}

// --------------------------------------------------- HiPer-D metric lane

TEST_F(HiperdMetricLane, MatchesAnalyzeOnGeneratedScenarios) {
  for (const std::uint64_t seed : {2003u, 7u, 11u}) {
    const auto generated =
        hiperd::generateScenario(hiperd::ScenarioOptions{}, seed);
    const hiperd::CompiledScenario compiled = generated.scenario.compile();
    ASSERT_TRUE(compiled.fastPath());
    Pcg32 rng(seed);
    hiperd::ScenarioWorkspace workspace;
    for (int i = 0; i < 20; ++i) {
      const auto mapping = sched::randomMapping(
          generated.scenario.graph.applicationCount(),
          generated.scenario.machines, rng);
      const core::RobustnessReport full = compiled.analyze(mapping);
      const core::MetricResult lane =
          compiled.analyzeMetric(mapping, workspace);
      const double scale = std::max(1.0, std::fabs(full.metric));
      EXPECT_NEAR(lane.metric, full.metric, 1e-12 * scale)
          << "seed " << seed << " mapping " << i;
      EXPECT_EQ(lane.bindingFeature, full.bindingFeature)
          << "seed " << seed << " mapping " << i;
      EXPECT_EQ(lane.floored, full.floored);
    }
  }
}

TEST_F(HiperdMetricLane, PruningChangesNoBits) {
  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, 2003);
  const hiperd::CompiledScenario compiled = generated.scenario.compile();
  Pcg32 rng(5);
  hiperd::ScenarioWorkspace workspace;
  for (int i = 0; i < 20; ++i) {
    const auto mapping = sched::randomMapping(
        generated.scenario.graph.applicationCount(),
        generated.scenario.machines, rng);
    const core::MetricResult pruned =
        compiled.analyzeMetric(mapping, workspace, /*prune=*/true);
    const core::MetricResult unpruned =
        compiled.analyzeMetric(mapping, workspace, /*prune=*/false);
    EXPECT_EQ(pruned.metric, unpruned.metric) << "mapping " << i;
    EXPECT_EQ(pruned.bindingFeature, unpruned.bindingFeature)
        << "mapping " << i;
  }
}

TEST_F(HiperdMetricLane, CancellationBranchMatchesAnalyze) {
  // Communication times on, then one coefficient of a path's first
  // non-zero communication time negated: assembled latency rows can then
  // cancel, so analyzeMetric takes its branch that assembles every row.
  hiperd::ScenarioOptions options;
  options.commCoeffMean = 1.0;
  auto generated = hiperd::generateScenario(options, 2003);
  hiperd::HiperdScenario& scenario = generated.scenario;
  bool negated = false;
  for (const std::size_t eid : scenario.graph.paths().front().edges) {
    if (scenario.comm[eid].isZero()) {
      continue;
    }
    num::Vec coeffs = scenario.comm[eid].coeffs();
    const auto largest = std::max_element(coeffs.begin(), coeffs.end());
    *largest = -*largest;
    scenario.comm[eid] = hiperd::LoadFunction::linear(std::move(coeffs));
    negated = true;
    break;
  }
  ASSERT_TRUE(negated);
  const hiperd::CompiledScenario compiled = scenario.compile();
  ASSERT_TRUE(compiled.fastPath());

  Pcg32 rng(13);
  hiperd::ScenarioWorkspace workspace;
  for (int i = 0; i < 20; ++i) {
    const auto mapping = sched::randomMapping(
        scenario.graph.applicationCount(), scenario.machines, rng);
    const core::RobustnessReport full = compiled.analyze(mapping);
    const core::MetricResult pruned =
        compiled.analyzeMetric(mapping, workspace, /*prune=*/true);
    const core::MetricResult unpruned =
        compiled.analyzeMetric(mapping, workspace, /*prune=*/false);
    const double scale = std::max(1.0, std::fabs(full.metric));
    EXPECT_NEAR(pruned.metric, full.metric, 1e-12 * scale) << "mapping " << i;
    EXPECT_EQ(pruned.bindingFeature, full.bindingFeature) << "mapping " << i;
    EXPECT_EQ(pruned.metric, unpruned.metric) << "mapping " << i;
    EXPECT_EQ(pruned.bindingFeature, unpruned.bindingFeature)
        << "mapping " << i;
  }
}

TEST_F(HiperdMetricLane, DeterministicAcrossDispatchTargets) {
  if (!num::simd::avx2Available()) {
    GTEST_SKIP() << "no AVX2 on this host/build";
  }
  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, 2003);
  const hiperd::CompiledScenario compiled = generated.scenario.compile();
  Pcg32 rng(6);
  const auto mapping = sched::randomMapping(
      generated.scenario.graph.applicationCount(),
      generated.scenario.machines, rng);
  num::simd::setTarget(Target::Scalar);
  const core::MetricResult scalar = compiled.analyzeMetric(mapping);
  num::simd::setTarget(Target::Avx2);
  const core::MetricResult avx2 = compiled.analyzeMetric(mapping);
  EXPECT_EQ(scalar.metric, avx2.metric);
  EXPECT_EQ(scalar.bindingFeature, avx2.bindingFeature);
}

// --------------------------------------------------------- search wiring

TEST_F(SearchWiring, RobustnessObjectiveDrivesTheGenericOptimizers) {
  hiperd::ScenarioOptions options;
  options.applications = 8;
  options.machines = 3;
  options.targetPaths = 6;
  const auto generated = hiperd::generateScenario(options, 2003);
  const hiperd::CompiledScenario compiled = generated.scenario.compile();
  const std::size_t apps = generated.scenario.graph.applicationCount();
  const std::size_t machines = generated.scenario.machines;
  const sched::MappingObjective objective =
      hiperd::robustnessObjective(compiled);

  Pcg32 rng(8);
  const auto start = sched::randomMapping(apps, machines, rng);
  const double startScore = objective(start);

  const auto local = sched::localSearch(apps, machines, start, objective, 5);
  EXPECT_EQ(local.apps(), apps);
  EXPECT_EQ(local.machines(), machines);
  EXPECT_LE(objective(local), startScore);

  sched::AnnealingOptions annealing;
  annealing.iterations = 300;
  const auto annealed =
      sched::annealMapping(apps, machines, start, objective, annealing);
  EXPECT_EQ(annealed.apps(), apps);
  EXPECT_LE(objective(annealed), startScore);

  // The objective is the negated metric: cross-check one value.
  EXPECT_EQ(objective(start), -compiled.analyzeMetric(start).metric);
}

TEST_F(SearchWiring, ShapeMismatchesAreRejected) {
  const sched::MappingObjective objective = [](const sched::Mapping&) {
    return 0.0;
  };
  Pcg32 rng(10);
  const auto wrong = sched::randomMapping(3, 2, rng);
  EXPECT_THROW((void)sched::localSearch(4, 2, wrong, objective),
               InvalidArgumentError);
}

}  // namespace
}  // namespace robust

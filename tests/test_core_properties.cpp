// Randomized property tests for the analyzer: structural invariants that
// must hold for every instance (monotonicity, scaling covariance,
// translation invariance, norm ordering).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "robust/core/compiled.hpp"
#include "robust/util/rng.hpp"

namespace robust::core {
namespace {

struct RandomAffineSystem {
  std::vector<PerformanceFeature> features;
  PerturbationParameter parameter;
};

RandomAffineSystem makeSystem(std::uint64_t seed) {
  Pcg32 rng(seed);
  const std::size_t dim = 2 + rng.nextBounded(5);
  const std::size_t count = 1 + rng.nextBounded(6);
  RandomAffineSystem system;
  system.parameter.name = "pi";
  system.parameter.origin.resize(dim);
  for (auto& v : system.parameter.origin) {
    v = rng.uniform(0.0, 10.0);
  }
  for (std::size_t f = 0; f < count; ++f) {
    num::Vec w(dim);
    for (auto& v : w) {
      v = rng.uniform(0.1, 3.0);
    }
    const double level =
        num::dot(w, system.parameter.origin) + rng.uniform(0.5, 30.0);
    system.features.push_back(PerformanceFeature{
        "phi" + std::to_string(f), ImpactFunction::affine(std::move(w), 0.0),
        ToleranceBounds::atMost(level)});
  }
  return system;
}

class AnalyzerProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalyzerProperties, LooseningBoundsNeverShrinksTheMetric) {
  RandomAffineSystem system = makeSystem(GetParam());
  const auto tight = CompiledProblem::compile(
      {.features = system.features, .parameter = system.parameter});
  auto loosened = system.features;
  for (auto& f : loosened) {
    f.bounds.max = *f.bounds.max + 5.0;
  }
  const auto loose = CompiledProblem::compile(
      {.features = loosened, .parameter = system.parameter});
  EXPECT_GE(loose.evaluate().metric, tight.evaluate().metric - 1e-12);
}

TEST_P(AnalyzerProperties, ScalingImpactAndLevelLeavesRadiusUnchanged) {
  // f -> c f, beta -> c beta defines the same boundary set.
  RandomAffineSystem system = makeSystem(GetParam());
  const auto original = CompiledProblem::compile(
      {.features = system.features, .parameter = system.parameter});
  const double c = 3.7;
  auto scaled = system.features;
  for (auto& f : scaled) {
    f = PerformanceFeature{
        f.name,
        ImpactFunction::affine(num::scale(f.impact.weights(), c),
                               c * f.impact.constant()),
        ToleranceBounds::atMost(c * *f.bounds.max)};
  }
  const auto rescaled = CompiledProblem::compile(
      {.features = scaled, .parameter = system.parameter});
  EXPECT_NEAR(rescaled.evaluate().metric, original.evaluate().metric,
              1e-9 * std::max(1.0, original.evaluate().metric));
}

TEST_P(AnalyzerProperties, TranslationCovariance) {
  // Shifting the origin by t and the levels by f(t)'s linear part leaves
  // every radius unchanged (the geometry translates rigidly).
  RandomAffineSystem system = makeSystem(GetParam());
  const auto original = CompiledProblem::compile(
      {.features = system.features, .parameter = system.parameter});

  Pcg32 rng(GetParam() + 1);
  num::Vec shift(system.parameter.origin.size());
  for (auto& v : shift) {
    v = rng.uniform(-2.0, 2.0);
  }
  auto shifted = system.features;
  for (auto& f : shifted) {
    const double delta = num::dot(f.impact.weights(), shift);
    f.bounds.max = *f.bounds.max + delta;
  }
  PerturbationParameter movedParam = system.parameter;
  movedParam.origin = num::add(movedParam.origin, shift);
  const auto moved = CompiledProblem::compile(
      {.features = shifted, .parameter = movedParam});
  EXPECT_NEAR(moved.evaluate().metric, original.evaluate().metric, 1e-9);
}

TEST_P(AnalyzerProperties, NormOrderingHolds) {
  // For any displacement, ||d||_inf <= ||d||_2 <= ||d||_1, so the radii
  // order the opposite way: rho_l1 >= rho_l2 >= rho_linf.
  RandomAffineSystem system = makeSystem(GetParam());
  auto metricUnder = [&](NormKind norm) {
    AnalyzerOptions options;
    options.norm = norm;
    return CompiledProblem::compile({.features = system.features,
                                     .parameter = system.parameter,
                                     .options = options})
        .evaluate()
        .metric;
  };
  const double l1 = metricUnder(NormKind::L1);
  const double l2 = metricUnder(NormKind::L2);
  const double linf = metricUnder(NormKind::LInf);
  EXPECT_GE(l1, l2 - 1e-12);
  EXPECT_GE(l2, linf - 1e-12);
}

TEST_P(AnalyzerProperties, MetricIsMinOfPerFeatureRadii) {
  RandomAffineSystem system = makeSystem(GetParam());
  const auto analyzer = CompiledProblem::compile(
      {.features = system.features, .parameter = system.parameter});
  const auto report = analyzer.evaluate();
  double expected = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < analyzer.featureCount(); ++i) {
    expected = std::min(expected, analyzer.radiusOf(i).radius);
  }
  EXPECT_DOUBLE_EQ(report.metric, expected);
  EXPECT_DOUBLE_EQ(report.radii[report.bindingFeature].radius, expected);
}

TEST_P(AnalyzerProperties, BoundaryPointsLieOnTheirBoundaries) {
  RandomAffineSystem system = makeSystem(GetParam());
  const auto analyzer = CompiledProblem::compile(
      {.features = system.features, .parameter = system.parameter});
  for (std::size_t i = 0; i < analyzer.featureCount(); ++i) {
    const auto radius = analyzer.radiusOf(i);
    const double value =
        system.features[i].impact.evaluate(radius.boundaryPoint);
    EXPECT_NEAR(value, radius.boundaryLevel,
                1e-9 * std::max(1.0, std::fabs(radius.boundaryLevel)));
    EXPECT_NEAR(
        num::distance2(radius.boundaryPoint, system.parameter.origin),
        radius.radius, 1e-9 * std::max(1.0, radius.radius));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerProperties,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace robust::core

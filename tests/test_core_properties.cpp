// Randomized property tests for the analyzer: structural invariants that
// must hold for every instance (monotonicity, scaling covariance,
// translation invariance, norm ordering).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "robust/core/compiled.hpp"
#include "robust/numeric/vector_ops.hpp"
#include "robust/util/error.hpp"
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

// The point-to-hyperplane geometry of Eq. 6 through the one analytic row
// routine: the L2 boundary point of f(x) = a . x + c <= level is the
// projection of the origin onto {x : a . x = level - c}.
RadiusReport l2Row(const num::Vec& a, double c, double level,
                   const num::Vec& origin) {
  RadiusReport out;
  evaluateAffineRadius(AffineFeatureView{a, c, std::nullopt, level}, origin,
                       AnalyzerOptions{}, "f", out);
  return out;
}

TEST(Hyperplane, DistanceMatchesFormula) {
  // Plane x + y = 2; distance from the origin is 2 / sqrt(2) = sqrt(2).
  const RadiusReport r = l2Row({1.0, 1.0}, 0.0, 2.0, {0.0, 0.0});
  EXPECT_NEAR(r.radius, std::sqrt(2.0), 1e-12);
  EXPECT_EQ(r.method, "analytic-l2");
}

TEST(Hyperplane, ProjectionLandsOnPlaneAtMinimalDistance) {
  Pcg32 rng(80);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.nextBounded(5);
    num::Vec normal(n);
    for (auto& v : normal) {
      v = rng.uniform(-2.0, 2.0);
    }
    if (num::norm2(normal) < 1e-6) {
      continue;
    }
    num::Vec point(n);
    for (auto& v : point) {
      v = rng.uniform(-5.0, 5.0);
    }
    // Keep the origin strictly inside f <= level.
    const double offset = num::dot(normal, point) + rng.uniform(0.1, 5.0);
    const RadiusReport r = l2Row(normal, 0.0, offset, point);
    EXPECT_NEAR(num::dot(normal, r.boundaryPoint), offset, 1e-9);
    EXPECT_NEAR(num::distance2(r.boundaryPoint, point), r.radius, 1e-9);
    // Brute force: no other point of the plane is closer.
    for (int probe = 0; probe < 20; ++probe) {
      num::Vec other(n);
      for (auto& v : other) {
        v = rng.uniform(-10.0, 10.0);
      }
      const double t =
          (offset - num::dot(normal, other)) / num::dot(normal, normal);
      num::axpy(t, normal, other);
      EXPECT_GE(num::distance2(other, point) + 1e-9, r.radius);
    }
  }
}

TEST(Hyperplane, BoundaryOfAffine) {
  // f(x) = 2x1 + 3x2 + 1 <= 10: the boundary is the plane 2x1 + 3x2 = 9.
  const RadiusReport r = l2Row({2.0, 3.0}, 1.0, 10.0, {0.0, 0.0});
  EXPECT_EQ(r.boundaryLevel, 10.0);
  EXPECT_NEAR(2.0 * r.boundaryPoint[0] + 3.0 * r.boundaryPoint[1], 9.0,
              1e-12);
  // A row that does not depend on the parameter has no boundary.
  EXPECT_THROW((void)l2Row({0.0, 0.0}, 1.0, 10.0, {0.0, 0.0}),
               InvalidArgumentError);
}

}  // namespace
}  // namespace robust::core

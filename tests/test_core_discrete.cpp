// Tests for the discrete-lattice robustness bounds (the thesis-[1]
// alternative to the paper's floor rule).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "robust/core/discrete.hpp"
#include "robust/core/validation.hpp"
#include "robust/util/error.hpp"

namespace robust::core {
namespace {

CompiledProblem affineDiscrete(num::Vec weights, double level,
                               num::Vec origin) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi", ImpactFunction::affine(std::move(weights), 0.0),
      ToleranceBounds::atMost(level)});
  PerturbationParameter parameter{"pi", std::move(origin), /*discrete=*/true,
                                  ""};
  return CompiledProblem::compile(
      {.features = std::move(features), .parameter = std::move(parameter)});
}

TEST(Discrete, OneDimensionalExact) {
  // x <= 10.4 from 0: continuous radius 10.4; nearest violating integer is
  // 11. The floor rule reports 10; the exact lattice bound is 11 (all
  // integer perturbations with |d| < 11 are safe).
  const auto analyzer = affineDiscrete({1.0}, 10.4, {0.0});
  const auto bounds = discreteRadiusBounds(analyzer);
  EXPECT_NEAR(bounds.lower, 10.4, 1e-12);
  EXPECT_TRUE(bounds.exact);
  EXPECT_NEAR(bounds.upper, 11.0, 1e-12);
  EXPECT_EQ(bounds.violatingPoint, (num::Vec{11.0}));
  // The floor rule is strictly more pessimistic here.
  EXPECT_GT(bounds.upper, std::floor(analyzer.evaluate().metric) + 0.5);
}

TEST(Discrete, DiagonalBoundaryBeatsFloorRule) {
  // x1 + x2 <= 14.707 from the origin: continuous radius 14.707/sqrt(2)
  // ~ 10.4 (floor 10). Violating integers need x1 + x2 >= 15; the closest
  // such point to the origin is (8, 7) (or (7, 8)) at distance sqrt(113)
  // ~ 10.630 — strictly better than both the floor rule and the continuous
  // radius.
  const double level = 14.707;
  const auto analyzer = affineDiscrete({1.0, 1.0}, level, {0.0, 0.0});
  const auto bounds = discreteRadiusBounds(analyzer);
  EXPECT_NEAR(bounds.lower, level / std::sqrt(2.0), 1e-9);
  EXPECT_TRUE(bounds.exact);
  EXPECT_NEAR(bounds.upper, std::sqrt(113.0), 1e-9);
  EXPECT_NEAR(bounds.violatingPoint[0] + bounds.violatingPoint[1], 15.0,
              1e-12);
  EXPECT_GT(bounds.upper, bounds.lower);
}

TEST(Discrete, BoundsBracketAndCertify) {
  // Multi-feature case: bounds must bracket, the violating point must
  // actually violate, and no enumerated-closer point may violate.
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "a", ImpactFunction::affine({2.0, 1.0}, 0.0),
      ToleranceBounds::atMost(13.3)});
  features.push_back(PerformanceFeature{
      "b", ImpactFunction::affine({1.0, 3.0}, 0.0),
      ToleranceBounds::atMost(17.9)});
  PerturbationParameter parameter{"pi", {1.0, 2.0}, true, ""};
  const auto analyzer = CompiledProblem::compile(
      {.features = features, .parameter = parameter});
  const auto bounds = discreteRadiusBounds(analyzer);
  ASSERT_TRUE(std::isfinite(bounds.upper));
  EXPECT_LE(bounds.lower, bounds.upper + 1e-12);
  // The certificate violates some bound.
  bool violates = false;
  for (const auto& f : features) {
    violates |= !f.bounds.contains(f.impact.evaluate(bounds.violatingPoint));
  }
  EXPECT_TRUE(violates);
  if (bounds.exact) {
    // Brute-force cross-check over a box.
    double bruteMin = std::numeric_limits<double>::infinity();
    for (int dx = -20; dx <= 20; ++dx) {
      for (int dy = -20; dy <= 20; ++dy) {
        const num::Vec p = {1.0 + dx, 2.0 + dy};
        bool v = false;
        for (const auto& f : features) {
          v |= !f.bounds.contains(f.impact.evaluate(p));
        }
        if (v) {
          bruteMin = std::min(bruteMin, num::distance2(p, parameter.origin));
        }
      }
    }
    EXPECT_NEAR(bounds.upper, bruteMin, 1e-9);
  }
}

TEST(Discrete, NonlinearBoundary) {
  // Circle x1^2 + x2^2 <= 20.5 from the origin: continuous radius
  // sqrt(20.5) ~ 4.528; nearest violating lattice point has |p|^2 >= 21,
  // the minimum integer sum of two squares >= 21 is 25 ((3,4), (0,5), ...)
  // -> distance 5.
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "circle",
      ImpactFunction::callable([](std::span<const double> x) {
        return x[0] * x[0] + x[1] * x[1];
      }),
      ToleranceBounds::atMost(20.5)});
  PerturbationParameter parameter{"pi", {0.0, 0.0}, true, ""};
  const auto analyzer = CompiledProblem::compile(
      {.features = std::move(features), .parameter = std::move(parameter)});
  const auto bounds = discreteRadiusBounds(analyzer);
  EXPECT_NEAR(bounds.lower, std::sqrt(20.5), 1e-6);
  EXPECT_TRUE(bounds.exact);
  EXPECT_NEAR(bounds.upper, 5.0, 1e-9);
}

TEST(Discrete, LargeRadiusGivesCertificateOnly) {
  // Radius beyond the exhaustive limit: bounds still bracket, exact off.
  const auto analyzer = affineDiscrete({1.0, 1.0}, 100.3, {0.0, 0.0});
  DiscreteOptions options;
  options.exhaustiveLimit = 5.0;
  const auto bounds = discreteRadiusBounds(analyzer, options);
  EXPECT_FALSE(bounds.exact);
  EXPECT_NEAR(bounds.lower, 100.3 / std::sqrt(2.0), 1e-9);
  ASSERT_TRUE(std::isfinite(bounds.upper));
  EXPECT_GE(bounds.upper, bounds.lower - 1e-9);
  // The certificate search near the boundary still finds a violating point
  // within about one lattice step of the continuous boundary.
  EXPECT_LE(bounds.upper, bounds.lower + 2.0);
}

// Property sweep: on random small 2-D affine systems the exact lattice
// bound must equal an independent brute-force enumeration.
class DiscreteBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiscreteBruteForce, ExactBoundMatchesEnumeration) {
  Pcg32 rng(GetParam());
  std::vector<PerformanceFeature> features;
  // Integer origin coordinates, uniform in [-3, 3].
  const num::Vec origin = {
      static_cast<double>(static_cast<int>(rng.nextBounded(7)) - 3),
      static_cast<double>(static_cast<int>(rng.nextBounded(7)) - 3)};
  const std::size_t count = 1 + rng.nextBounded(3);
  for (std::size_t f = 0; f < count; ++f) {
    num::Vec w = {rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)};
    const double level = num::dot(w, origin) + rng.uniform(1.0, 9.0);
    features.push_back(PerformanceFeature{
        "phi" + std::to_string(f), ImpactFunction::affine(std::move(w), 0.0),
        ToleranceBounds::atMost(level)});
  }
  PerturbationParameter parameter{"pi", origin, true, ""};
  const auto analyzer = CompiledProblem::compile(
      {.features = features, .parameter = parameter});
  const auto bounds = discreteRadiusBounds(analyzer);
  ASSERT_TRUE(bounds.exact) << "seed " << GetParam();

  double bruteMin = std::numeric_limits<double>::infinity();
  for (int dx = -30; dx <= 30; ++dx) {
    for (int dy = -30; dy <= 30; ++dy) {
      if (dx == 0 && dy == 0) {
        continue;
      }
      const num::Vec p = {origin[0] + dx, origin[1] + dy};
      bool violates = false;
      for (const auto& f : features) {
        violates |= !f.bounds.contains(f.impact.evaluate(p));
      }
      if (violates) {
        bruteMin = std::min(bruteMin, num::distance2(p, origin));
      }
    }
  }
  ASSERT_TRUE(std::isfinite(bruteMin));
  EXPECT_NEAR(bounds.upper, bruteMin, 1e-9) << "seed " << GetParam();
  EXPECT_LE(bounds.lower, bounds.upper + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscreteBruteForce,
                         ::testing::Range<std::uint64_t>(1, 11));

// x0 <= 2.5 and x1 <= 3.5 from the lattice origin under the hard constraint
// x0 <= 2. No feasible point breaks the first bound, so the constrained
// radius is 3.5 and the nearest violating lattice point is (0, 4). The
// closer (3, 0) breaks x0 <= 2.5 but is infeasible, so it proves nothing.
CompiledProblem cappedDiscrete() {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi0", ImpactFunction::affine({1.0, 0.0}, 0.0),
      ToleranceBounds::atMost(2.5)});
  features.push_back(PerformanceFeature{
      "phi1", ImpactFunction::affine({0.0, 1.0}, 0.0),
      ToleranceBounds::atMost(3.5)});
  return CompiledProblem::compile(
      {.features = std::move(features),
       .parameter = PerturbationParameter{"pi", {0.0, 0.0}, true, ""},
       .constraints = {LinearConstraint{"cap", {1.0, 0.0}, 2.0}}});
}

TEST(Discrete, InfeasibleLatticePointsNeverCertify) {
  const auto problem = cappedDiscrete();
  EXPECT_EQ(problem.evaluate().metric, 3.0);
  const auto bounds = discreteRadiusBounds(problem);
  EXPECT_EQ(bounds.lower, 3.5);
  EXPECT_TRUE(bounds.exact);
  EXPECT_GE(bounds.upper, bounds.lower);
  EXPECT_EQ(bounds.upper, 4.0);
  EXPECT_EQ(bounds.violatingPoint, (num::Vec{0.0, 4.0}));
  EXPECT_TRUE(problem.originFeasible(bounds.violatingPoint));
}

TEST(Discrete, ValidateRadiusIgnoresInfeasibleSamples) {
  // Inside 3.4 < 3.5 every feasible perturbation keeps both bounds; the
  // samples with x0 > 2.5 are infeasible and must not count.
  const auto result = validateRadius(cappedDiscrete(), 3.4);
  EXPECT_EQ(result.samplesInside, 2000);
  EXPECT_EQ(result.violationsInside, 0);
}

TEST(Discrete, RejectsGeometryOtherThanOneL2Subspace) {
  // x0 + x1 <= 3.5 from the lattice origin. The lattice search measures L2
  // distance, so under any other norm its upper bound would not be a
  // radius in the problem's norm.
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi", ImpactFunction::affine({1.0, 1.0}, 0.0),
      ToleranceBounds::atMost(3.5)});
  const PerturbationParameter lattice{"pi", {0.0, 0.0}, true, ""};
  for (const auto norm : {NormKind::L1, NormKind::LInf, NormKind::Weighted}) {
    AnalyzerOptions options;
    options.norm = norm;
    if (norm == NormKind::Weighted) {
      options.normWeights = {1.0, 1.0};
    }
    const auto problem = CompiledProblem::compile(
        {.features = features, .parameter = lattice, .options = options});
    EXPECT_THROW((void)discreteRadiusBounds(problem), InvalidArgumentError)
        << toString(norm);
  }
  PerturbationSubspace a{.name = "a", .origin = {0.0}, .discrete = true};
  PerturbationSubspace b{.name = "b", .origin = {0.0}, .discrete = true};
  const auto split = CompiledProblem::compile(
      {.features = features, .subspaces = {a, b}});
  EXPECT_THROW((void)discreteRadiusBounds(split), InvalidArgumentError);

  // Under L2 the nearest violating lattice point is (2, 2).
  const auto l2 = CompiledProblem::compile(
      {.features = features, .parameter = lattice});
  const auto bounds = discreteRadiusBounds(l2);
  EXPECT_NEAR(bounds.lower, 3.5 / std::sqrt(2.0), 1e-12);
  EXPECT_TRUE(bounds.exact);
  EXPECT_NEAR(bounds.upper, std::sqrt(8.0), 1e-12);
  EXPECT_EQ(bounds.violatingPoint, (num::Vec{2.0, 2.0}));
}

TEST(Discrete, Validation) {
  // Non-discrete parameter rejected.
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi", ImpactFunction::affine({1.0}, 0.0),
      ToleranceBounds::atMost(5.0)});
  PerturbationParameter continuous{"pi", {0.0}, false, ""};
  const auto a = CompiledProblem::compile(
      {.features = features, .parameter = continuous});
  EXPECT_THROW((void)discreteRadiusBounds(a), InvalidArgumentError);

  // Non-integer origin rejected.
  PerturbationParameter fractional{"pi", {0.5}, true, ""};
  const auto b = CompiledProblem::compile(
      {.features = features, .parameter = fractional});
  EXPECT_THROW((void)discreteRadiusBounds(b), InvalidArgumentError);

  // Bad options rejected.
  PerturbationParameter ok{"pi", {0.0}, true, ""};
  const auto c = CompiledProblem::compile(
      {.features = features, .parameter = ok});
  DiscreteOptions bad;
  bad.neighborhoodRadius = 0;
  EXPECT_THROW((void)discreteRadiusBounds(c, bad), InvalidArgumentError);
}

}  // namespace
}  // namespace robust::core

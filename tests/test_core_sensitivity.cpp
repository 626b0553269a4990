// Tests for the sensitivity (critical direction) analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "robust/core/compiled.hpp"
#include "robust/core/sensitivity.hpp"
#include "robust/util/error.hpp"

namespace robust::core {
namespace {

CompiledProblem twoFeatureAnalyzer() {
  std::vector<PerformanceFeature> features;
  // Feature A depends mostly on component 1; feature B only on component 0.
  features.push_back(PerformanceFeature{
      "A", ImpactFunction::affine({1.0, 3.0}, 0.0),
      ToleranceBounds::atMost(20.0)});
  features.push_back(PerformanceFeature{
      "B", ImpactFunction::affine({2.0, 0.0}, 0.0),
      ToleranceBounds::atMost(50.0)});
  PerturbationParameter parameter{"pi", {1.0, 1.0}, false, ""};
  return CompiledProblem::compile(
      {.features = std::move(features), .parameter = std::move(parameter)});
}

TEST(Sensitivity, DirectionIsUnitAndPointsAtBoundary) {
  const auto analyzer = twoFeatureAnalyzer();
  const auto radius = analyzer.radiusOf(0);
  const auto s = sensitivityOf(radius, analyzer.parameter());
  EXPECT_EQ(s.feature, "A");
  EXPECT_NEAR(num::norm2(s.direction), 1.0, 1e-12);
  // For an affine feature the critical direction is the normalized weight
  // vector: (1, 3)/sqrt(10).
  EXPECT_NEAR(s.direction[0], 1.0 / std::sqrt(10.0), 1e-12);
  EXPECT_NEAR(s.direction[1], 3.0 / std::sqrt(10.0), 1e-12);
}

TEST(Sensitivity, RankingOrdersByMagnitude) {
  const auto analyzer = twoFeatureAnalyzer();
  const auto s = sensitivityOf(analyzer.radiusOf(0), analyzer.parameter());
  ASSERT_EQ(s.ranking.size(), 2u);
  EXPECT_EQ(s.ranking[0], 1u);  // component 1 has weight 3
  EXPECT_EQ(s.ranking[1], 0u);
}

TEST(Sensitivity, BindingSensitivityUsesTheMinimumRadiusFeature) {
  const auto analyzer = twoFeatureAnalyzer();
  const auto report = analyzer.evaluate();
  // Radii: A = (20-4)/sqrt(10) = 5.06, B = (50-2)/2 = 24 -> A binds.
  EXPECT_EQ(report.radii[report.bindingFeature].feature, "A");
  const auto s = bindingSensitivity(report, analyzer.parameter());
  EXPECT_EQ(s.feature, "A");
}

TEST(Sensitivity, ZeroRadiusYieldsZeroDirection) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "violated", ImpactFunction::affine({1.0}, 0.0),
      ToleranceBounds::atMost(0.5)});
  PerturbationParameter parameter{"pi", {1.0}, false, ""};
  const auto analyzer = CompiledProblem::compile(
      {.features = std::move(features), .parameter = std::move(parameter)});
  const auto s =
      sensitivityOf(analyzer.radiusOf(0), analyzer.parameter());
  EXPECT_DOUBLE_EQ(s.direction[0], 0.0);
  EXPECT_EQ(s.ranking[0], 0u);
}

TEST(Sensitivity, RejectsInfiniteRadius) {
  RadiusReport unreachable;
  unreachable.radius = std::numeric_limits<double>::infinity();
  PerturbationParameter parameter{"pi", {1.0}, false, ""};
  EXPECT_THROW((void)sensitivityOf(unreachable, parameter),
               InvalidArgumentError);
}

}  // namespace
}  // namespace robust::core

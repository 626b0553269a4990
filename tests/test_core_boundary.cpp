// Tests for the 2-D boundary tracer (the Fig. 1 data generator).
#include <gtest/gtest.h>

#include <cmath>

#include "robust/core/boundary_trace.hpp"
#include "robust/util/error.hpp"

namespace robust::core {
namespace {

TEST(BoundaryTrace, AffineBoundaryPointsLieOnTheLine) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "F", ImpactFunction::affine({1.0, 1.0}, 0.0),
      ToleranceBounds::atMost(9.1)});
  PerturbationParameter parameter{"C", {4.0, 3.0}, false, ""};
  const auto analyzer = CompiledProblem::compile(
      {.features = std::move(features), .parameter = parameter});

  const auto samples = traceBoundary2D(analyzer, 0);
  EXPECT_GT(samples.size(), 30u);      // roughly the facing half-plane
  EXPECT_LT(samples.size(), 128u);     // rays pointing away never cross
  double minDistance = 1e300;
  for (const auto& s : samples) {
    EXPECT_NEAR(s.point[0] + s.point[1], 9.1, 1e-8);
    EXPECT_NEAR(num::distance2(s.point, parameter.origin), s.distance,
                1e-10);
    minDistance = std::min(minDistance, s.distance);
  }
  // The closest traced sample approaches the analytic radius from above.
  const double radius = analyzer.radiusOf(0).radius;
  EXPECT_GE(minDistance, radius - 1e-9);
  EXPECT_LE(minDistance, radius * 1.01);
}

TEST(BoundaryTrace, CurvedBoundaryIsClosed) {
  // g(pi) = ||pi||^2 = 25: the full circle is reachable from inside, so
  // every ray crosses.
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "circle",
      ImpactFunction::callable([](std::span<const double> x) {
        return x[0] * x[0] + x[1] * x[1];
      }),
      ToleranceBounds::atMost(25.0)});
  PerturbationParameter parameter{"pi", {1.0, 0.0}, false, ""};
  const auto analyzer = CompiledProblem::compile(
      {.features = std::move(features), .parameter = parameter});

  BoundaryTraceOptions options;
  options.rays = 64;
  const auto samples = traceBoundary2D(analyzer, 0, options);
  EXPECT_EQ(samples.size(), 64u);  // closed curve: every ray crosses
  for (const auto& s : samples) {
    EXPECT_NEAR(num::norm2(s.point), 5.0, 1e-7);
  }
  // Nearest sample ~ analytic radius 4 (at angle 0), farthest ~ 6 (pi).
  double lo = 1e300;
  double hi = 0.0;
  for (const auto& s : samples) {
    lo = std::min(lo, s.distance);
    hi = std::max(hi, s.distance);
  }
  EXPECT_NEAR(lo, 4.0, 0.02);
  EXPECT_NEAR(hi, 6.0, 0.02);
}

TEST(BoundaryTrace, Validation) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "F", ImpactFunction::affine({1.0, 1.0, 1.0}, 0.0),
      ToleranceBounds::atMost(9.0)});
  PerturbationParameter parameter{"pi", {0.0, 0.0, 0.0}, false, ""};
  const auto threeD = CompiledProblem::compile(
      {.features = std::move(features), .parameter = parameter});
  EXPECT_THROW((void)traceBoundary2D(threeD, 0), InvalidArgumentError);
  EXPECT_THROW((void)traceBoundary2D(threeD, 9), InvalidArgumentError);

  std::vector<PerformanceFeature> flat;
  flat.push_back(PerformanceFeature{"F",
                                    ImpactFunction::affine({1.0, 1.0}, 0.0),
                                    ToleranceBounds::atMost(9.0)});
  PerturbationParameter twoD{"pi", {0.0, 0.0}, false, ""};
  const auto ok = CompiledProblem::compile(
      {.features = std::move(flat), .parameter = twoD});
  BoundaryTraceOptions bad;
  bad.rays = 2;
  EXPECT_THROW((void)traceBoundary2D(ok, 0, bad), InvalidArgumentError);
}

}  // namespace
}  // namespace robust::core

// Unit tests of the Euclidean projection solvers behind the feasibility-
// clipped radius lane: Dykstra (exact nearest point of a halfspace
// intersection) and POCS (any member, used as the bisection oracle).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "robust/numeric/projection.hpp"

namespace {

using namespace robust;
using num::BlockBall;
using num::Halfspace;
using num::ProjectionResult;
using num::Vec;

Halfspace atMost(Vec normal, double offset) {
  return Halfspace{std::move(normal), offset, /*geq=*/false};
}

Halfspace atLeast(Vec normal, double offset) {
  return Halfspace{std::move(normal), offset, /*geq=*/true};
}

TEST(Projection, HalfspaceViolationIsEuclideanDistance) {
  const Halfspace h = atMost(Vec{3.0, 4.0}, 0.0);  // |n| = 5
  const Vec inside{-1.0, -1.0};
  EXPECT_EQ(num::halfspaceViolation(h, inside), 0.0);
  const Vec outside{3.0, 4.0};  // n.x = 25, distance 25 / 5 = 5
  EXPECT_NEAR(num::halfspaceViolation(h, outside), 5.0, 1e-12);
}

TEST(Projection, SingleHalfspaceProjectsExactly) {
  const std::vector<Halfspace> sets{atMost(Vec{1.0, 0.0}, 1.0)};
  const Vec x0{3.0, 2.0};
  const ProjectionResult res = num::projectOntoIntersection(sets, x0);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.point[0], 1.0, 1e-9);
  EXPECT_NEAR(res.point[1], 2.0, 1e-9);
}

TEST(Projection, FeasibleStartIsReturnedUnchanged) {
  const std::vector<Halfspace> sets{atMost(Vec{1.0, 1.0}, 10.0),
                                    atLeast(Vec{1.0, 0.0}, -5.0)};
  const Vec x0{0.5, 0.25};
  const ProjectionResult res = num::projectOntoIntersection(sets, x0);
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.point[0], x0[0]);
  EXPECT_EQ(res.point[1], x0[1]);
}

TEST(Projection, CornerOfTwoHalfspacesIsExact) {
  // {x <= 0} and {y <= 0}: projecting (1, 2) lands on the corner-adjacent
  // point (0, 0)... actually on (0, 0) only for the nonnegative quadrant
  // complement; here the projection is (0, 0) clamped per coordinate.
  const std::vector<Halfspace> sets{atMost(Vec{1.0, 0.0}, 0.0),
                                    atMost(Vec{0.0, 1.0}, 0.0)};
  const Vec x0{1.0, 2.0};
  const ProjectionResult res = num::projectOntoIntersection(sets, x0);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.point[0], 0.0, 1e-9);
  EXPECT_NEAR(res.point[1], 0.0, 1e-9);
}

TEST(Projection, DykstraBeatsPlainPocsOnObliqueCorner) {
  // Intersection of {x + y <= 0} and {x - y <= 0}: the projection of
  // (2, 0) is the apex (0, 0). Plain cyclic projection (POCS) would stop at
  // some feasible point; Dykstra must return the true nearest point.
  const std::vector<Halfspace> sets{atMost(Vec{1.0, 1.0}, 0.0),
                                    atMost(Vec{1.0, -1.0}, 0.0)};
  const Vec x0{2.0, 0.0};
  const ProjectionResult res = num::projectOntoIntersection(sets, x0);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.point[0], 0.0, 1e-7);
  EXPECT_NEAR(res.point[1], 0.0, 1e-7);
}

TEST(Projection, EmptyIntersectionReportsNotConverged) {
  const std::vector<Halfspace> sets{atMost(Vec{1.0, 0.0}, -1.0),
                                    atLeast(Vec{1.0, 0.0}, 1.0)};
  const Vec x0{0.0, 0.0};
  const ProjectionResult res = num::projectOntoIntersection(sets, x0);
  EXPECT_FALSE(res.converged);
  EXPECT_GT(res.residual, 0.1);
}

TEST(Projection, PocsFindsMemberOfBallAndHalfspace) {
  const std::vector<Halfspace> sets{atLeast(Vec{1.0, 0.0}, 0.5)};
  const std::vector<BlockBall> balls{BlockBall{0, Vec{0.0, 0.0}, 1.0}};
  const Vec start{0.0, 0.0};
  const ProjectionResult res = num::feasiblePoint(sets, balls, start);
  ASSERT_TRUE(res.converged);
  EXPECT_GE(res.point[0], 0.5 - 1e-8);
  EXPECT_LE(std::hypot(res.point[0], res.point[1]), 1.0 + 1e-8);
}

TEST(Projection, PocsRejectsBallTooSmallForHalfspace) {
  const std::vector<Halfspace> sets{atLeast(Vec{1.0, 0.0}, 2.0)};
  const std::vector<BlockBall> balls{BlockBall{0, Vec{0.0, 0.0}, 1.0}};
  const Vec start{0.0, 0.0};
  const ProjectionResult res = num::feasiblePoint(sets, balls, start);
  EXPECT_FALSE(res.converged);
}

TEST(Projection, BlockBallsConstrainOnlyTheirBlock) {
  // Ball on block [0, 2) of a 4-dim space; halfspace pushes coordinate 3.
  const std::vector<Halfspace> sets{
      atLeast(Vec{0.0, 0.0, 0.0, 1.0}, 7.0)};
  const std::vector<BlockBall> balls{BlockBall{0, Vec{0.0, 0.0}, 0.5}};
  const Vec start{0.0, 0.0, 0.0, 0.0};
  const ProjectionResult res = num::feasiblePoint(sets, balls, start);
  ASSERT_TRUE(res.converged);
  EXPECT_GE(res.point[3], 7.0 - 1e-8);
  EXPECT_LE(std::hypot(res.point[0], res.point[1]), 0.5 + 1e-8);
}

TEST(Projection, MaxViolationCoversBallsAndHalfspaces) {
  const std::vector<Halfspace> sets{atMost(Vec{1.0, 0.0}, 1.0)};
  const std::vector<BlockBall> balls{BlockBall{0, Vec{0.0, 0.0}, 1.0}};
  const Vec feasible{0.5, 0.0};
  EXPECT_EQ(num::maxViolation(sets, balls, feasible), 0.0);
  const Vec outsideBall{0.0, 3.0};  // ball violation 2, halfspace satisfied
  EXPECT_NEAR(num::maxViolation(sets, balls, outsideBall), 2.0, 1e-12);
}

}  // namespace

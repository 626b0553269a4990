// Tests for root finding, finite differences, and the constrained
// nearest-point solvers that implement Eq. 1 of the paper.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "robust/numeric/differentiation.hpp"
#include "robust/numeric/optimize.hpp"
#include "robust/numeric/root_find.hpp"
#include "robust/util/error.hpp"

namespace robust::num {
namespace {

// ------------------------------------------------------------ root finding


TEST(RootFind, BrentPolynomial) {
  // x^3 - 2x - 5 has a root near 2.0945514815.
  const auto r =
      brent([](double x) { return x * x * x - 2.0 * x - 5.0; }, 1.0, 3.0);
  EXPECT_NEAR(r.x, 2.0945514815423265, 1e-10);
}

TEST(RootFind, BrentTranscendental) {
  const auto r = brent([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  EXPECT_NEAR(r.x, 0.7390851332151607, 1e-10);
}

TEST(RootFind, BrentFasterThanBisect) {
  auto f = [](double x) { return std::exp(x) - 3.0; };
  const auto rb = brent(f, 0.0, 2.0);
  EXPECT_NEAR(rb.x, std::log(3.0), 1e-10);
  // Bisection needs log2(width / xTol) halvings to reach the same abscissa
  // tolerance.
  const double halvings = std::ceil(std::log2(2.0 / RootOptions{}.xTol));
  EXPECT_LT(rb.iterations, static_cast<int>(halvings));
}

TEST(RootFind, NonBracketingThrows) {
  auto f = [](double x) { return x * x + 1.0; };
  EXPECT_THROW((void)brent(f, -1.0, 1.0), InvalidArgumentError);
}

TEST(RootFind, ExpandBracketFindsSignChange) {
  auto f = [](double t) { return t - 100.0; };
  const auto bracket = expandBracket(f, 0.0, 1.0, 1e6);
  ASSERT_TRUE(bracket.has_value());
  EXPECT_LE(bracket->first, 100.0);
  EXPECT_GE(bracket->second, 100.0);
}

TEST(RootFind, ExpandBracketGivesUpAtLimit) {
  auto f = [](double) { return 1.0; };
  EXPECT_FALSE(expandBracket(f, 0.0, 1.0, 1e3).has_value());
}

TEST(RootFind, NonFiniteObjectiveFailsFastEverywhere) {
  // A NaN objective must raise a structured error immediately instead of
  // being folded into sign tests (NaN comparisons are all false, which
  // silently mis-steers Brent's bisection steps and bracket expansion).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto nanAlways = [=](double) { return nan; };
  EXPECT_THROW((void)expandBracket(nanAlways, 0.0, 1.0, 1e3),
               InvalidArgumentError);
  EXPECT_THROW((void)brent(nanAlways, -1.0, 1.0), InvalidArgumentError);
}

TEST(RootFind, NonFiniteMidEvaluationFailsFast) {
  // Finite and correctly bracketing at the endpoints, NaN in the interior:
  // the guard must fire at the first poisoned interior evaluation.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto poisoned = [=](double x) {
    return (x > 0.4 && x < 0.6) ? nan : x - 0.5;
  };
  EXPECT_THROW((void)brent(poisoned, 0.0, 1.0), InvalidArgumentError);
}

TEST(RootFind, NonFiniteDiagnosticNamesRoutineAndPoint) {
  auto infAt = [](double x) {
    return x >= 1.0 ? std::numeric_limits<double>::infinity() : x - 2.0;
  };
  try {
    (void)brent(infAt, 0.0, 1.0);
    FAIL() << "expected a throw";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("brent"), std::string::npos) << what;
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
  }
}

TEST(RootFind, InfiniteObjectiveAlsoRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  auto infAlways = [=](double) { return inf; };
  EXPECT_THROW((void)expandBracket(infAlways, 0.0, 1.0, 1e3),
               InvalidArgumentError);
  EXPECT_THROW((void)brent(infAlways, -1.0, 1.0), InvalidArgumentError);
}

// A property sweep: Brent solves g(x) = x^p - c for assorted p, c.
class BrentPowerTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BrentPowerTest, SolvesPower) {
  const auto [p, c] = GetParam();
  const auto r =
      brent([=](double x) { return std::pow(x, p) - c; }, 1e-6, 1e4);
  EXPECT_NEAR(r.x, std::pow(c, 1.0 / p), 1e-6 * std::pow(c, 1.0 / p));
}

INSTANTIATE_TEST_SUITE_P(
    Powers, BrentPowerTest,
    ::testing::Values(std::pair{1.0, 7.0}, std::pair{2.0, 10.0},
                      std::pair{3.0, 100.0}, std::pair{0.5, 3.0},
                      std::pair{4.0, 5000.0}));

// ------------------------------------------------------- differentiation

TEST(Differentiation, GradientOfQuadratic) {
  // f(x) = x1^2 + 3 x1 x2, grad = (2 x1 + 3 x2, 3 x1).
  auto f = [](std::span<const double> x) {
    return x[0] * x[0] + 3.0 * x[0] * x[1];
  };
  const Vec g = gradientFD(f, Vec{2.0, 5.0});
  EXPECT_NEAR(g[0], 19.0, 1e-5);
  EXPECT_NEAR(g[1], 6.0, 1e-5);
}

TEST(Differentiation, GradientScalesWithMagnitude) {
  // Large-magnitude coordinates (sensor loads ~1000) stay accurate.
  auto f = [](std::span<const double> x) { return x[0] * x[0]; };
  const Vec g = gradientFD(f, Vec{1000.0});
  EXPECT_NEAR(g[0], 2000.0, 1e-3);
}

TEST(Differentiation, HessianOfQuadratic) {
  auto f = [](std::span<const double> x) {
    return 2.0 * x[0] * x[0] + 3.0 * x[0] * x[1] + 0.5 * x[1] * x[1];
  };
  const Matrix h = hessianFD(f, Vec{1.0, 2.0});
  EXPECT_NEAR(h(0, 0), 4.0, 1e-4);
  EXPECT_NEAR(h(0, 1), 3.0, 1e-4);
  EXPECT_NEAR(h(1, 0), 3.0, 1e-4);
  EXPECT_NEAR(h(1, 1), 1.0, 1e-4);
}

// ------------------------------------------------------ nearest point

NearestPointProblem sphereProblem(double level, Vec origin) {
  // g(x) = ||x||^2; boundary is the sphere of radius sqrt(level).
  NearestPointProblem p;
  p.g = [](std::span<const double> x) {
    double s = 0.0;
    for (double xi : x) {
      s += xi * xi;
    }
    return s;
  };
  p.gradient = [](std::span<const double> x) {
    return scale(x, 2.0);
  };
  p.level = level;
  p.origin = std::move(origin);
  return p;
}

TEST(CrossingAlongRay, FindsSphereCrossing) {
  const auto p = sphereProblem(25.0, Vec{0.0, 0.0});
  const auto t = crossingAlongRay(p.g, p.level, p.origin, Vec{1.0, 0.0}, 1e6);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 5.0, 1e-8);
}

TEST(CrossingAlongRay, ScalesWithDirectionNorm) {
  const auto p = sphereProblem(25.0, Vec{0.0, 0.0});
  // Direction of length 2: the returned distance is still Euclidean.
  const auto t = crossingAlongRay(p.g, p.level, p.origin, Vec{2.0, 0.0}, 1e6);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 5.0, 1e-8);
}

TEST(CrossingAlongRay, NoCrossingReturnsNullopt) {
  const auto p = sphereProblem(25.0, Vec{0.0, 0.0});
  // g decreases along no ray from inside the ball faster than it grows, but
  // a level *below* g(origin) in a growing direction is never crossed.
  const auto t =
      crossingAlongRay(p.g, -1.0, p.origin, Vec{1.0, 0.0}, 1e3);
  EXPECT_FALSE(t.has_value());
}

TEST(KktNewton, AffineConvergesToHyperplaneDistance) {
  NearestPointProblem p;
  p.g = [](std::span<const double> x) { return x[0] + x[1]; };
  p.level = 10.0;
  p.origin = {1.0, 1.0};
  const auto r = kktNewton(p);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.distance, 8.0 / std::sqrt(2.0), 1e-8);
  EXPECT_NEAR(r.point[0], 5.0, 1e-6);
  EXPECT_NEAR(r.point[1], 5.0, 1e-6);
}

TEST(KktNewton, SphereFromInside) {
  const auto p = sphereProblem(25.0, Vec{1.0, 1.0, 1.0});
  const auto r = kktNewton(p);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.distance, 5.0 - std::sqrt(3.0), 1e-7);
}

TEST(KktNewton, SphereFromOutside) {
  // Origin outside the ball: nearest boundary point moves inward
  // (the level is below g(origin)).
  const auto p = sphereProblem(4.0, Vec{5.0, 0.0});
  const auto r = kktNewton(p);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.distance, 3.0, 1e-7);
  EXPECT_NEAR(r.point[0], 2.0, 1e-6);
}

TEST(KktNewton, WorksWithoutAnalyticGradient) {
  auto p = sphereProblem(25.0, Vec{1.0, 1.0, 1.0});
  p.gradient = nullptr;
  const auto r = kktNewton(p);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.distance, 5.0 - std::sqrt(3.0), 1e-5);
}

TEST(RaySearch, MatchesKktOnSphere) {
  const auto p = sphereProblem(25.0, Vec{2.0, 1.0});
  const auto r = raySearch(p);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.distance, 5.0 - std::sqrt(5.0), 1e-6);
}

TEST(RaySearch, EllipseNearestPoint) {
  // g(x) = x1^2/25 + x2^2 ; level 1 (ellipse semi-axes 5 and 1); origin at
  // center: nearest boundary point is (0, 1) at distance 1.
  NearestPointProblem p;
  p.g = [](std::span<const double> x) {
    return x[0] * x[0] / 25.0 + x[1] * x[1];
  };
  p.level = 1.0;
  p.origin = {0.0, 0.0};
  const auto r = raySearch(p);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.distance, 1.0, 1e-6);
  EXPECT_NEAR(std::fabs(r.point[1]), 1.0, 1e-5);
}

TEST(SolveNearestPoint, FallsBackToRaySearch) {
  // |x| is non-smooth at the KKT solution's fold; Newton may stall but the
  // production entry point must still return the right answer.
  NearestPointProblem p;
  p.g = [](std::span<const double> x) {
    return std::fabs(x[0]) + std::fabs(x[1]);
  };
  p.level = 4.0;
  p.origin = {0.5, 0.0};
  const auto r = solveNearestPoint(p);
  EXPECT_TRUE(r.converged);
  // Nearest point on |x1|+|x2|=4 from (0.5, 0): (4, 0) is distance 3.5;
  // the perpendicular to the diamond edge gives (2.25, 1.75), distance
  // sqrt(2)*1.75 ~ 2.4749.
  EXPECT_NEAR(r.distance, 3.5 / std::sqrt(2.0), 1e-4);
}

// Property sweep: on random affine problems every solver agrees with the
// closed-form hyperplane distance.
class AffineAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(AffineAgreementTest, AllSolversAgree) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + rng.nextBounded(6);
  Vec w(n);
  for (auto& v : w) {
    v = rng.uniform(0.5, 3.0);
  }
  Vec origin(n);
  for (auto& v : origin) {
    v = rng.uniform(0.0, 10.0);
  }
  const double level = dot(w, origin) + rng.uniform(1.0, 50.0);

  NearestPointProblem p;
  const Vec wCopy = w;
  p.g = [wCopy](std::span<const double> x) { return dot(wCopy, x); };
  p.level = level;
  p.origin = origin;

  const double expected = (level - dot(w, origin)) / norm2(w);
  const auto kkt = kktNewton(p);
  EXPECT_NEAR(kkt.distance, expected, 1e-6 * expected);
  const auto ray = raySearch(p);
  EXPECT_NEAR(ray.distance, expected, 1e-6 * expected);
}

INSTANTIATE_TEST_SUITE_P(RandomAffine, AffineAgreementTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace robust::num

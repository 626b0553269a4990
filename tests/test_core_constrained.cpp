// Constrained and multi-subspace radii: hand-computable geometry, grid
// brute-force references, first-class infeasible origins, the
// feasibility observability counters (on and off), and a seeded
// differential of the screened constrained metric lane against
// evaluate().
//
// Brute-force tolerance: the references scan a uniform grid of step h over
// a box known to contain the constrained nearest violation. A grid point is
// a true candidate (so gridMin >= radius - slack from the engine's own
// 1e-9 bisection), and some grid point lies within one cell diagonal of the
// optimum, so gridMin <= radius + h * sqrt(dim). The asserts below use
// 2 * h * sqrt(dim) as the documented tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/core/impact.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/util/rng.hpp"

namespace {

using namespace robust;
using namespace robust::core;

PerturbationSubspace l2Subspace(std::string name, num::Vec origin) {
  PerturbationSubspace s;
  s.name = std::move(name);
  s.origin = std::move(origin);
  s.norm = static_cast<int>(NormKind::L2);
  return s;
}

TEST(Constrained, SingleSubspaceClipMatchesHandGeometry) {
  // f = x0 + x1 <= 2 from origin (0, 0): unconstrained nearest violation is
  // (1, 1) at radius sqrt(2). The hard constraint x1 <= 0.5 cuts it off; the
  // constrained nearest point solves min |x|^2 s.t. x0 + x1 = 2, x1 = 0.5,
  // i.e. (1.5, 0.5) at radius sqrt(2.5).
  ProblemSpec spec;
  spec.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0, 1.0}, 0.0),
      ToleranceBounds::atMost(2.0)});
  spec.subspaces.push_back(l2Subspace("pi", num::Vec{0.0, 0.0}));
  spec.constraints.push_back(
      LinearConstraint{"cap", num::Vec{0.0, 1.0}, 0.5});
  const CompiledProblem p = CompiledProblem::compile(std::move(spec));

  const RadiusReport r = p.radiusOf(0);
  EXPECT_EQ(r.method, "dykstra-clip");
  EXPECT_NEAR(r.radius, std::sqrt(2.5), 1e-7);
  ASSERT_EQ(r.boundaryPoint.size(), 2u);
  EXPECT_NEAR(r.boundaryPoint[0], 1.5, 1e-6);
  EXPECT_NEAR(r.boundaryPoint[1], 0.5, 1e-6);
}

TEST(Constrained, FeasibleUnconstrainedPointIsNotClipped) {
  // The same feature with a slack constraint: the unconstrained nearest
  // violation (1, 1) already satisfies x1 <= 5, so the analytic radius and
  // method must come through untouched.
  ProblemSpec spec;
  spec.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0, 1.0}, 0.0),
      ToleranceBounds::atMost(2.0)});
  spec.subspaces.push_back(l2Subspace("pi", num::Vec{0.0, 0.0}));
  spec.constraints.push_back(
      LinearConstraint{"cap", num::Vec{0.0, 1.0}, 5.0});
  const CompiledProblem p = CompiledProblem::compile(std::move(spec));
  const RadiusReport r = p.radiusOf(0);
  EXPECT_EQ(r.method, "analytic-l2");
  EXPECT_NEAR(r.radius, std::sqrt(2.0), 1e-12);
}

TEST(Constrained, SingleSubspaceRadiusMatchesGridBruteForce) {
  // Feature 2 x0 + x1 >= -3 (atLeast) and 3 x0 - x1 <= 4 from origin
  // (0.5, -0.25), with two capacity constraints. Reference: scan a grid.
  const num::Vec origin{0.5, -0.25};
  ProblemSpec spec;
  spec.features.push_back(PerformanceFeature{
      "g", ImpactFunction::affine(num::Vec{2.0, 1.0}, 0.0),
      ToleranceBounds::atLeast(-3.0)});
  spec.features.push_back(PerformanceFeature{
      "h", ImpactFunction::affine(num::Vec{3.0, -1.0}, 0.5),
      ToleranceBounds::atMost(4.0)});
  spec.subspaces.push_back(l2Subspace("pi", origin));
  spec.constraints.push_back(
      LinearConstraint{"c0", num::Vec{1.0, 0.0}, 1.0});   // x0 <= 1
  spec.constraints.push_back(
      LinearConstraint{"c1", num::Vec{-1.0, -1.0}, 2.5});  // x0 + x1 >= -2.5
  const CompiledProblem p = CompiledProblem::compile(std::move(spec));

  const double h = 0.005;
  const double tol = 2.0 * h * std::sqrt(2.0);
  for (std::size_t index = 0; index < 2; ++index) {
    SCOPED_TRACE(index);
    const RadiusReport r = p.radiusOf(index);
    double gridMin = std::numeric_limits<double>::infinity();
    for (double x0 = -4.0; x0 <= 4.0; x0 += h) {
      for (double x1 = -4.0; x1 <= 4.0; x1 += h) {
        if (x0 > 1.0 || -(x0 + x1) > 2.5) {
          continue;  // infeasible: the radius search must ignore it
        }
        const bool violates =
            index == 0 ? (2.0 * x0 + x1 < -3.0)
                       : (3.0 * x0 - x1 + 0.5 > 4.0);
        if (!violates) {
          continue;
        }
        const double dist = std::hypot(x0 - origin[0], x1 - origin[1]);
        gridMin = std::min(gridMin, dist);
      }
    }
    ASSERT_TRUE(std::isfinite(gridMin));
    EXPECT_NEAR(r.radius, gridMin, tol);
    // The engine's boundary point must itself be feasible.
    ASSERT_EQ(r.boundaryPoint.size(), 2u);
    EXPECT_LE(r.boundaryPoint[0], 1.0 + 1e-6);
    EXPECT_GE(r.boundaryPoint[0] + r.boundaryPoint[1], -2.5 - 1e-6);
  }
}

TEST(Constrained, MultiSubspaceUnconstrainedUsesSummedDuals) {
  // Two one-dimensional blocks: the combined displacement ball is the
  // product of per-block balls, so f = 3 s + 1 d <= 4 from (0, 0) first
  // violates at r = gap / (3 + 1) = 1 with both blocks at distance 1.
  ProblemSpec spec;
  spec.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{3.0, 1.0}, 0.0),
      ToleranceBounds::atMost(4.0)});
  spec.subspaces.push_back(l2Subspace("s", num::Vec{0.0}));
  spec.subspaces.push_back(l2Subspace("d", num::Vec{0.0}));
  const CompiledProblem p = CompiledProblem::compile(std::move(spec));
  const RadiusReport r = p.radiusOf(0);
  EXPECT_EQ(r.method, "analytic-multi");
  EXPECT_NEAR(r.radius, 1.0, 1e-12);
  ASSERT_EQ(r.boundaryPoint.size(), 2u);
  EXPECT_NEAR(r.boundaryPoint[0], 1.0, 1e-9);
  EXPECT_NEAR(r.boundaryPoint[1], 1.0, 1e-9);
}

TEST(Constrained, MultiSubspaceRadiusMatchesGridBruteForce) {
  // Blocks: s = (x0, x1) with L2 norm, d = (x2) with L2 norm. Feature
  // f = x0 + 2 x1 + x2 <= 3 from origin (1, 0, 0); hard constraint
  // x0 + x1 <= 1.8 on the s block. Reference: grid over the 3 coordinates,
  // displacement size max(||(dx0, dx1)||_2, |dx2|).
  const num::Vec sOrigin{1.0, 0.0};
  ProblemSpec spec;
  spec.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0, 2.0, 1.0}, 0.0),
      ToleranceBounds::atMost(3.0)});
  spec.subspaces.push_back(l2Subspace("s", sOrigin));
  spec.subspaces.push_back(l2Subspace("d", num::Vec{0.0}));
  spec.constraints.push_back(
      LinearConstraint{"cap", num::Vec{1.0, 1.0, 0.0}, 1.8});
  const CompiledProblem p = CompiledProblem::compile(std::move(spec));

  const RadiusReport r = p.radiusOf(0);
  EXPECT_EQ(r.method, "pocs-bisect");

  const double h = 0.02;
  const double tol = 2.0 * h * std::sqrt(3.0);
  double gridMin = std::numeric_limits<double>::infinity();
  for (double x0 = -2.0; x0 <= 4.0; x0 += h) {
    for (double x1 = -3.0; x1 <= 3.0; x1 += h) {
      if (x0 + x1 > 1.8) {
        continue;
      }
      for (double x2 = -3.0; x2 <= 3.0; x2 += h) {
        if (x0 + 2.0 * x1 + x2 <= 3.0) {
          continue;  // not a violation
        }
        const double sDist =
            std::hypot(x0 - sOrigin[0], x1 - sOrigin[1]);
        const double size = std::max(sDist, std::fabs(x2));
        gridMin = std::min(gridMin, size);
      }
    }
  }
  ASSERT_TRUE(std::isfinite(gridMin));
  EXPECT_NEAR(r.radius, gridMin, tol);
}

TEST(Constrained, InfeasibleOriginIsFirstClass) {
  obs::setEnabled(true);
  obs::resetMetrics();
  ProblemSpec spec;
  spec.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0}, 0.0),
      ToleranceBounds::atMost(10.0)});
  spec.subspaces.push_back(l2Subspace("pi", num::Vec{2.0}));
  spec.constraints.push_back(
      LinearConstraint{"cap", num::Vec{1.0}, 1.0});  // origin 2 > 1
  const CompiledProblem p = CompiledProblem::compile(std::move(spec));

  const RobustnessReport report = p.evaluate();
  EXPECT_TRUE(report.infeasibleOrigin);
  EXPECT_EQ(report.metric, 0.0);
  ASSERT_EQ(report.radii.size(), 1u);
  EXPECT_EQ(report.radii[0].radius, 0.0);
  EXPECT_EQ(report.radii[0].method, "infeasible-origin");
  EXPECT_EQ(p.radiusOf(0).method, "infeasible-origin");

  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  EXPECT_GE(snap.counter("core.feasibility.infeasible_origin"), 2u);
  obs::setEnabled(false);
}

TEST(Constrained, FeasibleOriginReportClearsTheFlag) {
  ProblemSpec spec;
  spec.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0}, 0.0),
      ToleranceBounds::atMost(10.0)});
  spec.subspaces.push_back(l2Subspace("pi", num::Vec{0.5}));
  spec.constraints.push_back(LinearConstraint{"cap", num::Vec{1.0}, 1.0});
  const RobustnessReport report =
      CompiledProblem::compile(std::move(spec)).evaluate();
  EXPECT_FALSE(report.infeasibleOrigin);
  EXPECT_GT(report.metric, 0.0);
}

TEST(Constrained, ClippedCounterOnAndSilentWhenOff) {
  auto makeClippedSpec = [] {
    ProblemSpec spec;
    spec.features.push_back(PerformanceFeature{
        "f", ImpactFunction::affine(num::Vec{1.0, 1.0}, 0.0),
        ToleranceBounds::atMost(2.0)});
    spec.subspaces.push_back(l2Subspace("pi", num::Vec{0.0, 0.0}));
    spec.constraints.push_back(
        LinearConstraint{"cap", num::Vec{0.0, 1.0}, 0.5});
    return spec;
  };

  obs::setEnabled(false);
  obs::resetMetrics();
  (void)CompiledProblem::compile(makeClippedSpec()).evaluate();
  EXPECT_EQ(obs::snapshotMetrics().counter("core.feasibility.clipped"), 0u);

  obs::setEnabled(true);
  obs::resetMetrics();
  (void)CompiledProblem::compile(makeClippedSpec()).evaluate();
  EXPECT_GE(obs::snapshotMetrics().counter("core.feasibility.clipped"), 1u);
  obs::setEnabled(false);
}

TEST(Constrained, BatchMetricFallsBackToFullLaneOnConstrainedSpecs) {
  // Constrained problems leave the kernel metric lane for the screened
  // lane, which solves each row that can bind through evaluate()'s own
  // per-row arithmetic; the batch API must agree exactly with
  // per-instance evaluate().
  ProblemSpec spec;
  spec.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0, 1.0}, 0.0),
      ToleranceBounds::atMost(2.0)});
  spec.features.push_back(PerformanceFeature{
      "g", ImpactFunction::affine(num::Vec{1.0, -1.0}, 0.0),
      ToleranceBounds::atLeast(-2.0)});
  spec.subspaces.push_back(l2Subspace("pi", num::Vec{0.0, 0.0}));
  spec.constraints.push_back(
      LinearConstraint{"cap", num::Vec{0.0, 1.0}, 0.5});
  const CompiledProblem p = CompiledProblem::compile(std::move(spec));

  const std::vector<double> origins{0.0, 0.0, 0.3, -0.2, -0.5, 0.4};
  std::vector<AnalysisInstance> instances(3);
  for (std::size_t i = 0; i < 3; ++i) {
    instances[i].origin =
        std::span<const double>(origins).subspan(i * 2, 2);
  }
  const auto metrics = p.analyzeBatchMetric(instances, 2);
  ASSERT_EQ(metrics.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const RobustnessReport full = p.evaluate(instances[i]);
    EXPECT_EQ(metrics[i].metric, full.metric) << i;
    EXPECT_EQ(metrics[i].bindingFeature, full.bindingFeature) << i;
  }
}

// ------------------------------------------------ screened metric lane
//
// Seeded specs for the screened constrained lane. Five families rotate
// with the seed: one L2 subspace, one weighted-L2 subspace, two subspaces
// (L2 + weighted), a discrete parameter, and an L2 subspace whose origin
// sits near 1e5 with gaps near 1e-3, where the kernel and element-order
// dots round apart by more than the prune margin of the gap. Every spec
// duplicates some rows (exact ties), adds near-tied twins of its nearest
// row, may break a row at the origin, and in half the specs carries a
// constraint aimed at the nearest row's boundary point so the binding row
// is clipped. Instances mix the compiled defaults, perturbed origins,
// constant and scale overrides, far origins and an infeasible origin.
// Without the screen's rounding slack, the near-tied twins of the huge
// family make MetricMatchesEvaluateBitForBit fail, and so do the tied
// twins without its lowest-index tie rule.

enum class ScreenFamily { L2, Weighted, Multi, Discrete, Huge };

struct ScreenCase {
  ScreenFamily family;
  std::optional<CompiledProblem> problem;
  std::vector<std::vector<double>> origins;
  std::vector<std::vector<double>> constants;
  std::vector<std::vector<double>> scales;
  std::vector<AnalysisInstance> instances;
};

ScreenFamily screenFamily(std::uint64_t seed) {
  return static_cast<ScreenFamily>(seed % 5);
}

ScreenCase makeScreenCase(std::uint64_t seed) {
  Pcg32 rng = makeStream(seed, 0x73637265);  // "scre"
  ScreenCase c;
  c.family = screenFamily(seed);
  const bool huge = c.family == ScreenFamily::Huge;
  // The huge family runs longer dots, whose two summation orders round
  // apart more often.
  const std::size_t dim = huge ? 12 + rng.nextBounded(20) : 3 + rng.nextBounded(6);
  const std::size_t distinct =
      c.family == ScreenFamily::Multi ? 2 + rng.nextBounded(2)
                                      : 5 + rng.nextBounded(8);
  // Discrete radii span several integers so the floor is not always 0.
  const double unit = c.family == ScreenFamily::Discrete ? 10.0 : 1.0;
  const double gapLo = huge ? 1e-4 : 0.2 * unit;
  const double gapHi = huge ? 1e-2 : 3.0 * unit;
  const double jitter = huge ? 2e-5 : 0.02 * unit;

  // The huge family's origins have equal components, so rows whose
  // weights are permutations of each other have exactly equal values.
  num::Vec origin(dim);
  for (double& v : origin) {
    v = huge ? 1e5 + 0.75 : rng.uniform(0.5, 1.5);
  }
  num::Vec weightsOfNorm(dim, 1.0);
  ProblemSpec spec;
  if (c.family == ScreenFamily::Multi) {
    const std::size_t split = 1 + rng.nextBounded(
                                      static_cast<std::uint32_t>(dim - 1));
    PerturbationSubspace a = l2Subspace(
        "a", num::Vec(origin.begin(),
                      origin.begin() + static_cast<std::ptrdiff_t>(split)));
    PerturbationSubspace b;
    b.name = "b";
    b.origin.assign(origin.begin() + static_cast<std::ptrdiff_t>(split),
                    origin.end());
    b.norm = static_cast<int>(NormKind::Weighted);
    for (std::size_t k = split; k < dim; ++k) {
      weightsOfNorm[k] = rng.uniform(0.25, 4.0);
      b.normWeights.push_back(weightsOfNorm[k]);
    }
    spec.subspaces.push_back(std::move(a));
    spec.subspaces.push_back(std::move(b));
  } else {
    PerturbationSubspace sub = l2Subspace("pi", origin);
    if (c.family == ScreenFamily::Weighted) {
      sub.norm = static_cast<int>(NormKind::Weighted);
      for (double& w : weightsOfNorm) {
        w = rng.uniform(0.25, 4.0);
      }
      sub.normWeights = weightsOfNorm;
    }
    sub.discrete = c.family == ScreenFamily::Discrete;
    spec.subspaces.push_back(std::move(sub));
  }

  // Rows, and the boundary displacement of the nearest one (Euclidean in
  // the norm's own scaling; good enough to aim a clipping constraint).
  num::Vec nearestStep;
  double nearest = std::numeric_limits<double>::infinity();
  std::size_t nearestRow = distinct;
  const std::size_t broken =
      rng.nextBounded(6) == 0
          ? rng.nextBounded(static_cast<std::uint32_t>(distinct))
          : distinct;
  for (std::size_t r = 0; r < distinct; ++r) {
    num::Vec w(dim);
    for (double& v : w) {
      v = huge ? rng.uniform(0.5, 1.5) : rng.uniform(-1.0, 2.0);
    }
    double atOrigin = 0.0;
    double dual = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      atOrigin += w[k] * origin[k];
      dual += w[k] * w[k] / weightsOfNorm[k];
    }
    const double up = rng.uniform(gapLo, gapHi);
    const double down = rng.uniform(gapLo, gapHi);
    ToleranceBounds bounds;
    double gap = up;
    double sign = 1.0;
    switch (rng.nextBounded(3)) {
      case 0:
        bounds = ToleranceBounds::atMost(atOrigin + up);
        break;
      case 1:
        bounds = ToleranceBounds::atLeast(atOrigin - down);
        gap = down;
        sign = -1.0;
        break;
      default:
        bounds = ToleranceBounds::between(atOrigin - down, atOrigin + up);
        if (down < up) {
          gap = down;
          sign = -1.0;
        }
        break;
    }
    if (r == broken) {
      bounds = ToleranceBounds::atMost(atOrigin - down);  // broken at origin
    } else if (gap / std::sqrt(dual) < nearest) {
      nearest = gap / std::sqrt(dual);
      nearestRow = r;
      nearestStep.assign(dim, 0.0);
      for (std::size_t k = 0; k < dim; ++k) {
        nearestStep[k] = sign * gap / dual * w[k] / weightsOfNorm[k];
      }
    }
    spec.features.push_back(PerformanceFeature{
        "F_" + std::to_string(r), ImpactFunction::affine(std::move(w)),
        bounds});
  }
  const std::size_t copies = 1 + rng.nextBounded(3);
  for (std::size_t d = 0; d < copies; ++d) {
    PerformanceFeature twin = spec.features[rng.nextBounded(
        static_cast<std::uint32_t>(distinct))];
    twin.name += "'";
    spec.features.push_back(std::move(twin));
  }
  // Permuted twins of the nearest row: equal radii in exact arithmetic
  // at the huge family's origins, apart by the rounding of each dot order,
  // which at that magnitude exceeds the prune margin of the gap.
  if (huge && nearestRow < distinct) {
    for (int t = 0; t < 6; ++t) {
      PerformanceFeature twin = spec.features[nearestRow];
      num::Vec w = twin.impact.weights();
      for (std::size_t k = w.size(); k > 1; --k) {
        std::swap(w[k - 1],
                  w[rng.nextBounded(static_cast<std::uint32_t>(k))]);
      }
      twin.impact = ImpactFunction::affine(std::move(w));
      twin.name += "#" + std::to_string(t);
      spec.features.push_back(std::move(twin));
    }
  }
  // Near-tie twins of the nearest row: the same weights plus a large
  // constant c, with every level moved by c + tau, so the twin's gap is
  // the row's gap + tau at every origin. tau lies inside the rounding
  // noise of the kernel and element-order arithmetic, so which of the two
  // binds is decided by rounding the screen must not get wrong.
  if (nearestRow < distinct && c.family != ScreenFamily::Multi) {
    const PerformanceFeature base = spec.features[nearestRow];
    for (int t = 0; t < 2; ++t) {
      const double constant = rng.uniform(1e5, 1e6);
      const double shift = constant + rng.uniform(-4e-10, 4e-10);
      ToleranceBounds bounds = base.bounds;
      if (bounds.min) {
        *bounds.min += shift;
      }
      if (bounds.max) {
        *bounds.max += shift;
      }
      spec.features.push_back(PerformanceFeature{
          base.name + "~" + std::to_string(t),
          ImpactFunction::affine(base.impact.weights(), constant), bounds});
    }
  }

  // In half the specs, a constraint the nearest row's boundary point
  // breaks by half its step; then up to two loose random ones.
  if (!nearestStep.empty() && rng.nextBounded(2) == 0) {
    LinearConstraint clip{"clip", num::Vec(dim), 0.0};
    double along = 0.0;
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      clip.coeffs[k] = nearestStep[k] / nearest + rng.uniform(-0.3, 0.3);
      along += clip.coeffs[k] * nearestStep[k];
      atOrigin += clip.coeffs[k] * origin[k];
    }
    clip.bound = atOrigin + 0.5 * std::fabs(along);
    spec.constraints.push_back(std::move(clip));
  }
  const std::size_t loose = 1 + rng.nextBounded(2);
  for (std::size_t j = 0; j < loose; ++j) {
    LinearConstraint cap{"cap" + std::to_string(j), num::Vec(dim), 0.0};
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      cap.coeffs[k] = rng.uniform(-1.0, 1.0);
      atOrigin += cap.coeffs[k] * origin[k];
    }
    cap.bound = atOrigin + rng.uniform(1.0, 4.0) * (huge ? 1e-2 : unit);
    spec.constraints.push_back(std::move(cap));
  }
  const LinearConstraint first = spec.constraints.front();
  const std::size_t features = spec.features.size();
  c.problem.emplace(CompiledProblem::compile(std::move(spec)));

  const std::size_t count = c.family == ScreenFamily::Multi ? 4 : 9;
  c.origins.resize(count);
  c.constants.resize(count);
  c.scales.resize(count);
  for (std::size_t i = 1; i < count; ++i) {
    num::Vec& x = c.origins[i];
    x = origin;
    const double spread = i % 4 == 3 ? 6.0 * jitter : jitter;
    // The huge family moves every component alike, keeping the permuted
    // twins tied.
    const double shift = rng.uniform(-spread, spread);
    for (double& v : x) {
      v += huge ? shift : rng.uniform(-spread, spread);
    }
    if (i == count - 1) {
      // Past the first constraint along its normal: infeasible origin.
      double atOrigin = 0.0;
      double n2 = 0.0;
      for (std::size_t k = 0; k < dim; ++k) {
        atOrigin += first.coeffs[k] * x[k];
        n2 += first.coeffs[k] * first.coeffs[k];
      }
      const double step = (first.bound - atOrigin) / n2 + 1.0;
      for (std::size_t k = 0; k < dim; ++k) {
        x[k] += step * first.coeffs[k];
      }
    }
    if (i % 4 == 2) {
      for (std::size_t f = 0; f < features; ++f) {
        c.constants[i].push_back(
            c.problem->features()[f].impact.constant() +
            rng.uniform(-gapLo, gapLo));
        c.scales[i].push_back(rng.uniform(0.5, 2.0));
      }
    }
  }
  c.instances.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    c.instances[i] = AnalysisInstance{c.origins[i], c.constants[i],
                                      c.scales[i]};
  }
  return c;
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

constexpr std::uint64_t kScreenSeeds = 60;

/// A clipped multi-subspace row costs milliseconds (pocs-bisect), so the
/// differential runs that family on its first four seeds only, and the
/// thread-count test, which ThreadSanitizer runs, not at all; the screen
/// and its per-participant buffers are the same for every family.
bool screenSeedRuns(std::uint64_t seed, std::uint64_t multiSeeds) {
  return screenFamily(seed) != ScreenFamily::Multi || seed < 5 * multiSeeds;
}

TEST(ConstrainedScreen, MetricMatchesEvaluateBitForBit) {
  obs::setEnabled(true);
  obs::resetMetrics();
  std::size_t clippedBinding = 0;
  std::size_t brokenAtOrigin = 0;
  std::size_t infeasible = 0;
  std::size_t floored = 0;
  for (std::uint64_t seed = 0; seed < kScreenSeeds; ++seed) {
    if (!screenSeedRuns(seed, 4)) {
      continue;
    }
    const ScreenCase c = makeScreenCase(seed);
    MetricWorkspace ws;
    for (std::size_t i = 0; i < c.instances.size(); ++i) {
      const RobustnessReport full = c.problem->evaluate(c.instances[i]);
      for (const bool prune : {true, false}) {
        const MetricResult m =
            c.problem->evaluateMetric(c.instances[i], ws, prune);
        EXPECT_TRUE(sameBits(m.metric, full.metric))
            << "seed " << seed << " instance " << i << " prune " << prune
            << ": " << m.metric << " vs " << full.metric;
        EXPECT_EQ(m.bindingFeature, full.bindingFeature)
            << "seed " << seed << " instance " << i << " prune " << prune;
        EXPECT_EQ(m.floored, full.floored)
            << "seed " << seed << " instance " << i << " prune " << prune;
      }
      infeasible += full.infeasibleOrigin ? 1 : 0;
      floored += full.floored ? 1 : 0;
      const std::string& method = full.radii[full.bindingFeature].method;
      brokenAtOrigin += method == "violated-at-origin" ? 1 : 0;
      if (method == "dykstra-clip" || method == "pocs-bisect") {
        ++clippedBinding;
      }
    }
  }
  // The generator reaches every case it is written for.
  EXPECT_GT(clippedBinding, 20u);
  EXPECT_GT(brokenAtOrigin, 0u);
  EXPECT_GE(infeasible, kScreenSeeds);
  EXPECT_GT(floored, 0u);
  EXPECT_GT(obs::snapshotMetrics().counter("core.prune.rows_skipped"), 0u);
  obs::setEnabled(false);
}

TEST(ConstrainedScreen, BatchMetricMatchesEvaluateAcrossThreadCounts) {
  for (std::uint64_t seed = 0; seed < kScreenSeeds; seed += 2) {
    if (!screenSeedRuns(seed, 0)) {
      continue;
    }
    const ScreenCase c = makeScreenCase(seed);
    std::vector<RobustnessReport> full;
    for (const AnalysisInstance& inst : c.instances) {
      full.push_back(c.problem->evaluate(inst));
    }
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const std::vector<MetricResult> batch =
          c.problem->analyzeBatchMetric(c.instances, threads);
      ASSERT_EQ(batch.size(), full.size());
      for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_TRUE(sameBits(batch[i].metric, full[i].metric))
            << "seed " << seed << " threads " << threads << " instance " << i;
        EXPECT_EQ(batch[i].bindingFeature, full[i].bindingFeature)
            << "seed " << seed << " threads " << threads << " instance " << i;
        EXPECT_EQ(batch[i].floored, full[i].floored);
      }
    }
  }
}

}  // namespace

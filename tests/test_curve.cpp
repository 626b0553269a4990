// The degradation-curve engine's contract suite.
//
// The heart is the bit-identity grid: the curve's per-sample critical
// radii must come out bit-for-bit identical across thread counts, shard
// sizes, SIMD dispatch targets, and the pruned vs unpruned row loop —
// each sample is a pure function of its counter-based substream. Around
// it: the closed-form radii differentially pinned against bisection on
// the spec's own violation predicate, the empirical CDF against a brute
// radius grid, the fallback lane for constrained / discrete / callable
// specs, the band math against hand-checked references, frozen hexfloat
// bits and a binomial-tail oracle, and the online drift tracker
// (incremental rho, obs-pinned no-re-analyze streaming, threshold
// crossings, the Lipschitz bracket).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/core/impact.hpp"
#include "robust/core/stream.hpp"
#include "robust/curve/bands.hpp"
#include "robust/curve/curve.hpp"
#include "robust/curve/drift.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/random/distributions.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"

namespace {

using namespace robust;
using namespace robust::core;
using namespace robust::curve;

constexpr double kInf = std::numeric_limits<double>::infinity();

bool bitEq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool radiiBitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bitEq(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

/// Affine spec with mixed-sign weights and a mix of one- and two-sided
/// bounds, so both the gapMax (positive slope) and gapMin (negative
/// slope) crossings carry weight.
CompiledProblem curveProblem(std::size_t rows, std::size_t dims,
                             NormKind norm = NormKind::L2) {
  Pcg32 rng(11);
  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin.resize(dims);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(0.5, 1.5);
  }
  spec.options.norm = norm;
  if (norm == NormKind::Weighted) {
    spec.options.normWeights.resize(dims);
    for (double& w : spec.options.normWeights) {
      w = rng.uniform(0.25, 4.0);
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    num::Vec weights(dims);
    for (double& w : weights) {
      w = rng.uniform(-1.0, 2.0);
    }
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < dims; ++k) {
      atOrigin += weights[k] * spec.parameter.origin[k];
    }
    const double slackLo = rng.uniform(0.5, 6.0);
    const double slackHi = rng.uniform(0.5, 6.0);
    ToleranceBounds bounds =
        r % 3 == 0 ? ToleranceBounds::atMost(atOrigin + slackHi)
                   : ToleranceBounds::between(atOrigin - slackLo,
                                              atOrigin + slackHi);
    spec.features.push_back(PerformanceFeature{
        "F_" + std::to_string(r), ImpactFunction::affine(std::move(weights)),
        bounds});
  }
  return CompiledProblem::compile(std::move(spec));
}

/// Regenerates sample i's unit direction exactly as the engine documents:
/// standard-normal pairs from makeStream(seed, kCurveStreamFamily, i),
/// normalized under the problem's displacement norm.
std::vector<double> sampleDirectionReference(const CompiledProblem& problem,
                                             std::uint64_t seed,
                                             std::size_t sample) {
  std::vector<double> u(problem.dimension());
  Pcg32 rng = makeStream(seed, kCurveStreamFamily, sample);
  std::size_t k = 0;
  while (k + 1 < u.size()) {
    rnd::standardNormalPair(rng, u[k], u[k + 1]);
    k += 2;
  }
  if (k < u.size()) {
    double z0 = 0.0;
    double z1 = 0.0;
    rnd::standardNormalPair(rng, z0, z1);
    u[k] = z0;
  }
  const double norm = problem.displacementNorm(u);
  for (double& v : u) {
    v /= norm;
  }
  return u;
}

/// True when some feature value at `x` violates its tolerance bounds,
/// through the spec's own impact functions (the independent oracle).
bool violatesAt(const CompiledProblem& problem, std::span<const double> x) {
  for (const auto& f : problem.features()) {
    if (!f.bounds.contains(f.impact.evaluate(x))) {
      return true;
    }
  }
  return false;
}

/// Brute-force critical radius along `u`: doubling bracket + deep
/// bisection against the violation oracle. Converges to ~1e-12 relative.
double criticalRadiusReference(const CompiledProblem& problem,
                               std::span<const double> u) {
  const auto& origin = problem.parameter().origin;
  std::vector<double> point(origin.size());
  auto viol = [&](double r) {
    for (std::size_t k = 0; k < origin.size(); ++k) {
      point[k] = origin[k] + r * u[k];
    }
    return violatesAt(problem, point);
  };
  if (viol(0.0)) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = 1e-3;
  bool found = false;
  for (int i = 0; i < 120; ++i) {
    if (viol(hi)) {
      found = true;
      break;
    }
    lo = hi;
    hi *= 2.0;
  }
  if (!found) {
    return kInf;
  }
  for (int i = 0; i < 120; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (viol(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

class ObsGuard {
 public:
  ObsGuard() {
    obs::setEnabled(true);
    obs::resetMetrics();
  }
  ~ObsGuard() {
    obs::resetMetrics();
    obs::setEnabled(false);
  }
};

// ----------------------------------------------------------- determinism

TEST(CurveBits, PinnedAcrossThreadsShardsAndSimd) {
  const CompiledProblem problem = curveProblem(48, 16);
  CurveOptions base;
  base.samples = 4096;
  base.seed = 77;
  base.threads = 1;
  base.shardSamples = 512;
  const CurveResult reference = computeCurve(problem, base);
  ASSERT_EQ(reference.radii.size(), base.samples);
  EXPECT_TRUE(reference.fastLane);

  for (std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t shard : {64u, 1000u, 4096u}) {
      CurveOptions o = base;
      o.threads = threads;
      o.shardSamples = shard;
      const CurveResult got = computeCurve(problem, o);
      EXPECT_TRUE(radiiBitEqual(reference.radii, got.radii))
          << "threads=" << threads << " shard=" << shard;
    }
  }

  // Pruning must be a pure skip-of-losers: identical bits with it off.
  CurveOptions unpruned = base;
  unpruned.prune = false;
  EXPECT_TRUE(radiiBitEqual(reference.radii,
                            computeCurve(problem, unpruned).radii));

  // Dispatch targets agree bit for bit (scalar always; AVX2 when present).
  const num::simd::Target saved = num::simd::activeTarget();
  num::simd::setTarget(num::simd::Target::Scalar);
  const CurveResult scalar = computeCurve(problem, base);
  EXPECT_TRUE(radiiBitEqual(reference.radii, scalar.radii));
  if (num::simd::avx2Available()) {
    num::simd::setTarget(num::simd::Target::Avx2);
    const CurveResult avx2 = computeCurve(problem, base);
    EXPECT_TRUE(radiiBitEqual(scalar.radii, avx2.radii));
  }
  num::simd::setTarget(saved);
}

// ------------------------------------------------- closed-form vs oracle

TEST(Curve, ClosedFormRadiusMatchesViolationOracle) {
  const CompiledProblem problem = curveProblem(12, 6);
  CurveOptions o;
  o.samples = 64;
  o.seed = 5;
  o.threads = 1;
  const CurveResult result = computeCurve(problem, o);

  std::vector<double> reference(o.samples);
  for (std::size_t i = 0; i < o.samples; ++i) {
    const std::vector<double> u =
        sampleDirectionReference(problem, o.seed, i);
    reference[i] = criticalRadiusReference(problem, u);
  }
  std::sort(reference.begin(), reference.end());
  ASSERT_EQ(result.radii.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (std::isinf(reference[i])) {
      EXPECT_TRUE(std::isinf(result.radii[i]));
    } else {
      EXPECT_NEAR(result.radii[i], reference[i],
                  1e-12 * std::max(1.0, reference[i]))
          << "sorted index " << i;
    }
  }

  // Every critical radius is floored by rho (Hoelder: no unit direction
  // beats the worst-case distance to the violating region).
  EXPECT_GE(result.radii.front(), result.rho * (1.0 - 1e-12));
  const MetricResult rho = problem.evaluateMetric();
  EXPECT_TRUE(bitEq(result.rho, rho.metric));
}

TEST(Curve, EmpiricalCdfMatchesBruteForceRadiusGrid) {
  const CompiledProblem problem = curveProblem(10, 5);
  CurveOptions o;
  o.samples = 400;
  o.seed = 9;
  o.threads = 1;
  const CurveResult result = computeCurve(problem, o);
  ASSERT_GT(result.finiteRadii, 0u);

  // Probe at midpoints between consecutive sorted radii — away from any
  // critical radius, the closed-form count and a brute per-radius scan of
  // the violation oracle must agree exactly.
  for (std::size_t q = 1; q < 8; ++q) {
    const std::size_t idx = q * result.finiteRadii / 8;
    if (idx + 1 >= result.finiteRadii) {
      continue;
    }
    const double r = 0.5 * (result.radii[idx] + result.radii[idx + 1]);
    std::size_t violating = 0;
    std::vector<double> point(problem.dimension());
    for (std::size_t i = 0; i < o.samples; ++i) {
      const std::vector<double> u =
          sampleDirectionReference(problem, o.seed, i);
      for (std::size_t k = 0; k < point.size(); ++k) {
        point[k] = problem.parameter().origin[k] + r * u[k];
      }
      if (violatesAt(problem, point)) {
        ++violating;
      }
    }
    EXPECT_DOUBLE_EQ(result.probabilityAt(r),
                     static_cast<double>(violating) /
                         static_cast<double>(o.samples))
        << "probe radius " << r;
  }
}

TEST(Curve, ReportInvariantsHold) {
  const CompiledProblem problem = curveProblem(20, 8, NormKind::Weighted);
  CurveOptions o;
  o.samples = 2000;
  o.gridPoints = 16;
  const CurveResult result = computeCurve(problem, o);

  EXPECT_TRUE(result.fastLane);
  EXPECT_EQ(result.samples, o.samples);
  EXPECT_TRUE(std::is_sorted(result.radii.begin(), result.radii.end()));
  EXPECT_NEAR(result.dkwEpsilon, dkwEpsilon(o.samples, o.confidence), 0.0);
  ASSERT_FALSE(result.points.empty());
  ASSERT_LE(result.points.size(), o.gridPoints);
  double prevRadius = -kInf;
  double prevProb = -1.0;
  for (const CurvePoint& p : result.points) {
    EXPECT_GT(p.radius, prevRadius);
    EXPECT_GE(p.probability, prevProb);
    EXPECT_LE(p.lower, p.probability);
    EXPECT_GE(p.upper, p.probability);
    prevRadius = p.radius;
    prevProb = p.probability;
    EXPECT_DOUBLE_EQ(p.probability, result.probabilityAt(p.radius));
  }

  // The inverse lookups agree with the forward CDF.
  const double median = result.radiusAtProbability(0.5);
  EXPECT_GE(result.probabilityAt(median), 0.5);
  EXPECT_GE(result.radiusAtProbability(1.0), median);

  // The serialized section parses the shape report_check validates.
  const std::string json = curveSectionJson(result);
  EXPECT_NE(json.find("\"schema\": \"robust.curve\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"points\": ["), std::string::npos);
}

// ------------------------------------------------------------- fallback

TEST(CurveFallback, ConstrainedSpecUsesFullLaneDeterministically) {
  ProblemSpec spec;
  spec.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0, 1.0}, 0.0),
      ToleranceBounds::atMost(2.0)});
  PerturbationSubspace sub;
  sub.name = "pi";
  sub.origin = num::Vec{0.0, 0.0};
  sub.norm = static_cast<int>(NormKind::L2);
  spec.subspaces.push_back(sub);
  spec.constraints.push_back(LinearConstraint{"cap", num::Vec{0.0, 1.0}, 0.5});
  const CompiledProblem problem = CompiledProblem::compile(std::move(spec));

  CurveOptions o;
  o.samples = 256;
  o.threads = 1;
  const CurveResult serial = computeCurve(problem, o);
  EXPECT_FALSE(serial.fastLane);
  o.threads = 4;
  o.shardSamples = 32;
  EXPECT_TRUE(radiiBitEqual(serial.radii, computeCurve(problem, o).radii));

  // Constrained rho clips upward; every per-direction radius floors on it.
  const double rho = problem.evaluateMetric().metric;
  EXPECT_GE(serial.radii.front(), rho * (1.0 - 1e-9));
}

TEST(CurveFallback, DiscreteSpecFloorsRadii) {
  Pcg32 rng(3);
  ProblemSpec spec;
  spec.parameter.origin = num::Vec{2.0, 3.0, 1.0};
  spec.parameter.discrete = true;
  for (std::size_t r = 0; r < 4; ++r) {
    num::Vec w{rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0),
               rng.uniform(0.2, 1.0)};
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < 3; ++k) {
      atOrigin += w[k] * spec.parameter.origin[k];
    }
    spec.features.push_back(PerformanceFeature{
        "F_" + std::to_string(r), ImpactFunction::affine(std::move(w)),
        ToleranceBounds::atMost(atOrigin + 2.0 + static_cast<double>(r))});
  }
  const CompiledProblem problem = CompiledProblem::compile(std::move(spec));

  CurveOptions o;
  o.samples = 200;
  o.threads = 1;
  const CurveResult result = computeCurve(problem, o);
  EXPECT_FALSE(result.fastLane);
  const double rho = problem.evaluateMetric().metric;
  for (std::size_t i = 0; i < result.finiteRadii; ++i) {
    EXPECT_TRUE(bitEq(result.radii[i], std::floor(result.radii[i])))
        << "unfloored discrete radius at " << i;
  }
  EXPECT_GE(result.radii.front(), rho);
  o.threads = 4;
  EXPECT_TRUE(radiiBitEqual(result.radii, computeCurve(problem, o).radii));
}

TEST(CurveFallback, CallableSpecIsPinnedAgainstItsOwnOracle) {
  ProblemSpec spec;
  spec.parameter.origin = num::Vec{1.0, 1.0};
  spec.features.push_back(PerformanceFeature{
      "quad",
      ImpactFunction::callable([](std::span<const double> x) {
        return x[0] * x[0] + x[1];
      }),
      ToleranceBounds::atMost(6.0)});
  const CompiledProblem problem = CompiledProblem::compile(std::move(spec));

  CurveOptions o;
  o.samples = 64;
  o.seed = 21;
  o.threads = 1;
  const CurveResult result = computeCurve(problem, o);
  EXPECT_FALSE(result.fastLane);

  std::vector<double> reference(o.samples);
  for (std::size_t i = 0; i < o.samples; ++i) {
    const std::vector<double> u =
        sampleDirectionReference(problem, o.seed, i);
    reference[i] = criticalRadiusReference(problem, u);
  }
  std::sort(reference.begin(), reference.end());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (std::isinf(reference[i])) {
      EXPECT_TRUE(std::isinf(result.radii[i]));
    } else {
      EXPECT_NEAR(result.radii[i], reference[i],
                  1e-9 * std::max(1.0, reference[i]));
    }
  }
  o.threads = 3;
  EXPECT_TRUE(radiiBitEqual(result.radii, computeCurve(problem, o).radii));
}

TEST(CurveFallback, ConstrainedRayStopsAtFeasibleExtent) {
  // f = x0 <= 3 under the hard constraint x0 <= 3.5, from the origin: a
  // direction with u0 > 0 violates on the window (3/u0, 3.5/u0] and never
  // past it (the point leaves the feasible region), so its critical radius
  // is 3/u0; every other direction never violates.
  ProblemSpec spec;
  spec.parameter.origin = num::Vec{0.0, 0.0};
  spec.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0, 0.0}, 0.0),
      ToleranceBounds::atMost(3.0)});
  spec.constraints.push_back(LinearConstraint{"cap", num::Vec{1.0, 0.0}, 3.5});
  const CompiledProblem problem = CompiledProblem::compile(std::move(spec));

  CurveOptions o;
  o.samples = 4096;
  o.threads = 1;
  const CurveResult result = computeCurve(problem, o);
  EXPECT_FALSE(result.fastLane);

  std::vector<double> reference(o.samples);
  std::size_t forward = 0;
  for (std::size_t i = 0; i < o.samples; ++i) {
    const double u0 = sampleDirectionReference(problem, o.seed, i)[0];
    reference[i] = u0 > 0.0 ? 3.0 / u0 : kInf;
    forward += u0 > 0.0 ? 1 : 0;
  }
  std::sort(reference.begin(), reference.end());
  EXPECT_EQ(result.finiteRadii, forward);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (std::isinf(reference[i])) {
      EXPECT_TRUE(std::isinf(result.radii[i])) << "sorted index " << i;
    } else {
      EXPECT_NEAR(result.radii[i], reference[i], 1e-9 * reference[i])
          << "sorted index " << i;
    }
  }

  // P(violation | r = 3.4) = 2 acos(3 / 3.4) / (2 pi) on the unit circle.
  const double exact = std::acos(3.0 / 3.4) / std::acos(-1.0);
  EXPECT_NEAR(result.probabilityAt(3.4), exact, result.dkwEpsilon);
}

/// An all-affine spec off the closed-form lane: curveProblem's rows plus,
/// when `constraints`, two capacity rows that cut most rays short of their
/// crossing, and a discrete parameter when `discrete`.
CompiledProblem fallbackProblem(std::size_t rows, std::size_t dims,
                                bool constraints, bool discrete,
                                std::uint64_t seed) {
  Pcg32 rng(seed);
  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.discrete = discrete;
  spec.parameter.origin.resize(dims);
  const double unit = discrete ? 8.0 : 1.0;  // radii span several integers
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(0.5, 1.5) * unit;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    num::Vec weights(dims);
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < dims; ++k) {
      weights[k] = rng.uniform(-1.0, 2.0);
      atOrigin += weights[k] * spec.parameter.origin[k];
    }
    const double constant = rng.uniform(-1.0, 1.0);
    atOrigin += constant;
    const double lo = atOrigin - rng.uniform(0.5, 6.0) * unit;
    const double hi = atOrigin + rng.uniform(0.5, 6.0) * unit;
    spec.features.push_back(PerformanceFeature{
        "F_" + std::to_string(r),
        ImpactFunction::affine(std::move(weights), constant),
        r % 3 == 0 ? ToleranceBounds::atMost(hi)
                   : ToleranceBounds::between(lo, hi)});
  }
  for (std::size_t j = 0; constraints && j < 2; ++j) {
    LinearConstraint cap{"cap" + std::to_string(j), num::Vec(dims), 0.0};
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < dims; ++k) {
      cap.coeffs[k] = rng.uniform(-1.0, 1.0);
      atOrigin += cap.coeffs[k] * spec.parameter.origin[k];
    }
    cap.bound = atOrigin + rng.uniform(0.5, 2.0);
    spec.constraints.push_back(std::move(cap));
  }
  return CompiledProblem::compile(std::move(spec));
}

/// The exact critical radius along `u` for an all-affine spec, with no
/// bisection: the first tolerance crossing min(gap / slope) when it lies
/// inside the ray's feasible extent, +inf when the ray leaves the
/// feasible region first, 0 when a bound is broken at the origin.
double lineOracle(const CompiledProblem& problem, std::span<const double> u) {
  const auto& origin = problem.parameter().origin;
  auto dot = [](std::span<const double> a, std::span<const double> b) {
    double s = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      s += a[k] * b[k];
    }
    return s;
  };
  double crossing = kInf;
  for (const auto& f : problem.features()) {
    const double value =
        dot(f.impact.weights(), origin) + f.impact.constant();
    if (!f.bounds.contains(value)) {
      return 0.0;
    }
    const double slope = dot(f.impact.weights(), u);
    if (slope > 0.0 && f.bounds.max) {
      crossing = std::min(crossing, (*f.bounds.max - value) / slope);
    } else if (slope < 0.0 && f.bounds.min) {
      crossing = std::min(crossing, (*f.bounds.min - value) / slope);
    }
  }
  double extent = kInf;
  for (const auto& c : problem.constraints()) {
    const double slope = dot(c.coeffs, u);
    if (slope > 0.0) {
      extent = std::min(extent, (c.bound - dot(c.coeffs, origin)) / slope);
    }
  }
  return crossing <= extent ? crossing : kInf;
}

TEST(CurveFallback, RayFormRadiiMatchTheLineOracle) {
  struct Case {
    bool constraints;
    bool discrete;
  };
  for (const Case k : {Case{true, false}, Case{false, true},
                       Case{true, true}}) {
    const CompiledProblem problem =
        fallbackProblem(24, 6, k.constraints, k.discrete, 13);
    CurveOptions o;
    o.samples = 512;
    o.seed = 4;
    o.threads = 2;
    o.shardSamples = 64;
    const CurveResult result = computeCurve(problem, o);
    ASSERT_FALSE(result.fastLane);

    std::vector<double> reference(o.samples);
    for (std::size_t i = 0; i < o.samples; ++i) {
      const double r =
          lineOracle(problem, sampleDirectionReference(problem, o.seed, i));
      reference[i] = k.discrete ? std::floor(r) : r;
    }
    std::sort(reference.begin(), reference.end());
    std::size_t finite = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (std::isinf(reference[i])) {
        EXPECT_TRUE(std::isinf(result.radii[i])) << "sorted index " << i;
      } else if (k.discrete) {
        ++finite;
        EXPECT_EQ(result.radii[i], reference[i]) << "sorted index " << i;
      } else {
        ++finite;
        EXPECT_NEAR(result.radii[i], reference[i], 1e-12 * reference[i])
            << "sorted index " << i;
      }
    }
    EXPECT_EQ(result.finiteRadii, finite);
    // Both outcomes occur: crossings inside the extent, and (constrained)
    // rays that leave the feasible region first.
    EXPECT_GT(finite, o.samples / 8);
    if (k.constraints) {
      EXPECT_LT(finite, o.samples);
    }
  }
}

TEST(CurveFallback, CountsProbesAndStopsAtUlpAdjacency) {
  // Each finite sample's bisection ends once lo and hi are adjacent
  // doubles, about 50 halvings from a bracket of width ~rho, where the
  // fixed loop ran 100.
  const CompiledProblem problem = fallbackProblem(24, 6, false, true, 13);
  CurveOptions o;
  o.samples = 256;
  o.threads = 1;
  ObsGuard guard;
  const CurveResult result = computeCurve(problem, o);
  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  ASSERT_EQ(snap.counter("curve.fallback_samples"), o.samples);
  EXPECT_EQ(result.finiteRadii, o.samples);
  const double perSample =
      static_cast<double>(snap.counter("num.bisect_iterations")) /
      static_cast<double>(o.samples);
  EXPECT_GT(perSample, 45.0);
  EXPECT_LT(perSample, 70.0);
}

TEST(CurveFallback, RayFormAgreesWithViolatesOffTheBoundary) {
  // An affine constrained spec, and an unconstrained one with a callable
  // feature (constraints require affine features), from the compiled
  // origin and from a moved one.
  ProblemSpec withCallable;
  withCallable.parameter.origin = num::Vec{1.0, 1.0, 0.5};
  withCallable.features.push_back(PerformanceFeature{
      "quad",
      ImpactFunction::callable([](std::span<const double> x) {
        return x[0] * x[0] + x[1] - x[2];
      }),
      ToleranceBounds::atMost(4.0)});
  withCallable.features.push_back(PerformanceFeature{
      "lin", ImpactFunction::affine(num::Vec{0.5, -1.0, 2.0}, 0.25),
      ToleranceBounds::between(-2.0, 3.0)});
  const CompiledProblem problems[] = {
      fallbackProblem(16, 5, true, false, 17),
      CompiledProblem::compile(std::move(withCallable))};

  Pcg32 rng(23);
  for (const CompiledProblem& problem : problems) {
    const std::size_t dim = problem.dimension();
    std::size_t violating = 0;
    std::size_t clear = 0;
    RayForm ray;
    std::vector<double> origin(dim);
    std::vector<double> u(dim);
    std::vector<double> x(dim);
    for (int t = 0; t < 4000; ++t) {
      if (t % 500 == 0) {
        for (std::size_t k = 0; k < dim; ++k) {
          origin[k] = problem.parameter().origin[k] +
                      (t == 0 ? 0.0 : rng.uniform(-0.2, 0.2));
        }
        problem.setRayOrigin(origin, ray);
      }
      for (std::size_t k = 0; k + 1 < dim; k += 2) {
        rnd::standardNormalPair(rng, u[k], u[k + 1]);
      }
      u[dim - 1] = rng.uniform(-1.0, 1.0);
      problem.setRayDirection(u, ray);
      const double r = rng.uniform(0.0, 4.0);
      for (std::size_t k = 0; k < dim; ++k) {
        x[k] = origin[k] + r * u[k];
      }
      // Off the boundary: every level and capacity is clearly apart.
      bool near = false;
      for (const auto& f : problem.features()) {
        const double v = f.impact.evaluate(x);
        for (const auto& level : {f.bounds.min, f.bounds.max}) {
          near = near ||
                 (level && std::fabs(v - *level) <=
                               1e-9 * (1.0 + std::fabs(*level)));
        }
      }
      for (const auto& c : problem.constraints()) {
        double v = 0.0;
        for (std::size_t k = 0; k < dim; ++k) {
          v += c.coeffs[k] * x[k];
        }
        near = near || std::fabs(v - c.bound) <= 1e-9 * (1.0 + std::fabs(c.bound));
      }
      if (near) {
        continue;
      }
      const bool expected = problem.violates(x);
      EXPECT_EQ(problem.violatesOnRay(ray, r), expected)
          << "trial " << t << " r " << r;
      (expected ? violating : clear) += 1;
    }
    EXPECT_GT(violating, 200u);
    EXPECT_GT(clear, 200u);
  }
}

// ----------------------------------------------------------------- bands

TEST(Bands, DkwEpsilonReference) {
  // sqrt(ln(2 / 0.01) / (2 * 1e6))
  EXPECT_NEAR(dkwEpsilon(1000000, 0.99), 1.6276236307187291e-3, 1e-12);
  EXPECT_NEAR(dkwEpsilon(100, 0.95), std::sqrt(std::log(40.0) / 200.0),
              1e-15);
  EXPECT_THROW((void)dkwEpsilon(0, 0.99), InvalidArgumentError);
  EXPECT_THROW((void)dkwEpsilon(10, 1.0), InvalidArgumentError);
}

TEST(Bands, RegularizedIncompleteBetaReference) {
  // The bands invert I_x(a, b); check the inversions at closed forms.
  // I_x(1, b) = 1 - (1 - x)^b: the k = 1 lower bound solves
  // 1 - (1 - L)^n = alpha / 2.
  EXPECT_NEAR(clopperPearson(1, 20, 0.95).lower,
              1.0 - std::pow(0.975, 1.0 / 20.0), 1e-12);
  // I_x(a, 1) = x^a: the k = n - 1 upper bound solves U^n = 1 - alpha / 2.
  EXPECT_NEAR(clopperPearson(19, 20, 0.95).upper, std::pow(0.975, 1.0 / 20.0),
              1e-12);
  // I_x(2, 3) = 6 x^2 - 8 x^3 + 3 x^4: the k = 2 of n = 4 lower bound.
  const double x = clopperPearson(2, 4, 0.95).lower;
  EXPECT_NEAR(x * x * (6.0 - 8.0 * x + 3.0 * x * x), 0.025, 1e-13);
  // Symmetry I_x(a, b) = 1 - I_{1-x}(b, a): k of n mirrors n - k of n.
  const BinomialInterval low = clopperPearson(7, 30, 0.9);
  const BinomialInterval high = clopperPearson(23, 30, 0.9);
  EXPECT_NEAR(low.lower, 1.0 - high.upper, 1e-12);
  EXPECT_NEAR(low.upper, 1.0 - high.lower, 1e-12);
}

TEST(Bands, ClopperPearsonReference) {
  // k = 5 of n = 10 at 95%: the textbook interval (0.187086, 0.812914).
  const BinomialInterval mid = clopperPearson(5, 10, 0.95);
  EXPECT_NEAR(mid.lower, 0.187086, 5e-6);
  EXPECT_NEAR(mid.upper, 0.812914, 5e-6);

  // k = 0: lower pinned at 0, upper = 1 - (alpha/2)^(1/n).
  const BinomialInterval zero = clopperPearson(0, 20, 0.95);
  EXPECT_DOUBLE_EQ(zero.lower, 0.0);
  EXPECT_NEAR(zero.upper, 1.0 - std::pow(0.025, 1.0 / 20.0), 1e-9);

  // k = n mirrors k = 0.
  const BinomialInterval all = clopperPearson(20, 20, 0.95);
  EXPECT_DOUBLE_EQ(all.upper, 1.0);
  EXPECT_NEAR(all.lower, std::pow(0.025, 1.0 / 20.0), 1e-9);

  EXPECT_THROW((void)clopperPearson(3, 2, 0.95), InvalidArgumentError);
}

// Frozen bits. Every value below was recorded as a C99 hexfloat from the
// 200-halving inversion, so a change in the last bit of any bound fails;
// the tolerance tests above would not see one.

struct FrozenInterval {
  std::uint64_t k;
  std::uint64_t n;
  double confidence;
  double lower;
  double upper;
};

TEST(Bands, ClopperPearsonFrozenBits) {
  // n in {1, 8, 10, 2048, 100000}; k in {0, 1, n/2, n-1, n} (distinct);
  // confidence in {0.5, 0.95, 0.99, 0.999}.
  static constexpr FrozenInterval kFrozen[] = {
      {0, 1, 0.5, 0x0p+0, 0x1.8p-1},
      {0, 1, 0.95, 0x0p+0, 0x1.f333333333332p-1},
      {0, 1, 0.99, 0x0p+0, 0x1.fd70a3d70a3d6p-1},
      {0, 1, 0.999, 0x0p+0, 0x1.ffbe76c8b4396p-1},
      {1, 1, 0.5, 0x1.ffffffffffffep-3, 0x1p+0},
      {1, 1, 0.95, 0x1.99999999999ap-6, 0x1p+0},
      {1, 1, 0.99, 0x1.47ae147ae148p-8, 0x1p+0},
      {1, 1, 0.999, 0x1.0624dd2f1aap-11, 0x1p+0},
      {0, 8, 0.5, 0x0p+0, 0x1.45d819a94b132p-3},
      {0, 8, 0.95, 0x0p+0, 0x1.7a485b8f5969ap-2},
      {0, 8, 0.99, 0x0p+0, 0x1.eff4652ac3fbep-2},
      {0, 8, 0.999, 0x0p+0, 0x1.3a02cc6eb4c4p-1},
      {1, 8, 0.5, 0x1.215a482573cb2p-5, 0x1.35f6eb40d5f26p-2},
      {1, 8, 0.95, 0x1.9e26ba76567bep-9, 0x1.0d92acf2df9bcp-1},
      {1, 8, 0.99, 0x1.48662803dacd8p-11, 0x1.435636eb3db6cp-1},
      {1, 8, 0.999, 0x1.06338c7488baap-14, 0x1.7abc2f5c2ba84p-1},
      {4, 8, 0.5, 0x1.50fb3ef8732bcp-2, 0x1.57826083c66a2p-1},
      {4, 8, 0.95, 0x1.418fe9525ec1ep-3, 0x1.af9c05ab684f8p-1},
      {4, 8, 0.99, 0x1.990e60c651efp-4, 0x1.ccde33e735c2p-1},
      {4, 8, 0.999, 0x1.ba941c2f2a16cp-5, 0x1.e456be3d0d5eap-1},
      {7, 8, 0.5, 0x1.65048a5f9506cp-1, 0x1.edea5b7da8c34p-1},
      {7, 8, 0.95, 0x1.e4daa61a40c86p-2, 0x1.fe61d94589a98p-1},
      {7, 8, 0.99, 0x1.795392298491ep-2, 0x1.ffade675ff094p-1},
      {7, 8, 0.999, 0x1.0a87a147a8af8p-2, 0x1.fff7ce639c5bcp-1},
      {8, 8, 0.5, 0x1.ae89f995ad3b4p-1, 0x1p+0},
      {8, 8, 0.95, 0x1.42dbd238534b2p-1, 0x1p+0},
      {8, 8, 0.99, 0x1.0805cd6a9e01ap-1, 0x1p+0},
      {8, 8, 0.999, 0x1.8bfa67229678p-2, 0x1p+0},
      {0, 10, 0.5, 0x0p+0, 0x1.091cc94907b7p-3},
      {0, 10, 0.95, 0x0p+0, 0x1.3be6aa73f7f9ap-2},
      {0, 10, 0.99, 0x0p+0, 0x1.a52ac6137493ap-2},
      {0, 10, 0.999, 0x0p+0, 0x1.10938ec6f7928p-1},
      {1, 10, 0.5, 0x1.d09f8203000c2p-6, 0x1.fa9d73dc21562p-3},
      {1, 10, 0.95, 0x1.4b6d044ec2e3cp-9, 0x1.c7b24e1350e76p-2},
      {1, 10, 0.99, 0x1.06bc56bddf9dcp-11, 0x1.16accb0a0a5d6p-1},
      {1, 10, 0.999, 0x1.a386596811cbap-15, 0x1.4e67195955bccp-1},
      {5, 10, 0.5, 0x1.6718df108afaap-2, 0x1.4c739077ba82ap-1},
      {5, 10, 0.95, 0x1.7f26f5adc2c4ep-3, 0x1.a03642948f4eap-1},
      {5, 10, 0.99, 0x1.06c7af0710076p-3, 0x1.be4e143e3bfep-1},
      {5, 10, 0.999, 0x1.3cb982e9060e4p-4, 0x1.d868cfa2df3e4p-1},
      {9, 10, 0.5, 0x1.8158a308f7aa8p-1, 0x1.f17b03efe7ffap-1},
      {9, 10, 0.95, 0x1.1c26d8f6578c4p-1, 0x1.feb492fbb13d2p-1},
      {9, 10, 0.99, 0x1.d2a669ebeb44ap-2, 0x1.ffbe50ea50882p-1},
      {9, 10, 0.999, 0x1.6331cd4d54866p-2, 0x1.fff971e69a5fcp-1},
      {10, 10, 0.5, 0x1.bdb8cdadbe124p-1, 0x1p+0},
      {10, 10, 0.95, 0x1.620caac604032p-1, 0x1p+0},
      {10, 10, 0.99, 0x1.2d6a9cf645b5cp-1, 0x1p+0},
      {10, 10, 0.999, 0x1.ded8e27210dbp-2, 0x1p+0},
      {0, 2048, 0.5, 0x0p+0, 0x1.62c571f83a8dep-11},
      {0, 2048, 0.95, 0x0p+0, 0x1.d7c06795eefp-10},
      {0, 2048, 0.99, 0x0p+0, 0x1.52a7709919d8p-9},
      {0, 2048, 0.999, 0x0p+0, 0x1.e58e606c5138p-9},
      {1, 2048, 0.5, 0x1.2690d52edbbc2p-13, 0x1.5883cb5efd7b2p-10},
      {1, 2048, 0.95, 0x1.9ecded4b1711ap-17, 0x1.642ffbf511d8p-9},
      {1, 2048, 0.99, 0x1.488064db19832p-19, 0x1.dac8505daa18p-9},
      {1, 2048, 0.999, 0x1.0635a37c39ab2p-22, 0x1.3f41759462ecp-8},
      {1024, 2048, 0.5, 0x1.f81ed606992a4p-2, 0x1.03f094fcb36aep-1},
      {1024, 2048, 0.95, 0x1.e996c82d06b84p-2, 0x1.0b349be97ca3ep-1},
      {1024, 2048, 0.99, 0x1.e2a2b29f1e13p-2, 0x1.0eaea6b070f68p-1},
      {1024, 2048, 0.999, 0x1.da93985c27cb4p-2, 0x1.12b633d1ec1a6p-1},
      {2047, 2048, 0.5, 0x1.ff53be1a50814p-1, 0x1.ffed96f2ad124p-1},
      {2047, 2048, 0.95, 0x1.fe9bd0040aee2p-1, 0x1.fffe613212b4ep-1},
      {2047, 2048, 0.99, 0x1.fe2537afa255ep-1, 0x1.ffffaddfe6c94p-1},
      {2047, 2048, 0.999, 0x1.fd817d14d73a2p-1, 0x1.fffff7ce52e42p-1},
      {2048, 2048, 0.5, 0x1.ffa74ea381f16p-1, 0x1p+0},
      {2048, 2048, 0.95, 0x1.ff141fcc35088p-1, 0x1p+0},
      {2048, 2048, 0.99, 0x1.fead588f66e62p-1, 0x1p+0},
      {2048, 2048, 0.999, 0x1.fe1a719f93aecp-1, 0x1p+0},
      {0, 100000, 0.5, 0x0p+0, 0x1.d128f4179c228p-17},
      {0, 100000, 0.95, 0x0p+0, 0x1.35709f38a2p-15},
      {0, 100000, 0.99, 0x0p+0, 0x1.bc717c21d6p-15},
      {0, 100000, 0.999, 0x0p+0, 0x1.3ecaf792d9p-14},
      {1, 100000, 0.5, 0x1.821eaa4e018dep-19, 0x1.c3becb2d918a2p-16},
      {1, 100000, 0.95, 0x1.0fd90d472e3b2p-22, 0x1.d35f6552bep-15},
      {1, 100000, 0.99, 0x1.ae92f527dabfp-25, 0x1.37a1d7d417p-14},
      {1, 100000, 0.999, 0x1.57aeed7583334p-28, 0x1.a35b26db4fp-14},
      {50000, 100000, 0.5, 0x1.fee71fab52004p-2, 0x1.008c702a56ffep-1},
      {50000, 100000, 0.95, 0x1.fcd25247a7978p-2, 0x1.0196d6dc2c344p-1},
      {50000, 100000, 0.99, 0x1.fbd3107bb63a8p-2, 0x1.021677c224e2cp-1},
      {50000, 100000, 0.999, 0x1.faaada2d5826ep-2, 0x1.02aa92e953ec8p-1},
      {99999, 100000, 0.5, 0x1.fffc788269a4ep-1, 0x1.ffff9f78556c8p-1},
      {99999, 100000, 0.95, 0x1.fff8b2826ab5p-1, 0x1.fffff7813795cp-1},
      {99999, 100000, 0.99, 0x1.fff642f1415f4p-1, 0x1.fffffe516d0aep-1},
      {99999, 100000, 0.999, 0x1.fff2e526c9258p-1, 0x1.ffffffd50a226p-1},
      {100000, 100000, 0.5, 0x1.fffe2ed70be86p-1, 0x1p+0},
      {100000, 100000, 0.95, 0x1.fffb2a3d831d8p-1, 0x1p+0},
      {100000, 100000, 0.99, 0x1.fff90e3a0f78ap-1, 0x1p+0},
      {100000, 100000, 0.999, 0x1.fff609a843694p-1, 0x1p+0},
  };
  for (const FrozenInterval& f : kFrozen) {
    const BinomialInterval got = clopperPearson(f.k, f.n, f.confidence);
    EXPECT_TRUE(bitEq(got.lower, f.lower))
        << "k=" << f.k << " n=" << f.n << " c=" << f.confidence
        << " lower " << std::hexfloat << got.lower;
    EXPECT_TRUE(bitEq(got.upper, f.upper))
        << "k=" << f.k << " n=" << f.n << " c=" << f.confidence
        << " upper " << std::hexfloat << got.upper;
  }
}

/// Every field of every digest point, bit for bit.
void expectDigestBits(const CurveResult& result,
                      std::span<const CurvePoint> frozen) {
  ASSERT_EQ(result.points.size(), frozen.size());
  for (std::size_t j = 0; j < frozen.size(); ++j) {
    const CurvePoint& got = result.points[j];
    const CurvePoint& want = frozen[j];
    EXPECT_TRUE(bitEq(got.radius, want.radius)) << "point " << j;
    EXPECT_TRUE(bitEq(got.probability, want.probability)) << "point " << j;
    EXPECT_TRUE(bitEq(got.lower, want.lower)) << "point " << j;
    EXPECT_TRUE(bitEq(got.upper, want.upper)) << "point " << j;
  }
}

/// The fast-lane digest the band tests pin: 2048 samples, 16 points.
CurveResult frozenFastDigest() {
  CurveOptions o;
  o.samples = 2048;
  o.gridPoints = 16;
  o.threads = 1;
  return computeCurve(curveProblem(48, 16), o);
}

TEST(Bands, FastLaneDigestFrozenBits) {
  // {radius, probability, lower, upper}
  static constexpr CurvePoint kFrozen[] = {
      {0x1.95262de975552p-3, 0x1p-11, 0x1.488064db19832p-19, 0x1.dac8505daa18p-9},
      {0x1.431755cdf7d25p-2, 0x1.12p-4, 0x1.b5e0ef5df68a2p-5, 0x1.517bd5abbf41cp-4},
      {0x1.709f2c99892d4p-2, 0x1.11p-3, 0x1.d555a182512ecp-4, 0x1.3ae0a9aea9ba6p-3},
      {0x1.963c25cee5f1dp-2, 0x1.9ap-3, 0x1.6c55503bac8e8p-3, 0x1.ca8ec3bb1a2f2p-3},
      {0x1.b8d7e0420b0f8p-2, 0x1.11p-2, 0x1.ef1f20c278bdp-3, 0x1.2b901f6181062p-2},
      {0x1.d9f2ffc844015p-2, 0x1.558p-2, 0x1.3a323bd581c6p-2, 0x1.719ad582849dep-2},
      {0x1.fe553925884b8p-2, 0x1.998p-2, 0x1.7cf70e12e66f4p-2, 0x1.b6842b7f012eep-2},
      {0x1.13a0ec6b0ff3ep-1, 0x1.dep-2, 0x1.c0c79148db3f4p-2, 0x1.fb614c658dd96p-2},
      {0x1.2509077782248p-1, 0x1.11p-1, 0x1.024f59cd39134p-1, 0x1.1f9c375b92606p-1},
      {0x1.3a909ebd43768p-1, 0x1.334p-1, 0x1.24bdea407f68ap-1, 0x1.418478f68cc86p-1},
      {0x1.552b3a733b401p-1, 0x1.554p-1, 0x1.4732953ebdb1p-1, 0x1.62e6e2153f1dp-1},
      {0x1.725035267332ep-1, 0x1.778p-1, 0x1.6a37f04f3f7cep-1, 0x1.843837cf61d0cp-1},
      {0x1.96108bbd4be4p-1, 0x1.998p-1, 0x1.8d5c4f1139744p-1, 0x1.a4eaabf114dc6p-1},
      {0x1.c8b59adc94503p-1, 0x1.bbcp-1, 0x1.b147d59455914p-1, 0x1.c5554bcfb5da2p-1},
      {0x1.0ec64f4a0d765p+0, 0x1.ddcp-1, 0x1.d5d0854a8817cp-1, 0x1.e4a1f10a20976p-1},
      {0x1.111b8fddabe9ap+1, 0x1p+0, 0x1.fead588f66e62p-1, 0x1p+0},
  };
  const CurveResult result = frozenFastDigest();
  EXPECT_TRUE(result.fastLane);
  expectDigestBits(result, kFrozen);
}

TEST(Bands, FallbackLaneDigestFrozenBits) {
  // A constrained spec: 64 samples, 59 finite, 8 points with k < n.
  static constexpr CurvePoint kFrozen[] = {
      {0x1.2d8e9a4ebd8a3p-1, 0x1p-6, 0x1.487d342648d1ep-14, 0x1.c45753db1c9b4p-4},
      {0x1.613ff8a6175b7p-1, 0x1.2p-3, 0x1.a13337598921ep-5, 0x1.251dbc8478c4ep-2},
      {0x1.7c9ed8e2e2dc5p-1, 0x1.1p-2, 0x1.1a07e2ac922b2p-3, 0x1.b7d1798cf5872p-2},
      {0x1.c9c50a6d7fd5bp-1, 0x1.9p-2, 0x1.e9a7f5e3ef514p-3, 0x1.1e22ae1a4373cp-1},
      {0x1.1a2a733e39bdap+0, 0x1.1p-1, 0x1.766209f48a766p-2, 0x1.625e5ccc36172p-1},
      {0x1.342e9d53b6f69p+0, 0x1.5p-1, 0x1.f40f245546bcp-2, 0x1.99bd6b80baf9ep-1},
      {0x1.5d90f8197f28p+0, 0x1.9p-1, 0x1.3e92a6a372c26p-1, 0x1.cb3eefe3f4c64p-1},
      {0x1.c9e8ec73d6ce7p+0, 0x1.d8p-1, 0x1.96a91855db41p-1, 0x1.f72c32a16a50ep-1},
  };
  CurveOptions o;
  o.samples = 64;
  o.gridPoints = 8;
  o.threads = 1;
  const CurveResult result =
      computeCurve(fallbackProblem(16, 5, true, false, 17), o);
  EXPECT_FALSE(result.fastLane);
  EXPECT_EQ(result.finiteRadii, 59u);
  expectDigestBits(result, kFrozen);
}

TEST(Bands, CountsIncompleteBetaEvaluations) {
  // curve.band_steps counts incomplete-beta evaluations. The bisection
  // stops at ulp adjacency, about 50-80 evaluations per inversion under
  // its cap of 200; the exact count shows a lost exit without timing.
  ObsGuard guard;
  const CurveResult result = frozenFastDigest();
  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  EXPECT_EQ(snap.counter("curve.band_steps"), 1694u);

  std::uint64_t inversions = 0;
  std::uint64_t steps = 0;
  for (const CurvePoint& p : result.points) {
    const auto k = static_cast<std::uint64_t>(
        std::llround(p.probability * static_cast<double>(result.samples)));
    const std::uint64_t calls = (k > 0 ? 1 : 0) + (k < result.samples ? 1 : 0);
    obs::resetMetrics();
    (void)clopperPearson(k, result.samples, result.confidence);
    const std::uint64_t got = obs::snapshotMetrics().counter("curve.band_steps");
    EXPECT_LE(got, 200 * calls) << "k=" << k;
    inversions += calls;
    steps += got;
  }
  EXPECT_EQ(steps, snap.counter("curve.band_steps"));
  EXPECT_LT(static_cast<double>(steps), 80.0 * static_cast<double>(inversions));
}

/// P(X >= k) or P(X <= k) for X ~ Binomial(n, p), summed term by term in
/// long double: an oracle that shares no code with the incomplete beta.
long double binomialTail(std::uint64_t k, std::uint64_t n, double p,
                         bool upperTail) {
  long double sum = 0.0L;
  long double choose = 1.0L;  // C(n, j)
  for (std::uint64_t j = 0; j <= n; ++j) {
    if (upperTail ? j >= k : j <= k) {
      sum += choose * std::pow(static_cast<long double>(p), j) *
             std::pow(1.0L - static_cast<long double>(p), n - j);
    }
    choose = choose * static_cast<long double>(n - j) /
             static_cast<long double>(j + 1);
  }
  return sum;
}

TEST(Bands, ClopperPearsonMatchesBinomialTails) {
  // The defining equations: P(X >= k | n, L) = alpha/2 for k > 0 and
  // P(X <= k | n, U) = alpha/2 for k < n; both bounds rise strictly in k.
  for (double confidence : {0.9, 0.95, 0.99}) {
    const long double half = (1.0L - confidence) / 2.0L;
    for (std::uint64_t n = 1; n <= 64; ++n) {
      BinomialInterval prev = clopperPearson(0, n, confidence);
      for (std::uint64_t k = 0; k <= n; ++k) {
        const BinomialInterval b = clopperPearson(k, n, confidence);
        if (k > 0) {
          EXPECT_NEAR(static_cast<double>(binomialTail(k, n, b.lower, true) -
                                          half),
                      0.0, 1e-12)
              << "lower k=" << k << " n=" << n << " c=" << confidence;
          EXPECT_LT(prev.lower, b.lower) << "k=" << k << " n=" << n;
          EXPECT_LT(prev.upper, b.upper) << "k=" << k << " n=" << n;
        }
        if (k < n) {
          EXPECT_NEAR(static_cast<double>(binomialTail(k, n, b.upper, false) -
                                          half),
                      0.0, 1e-12)
              << "upper k=" << k << " n=" << n << " c=" << confidence;
        }
        prev = b;
      }
    }
  }
}

// ----------------------------------------------------------------- drift

TEST(Drift, IncrementalRhoMatchesMetricLane) {
  const CompiledProblem problem = curveProblem(24, 10);
  DriftTracker tracker(problem, 0.0);
  EXPECT_NEAR(tracker.rho(), problem.evaluateMetric().metric, 1e-12);

  Pcg32 rng(17);
  std::vector<double> origin(problem.parameter().origin.begin(),
                             problem.parameter().origin.end());
  for (int step = 0; step < 500; ++step) {
    const auto k = static_cast<std::size_t>(
        rng.nextBounded(static_cast<std::uint32_t>(origin.size())));
    origin[k] += rng.uniform(-0.01, 0.01);
    const DriftStatus status = tracker.applyUpdate(k, origin[k]);
    EXPECT_EQ(status.updates, static_cast<std::uint64_t>(step + 1));
  }
  AnalysisInstance drifted;
  drifted.origin = origin;
  const MetricResult direct = problem.evaluateMetric(drifted);
  EXPECT_NEAR(tracker.rho(), direct.metric,
              1e-9 * std::max(1.0, direct.metric));
  EXPECT_EQ(tracker.bindingFeature(), direct.bindingFeature);

  // rebase() flushes the incremental rounding to the exact blocked dots.
  tracker.rebase();
  EXPECT_NEAR(tracker.rho(), direct.metric,
              1e-13 * std::max(1.0, direct.metric));

  // The Lipschitz bracket holds around the exactly maintained rho.
  EXPECT_LE(tracker.rhoLowerBound(), tracker.rho() + 1e-12);
  EXPECT_GE(tracker.rhoUpperBound(), tracker.rho() - 1e-12);
  EXPECT_NEAR(tracker.driftDistance(),
              [&] {
                std::vector<double> d(origin.size());
                for (std::size_t k = 0; k < origin.size(); ++k) {
                  d[k] = origin[k] - problem.parameter().origin[k];
                }
                return problem.displacementNorm(d);
              }(),
              1e-15);
}

TEST(Drift, StreamsWithoutFullReanalysis) {
  const CompiledProblem problem = curveProblem(16, 8);
  DriftTracker tracker(problem, 0.0);
  ObsGuard obs;  // reset AFTER construction: only the stream is counted

  Pcg32 rng(29);
  constexpr std::uint64_t kUpdates = 100000;
  for (std::uint64_t i = 0; i < kUpdates; ++i) {
    const auto k = static_cast<std::size_t>(rng.nextBounded(8));
    tracker.applyUpdate(k, 1.0 + rng.uniform(-0.05, 0.05));
  }
  EXPECT_EQ(tracker.updates(), kUpdates);

  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  EXPECT_EQ(snap.counter("curve.drift.updates"), kUpdates);
  // The incremental lane never re-runs the analysis engine.
  EXPECT_EQ(snap.counter("core.evaluations"), 0u);
  EXPECT_EQ(snap.counter("core.rows_evaluated"), 0u);
}

TEST(Drift, ThresholdCrossingFiresExactlyOnTransition) {
  // Single feature f = x0 with slack 10 under L2: rho = 10 at the anchor.
  ProblemSpec spec;
  spec.parameter.origin = num::Vec{0.0};
  spec.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0}, 0.0),
      ToleranceBounds::atMost(10.0)});
  const CompiledProblem problem = CompiledProblem::compile(std::move(spec));
  DriftTracker tracker(problem, 5.0);
  EXPECT_DOUBLE_EQ(tracker.rho(), 10.0);

  int crossings = 0;
  for (int v = 1; v <= 8; ++v) {
    const DriftStatus s = tracker.applyUpdate(0, static_cast<double>(v));
    EXPECT_DOUBLE_EQ(s.rho, 10.0 - v);
    if (s.crossedBelow) {
      ++crossings;
      EXPECT_EQ(v, 6);  // rho drops to 4 < 5 exactly here
    }
  }
  EXPECT_EQ(crossings, 1);

  // Recover above, then drop again: the edge re-arms.
  (void)tracker.applyUpdate(0, 0.0);
  const DriftStatus again = tracker.applyUpdate(0, 7.0);
  EXPECT_TRUE(again.crossedBelow);
}

TEST(Drift, RejectsLanesWithoutClosedForm) {
  ProblemSpec discrete;
  discrete.parameter.origin = num::Vec{1.0};
  discrete.parameter.discrete = true;
  discrete.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0}, 0.0),
      ToleranceBounds::atMost(5.0)});
  const CompiledProblem dp = CompiledProblem::compile(std::move(discrete));
  EXPECT_THROW(DriftTracker(dp, 1.0), InvalidArgumentError);

  ProblemSpec callable;
  callable.parameter.origin = num::Vec{1.0};
  callable.features.push_back(PerformanceFeature{
      "c",
      ImpactFunction::callable(
          [](std::span<const double> x) { return x[0]; }),
      ToleranceBounds::atMost(5.0)});
  const CompiledProblem cp = CompiledProblem::compile(std::move(callable));
  EXPECT_THROW(DriftTracker(cp, 1.0), InvalidArgumentError);
}

TEST(Drift, RejectsConstantFeatureLikeEveryLane) {
  // The second feature does not depend on the parameter and holds at the
  // origin: no lane has a radius for it.
  ProblemSpec spec;
  spec.parameter.origin = num::Vec{0.0, 0.0};
  spec.features.push_back(PerformanceFeature{
      "sum", ImpactFunction::affine(num::Vec{1.0, 1.0}, 0.0),
      ToleranceBounds::atMost(4.0)});
  spec.features.push_back(PerformanceFeature{
      "constant", ImpactFunction::affine(num::Vec{0.0, 0.0}, 5.0),
      ToleranceBounds::atMost(10.0)});
  const CompiledProblem problem = CompiledProblem::compile(std::move(spec));
  EXPECT_THROW((void)problem.evaluate(), InvalidArgumentError);
  MetricWorkspace workspace;
  EXPECT_THROW((void)problem.evaluateMetric({}, workspace, /*prune=*/true),
               InvalidArgumentError);
  EXPECT_THROW((void)problem.evaluateMetric({}, workspace, /*prune=*/false),
               InvalidArgumentError);
  const std::vector<double> values{0.0, 0.0};
  EXPECT_THROW((void)analyzeStreamValues(problem, values),
               InvalidArgumentError);
  EXPECT_THROW(DriftTracker(problem, 0.0), InvalidArgumentError);
}

}  // namespace

// The degradation-curve engine's contract suite.
//
// The heart is the bit-identity grid: the curve's per-sample critical
// radii must come out bit-for-bit identical across thread counts, shard
// sizes, SIMD dispatch targets, and the pruned vs unpruned row loop —
// each sample is a pure function of its counter-based substream. Around
// it: the closed-form radii differentially pinned against bisection on
// the spec's own violation predicate, the empirical CDF against a brute
// radius grid, the fallback lane for constrained / discrete / callable
// specs, the band math against hand-checked references, the content-key
// cache, and the online drift tracker (incremental rho, obs-pinned
// no-re-analyze streaming, threshold crossings, the Lipschitz bracket).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/core/impact.hpp"
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
  base.useCache = false;
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
  o.useCache = false;
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
  o.useCache = false;
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
  o.useCache = false;
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
  o.useCache = false;
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
  o.useCache = false;
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
  o.useCache = false;
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
  // I_x(2, 3) = 12 * (x^2/2 - 2 x^3/3 + x^4/4); exactly 0.6875 at 0.5.
  EXPECT_NEAR(regularizedIncompleteBeta(2.0, 3.0, 0.5), 0.6875, 1e-13);
  EXPECT_DOUBLE_EQ(regularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
  // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
  EXPECT_NEAR(regularizedIncompleteBeta(5.0, 2.0, 0.7) +
                  regularizedIncompleteBeta(2.0, 5.0, 0.3),
              1.0, 1e-13);
  // I_x(1, 1) is the identity.
  EXPECT_NEAR(regularizedIncompleteBeta(1.0, 1.0, 0.42), 0.42, 1e-13);
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

// ----------------------------------------------------------------- cache

TEST(CurveCache, HitsByContentKeyAndStaysExact) {
  clearCurveCache();
  ObsGuard obs;
  const CompiledProblem problem = curveProblem(16, 8);
  ASSERT_NE(problemContentKey(problem), 0u);

  CurveOptions o;
  o.samples = 512;
  const CurveResult first = computeCurve(problem, o);
  EXPECT_FALSE(first.cacheHit);
  const CurveResult second = computeCurve(problem, o);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_TRUE(radiiBitEqual(first.radii, second.radii));

  // An equivalent recompile (same content) hits; a different seed misses.
  const CompiledProblem again = curveProblem(16, 8);
  EXPECT_EQ(problemContentKey(problem), problemContentKey(again));
  EXPECT_TRUE(computeCurve(again, o).cacheHit);
  CurveOptions reseeded = o;
  reseeded.seed = 999;
  EXPECT_FALSE(computeCurve(problem, reseeded).cacheHit);

  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  EXPECT_EQ(snap.counter("curve.cache.hits"), 2u);
  EXPECT_GE(snap.counter("curve.cache.misses"), 2u);
  // curve.samples counts COMPUTED samples only — hits add nothing.
  EXPECT_EQ(snap.counter("curve.samples"), 2u * o.samples);
  clearCurveCache();
}

TEST(CurveCache, UncacheableSpecsComputeDirect) {
  clearCurveCache();
  ProblemSpec spec;
  spec.parameter.origin = num::Vec{1.0};
  spec.features.push_back(PerformanceFeature{
      "c",
      ImpactFunction::callable(
          [](std::span<const double> x) { return x[0]; }),
      ToleranceBounds::atMost(3.0)});
  const CompiledProblem problem = CompiledProblem::compile(std::move(spec));
  EXPECT_EQ(problemContentKey(problem), 0u);
  CurveOptions o;
  o.samples = 32;
  EXPECT_FALSE(computeCurve(problem, o).cacheHit);
  EXPECT_FALSE(computeCurve(problem, o).cacheHit);
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

}  // namespace

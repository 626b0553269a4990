// Monte-Carlo degradation curves: P(violation | r) for ALL radii in one
// batched pass.
//
// The robustness radius rho (Eq. 2) answers "how far can the perturbation
// drift before SOME tolerance bound is violated in the worst direction".
// Practitioners also want the graded view: if the perturbation lands r away
// from the assumed operating point in a random direction, what is the
// probability a bound is violated? The naive estimator fixes a radius grid
// and re-evaluates N sampled perturbations per grid point — O(grid x N)
// full metric evaluations.
//
// The engine here exploits the affine structure instead: along a fixed unit
// direction u, feature i's value moves LINEARLY, value(r) = (a_i . origin +
// c_i) + r (a_i . u), so the exact radius at which it crosses a tolerance
// bound is one division. The minimum over rows is the sample's CRITICAL
// RADIUS — the exact distance along u at which the first bound breaks — and
// P(violation | r) for EVERY r is simply the empirical CDF of the N
// per-sample critical radii: one batched dot-product pass plus one sort,
// no radius grid in the hot loop.
//
// Determinism contract: sample i draws its direction from the counter-based
// substream makeStream(seed, kCurveStreamFamily, i), critical radii are
// written to disjoint slots, and the row dots ride the fixed-order blocked
// kernels of robust/numeric/simd.hpp — so the curve is bit-identical across
// thread counts, shard sizes, and dispatch targets (scalar vs AVX2). The
// per-sample row loop prunes with the same provable screen as the metric
// lane (a row whose origin gap / dual norm already exceeds the incumbent
// critical radius, beyond a 1e-9 relative margin, cannot bind), which skips
// losers without changing the returned bits.
//
// Specs outside the closed-form lane — callable features, hard feasibility
// constraints, discrete perturbations, multi-subspace combined norms, or a
// non-analytic compiled solver — fall back to a full lane that brackets and
// bisects each sample's critical radius against the spec's own violation
// predicate, never past the ray's feasible extent under the constraints.
// The predicate runs in its ray form (CompiledProblem::violatesOnRay): one
// blocked pass per sample gives every affine row's slope, so each probe is
// O(rows) scalar work, and only callable features are evaluated at a
// materialized point. Bisection ends once the bracket is two adjacent
// doubles. Same substreams, same determinism, more arithmetic per sample.
//
// Sampling model: directions are standard Gaussian vectors normalized to
// unit length under the problem's displacement norm. Under L2 that is the
// uniform distribution on the sphere; under L1/LInf/weighted norms it is
// the Gaussian angular measure on that norm's unit sphere — a fixed,
// documented model, NOT uniform surface measure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/curve/bands.hpp"
#include "robust/obs/report.hpp"

namespace robust::curve {

/// The substream family reserved for curve direction sampling (see
/// robust::makeStream(seed, family, id)). Spelled out so tests and
/// external replayers can regenerate sample i's direction exactly.
inline constexpr std::uint64_t kCurveStreamFamily = 0x63757276;  // "curv"

struct CurveOptions {
  std::size_t samples = 100000;   ///< Monte-Carlo direction samples (N)
  std::uint64_t seed = 1;         ///< substream master seed
  std::size_t gridPoints = 64;    ///< points reported on the curve digest
  double confidence = 0.99;       ///< band level for DKW + Clopper-Pearson
  std::size_t threads = 0;        ///< 0 = defaultThreadCount()
  std::size_t shardSamples = 8192;///< samples per dispatch shard
  bool prune = true;              ///< row screen (false pins bit-equality)
};

/// One reported point of the degradation curve: the empirical violation
/// probability at `radius` with its pointwise Clopper-Pearson band.
struct CurvePoint {
  double radius = 0.0;
  double probability = 0.0;  ///< empirical P(critical radius <= radius)
  double lower = 0.0;        ///< Clopper-Pearson lower bound
  double upper = 1.0;        ///< Clopper-Pearson upper bound
};

/// The full curve: every per-sample critical radius (sorted ascending,
/// +infinity tail for samples that never violate) plus the grid digest.
struct CurveResult {
  std::size_t samples = 0;      ///< N
  std::size_t finiteRadii = 0;  ///< samples with a finite critical radius
  std::uint64_t seed = 0;
  double confidence = 0.0;
  double dkwEpsilon = 0.0;      ///< uniform band half-width at `confidence`
  double rho = 0.0;             ///< the worst-case metric (Eq. 2) — a floor
                                ///< on every critical radius
  bool fastLane = false;        ///< closed-form lane (vs bracket/bisect)
  bool cacheHit = false;        ///< always false: kept for the schema-v1
                                ///< "cache_hit" key
  std::vector<double> radii;    ///< sorted critical radii, size == samples
  std::vector<CurvePoint> points;  ///< quantile-spaced digest, <= gridPoints

  /// Empirical P(violation | r): fraction of critical radii <= r.
  [[nodiscard]] double probabilityAt(double r) const;

  /// Smallest radius whose empirical violation probability reaches p
  /// (clamped to [1/N, 1]); +infinity when even the largest finite radius
  /// does not reach p.
  [[nodiscard]] double radiusAtProbability(double p) const;
};

/// Computes the degradation curve of `problem` at its compiled defaults.
/// Deterministic: (problem content, samples, seed, gridPoints, confidence,
/// prune) fully determine the result, bit for bit — threads and
/// shardSamples only change wall-clock time.
[[nodiscard]] CurveResult computeCurve(const core::CompiledProblem& problem,
                                       const CurveOptions& options = {});

/// The "robust.curve" report section as a JSON object (schema_version 1):
/// {"schema", "schema_version", "samples", "finite", "seed", "confidence",
///  "dkw_epsilon", "rho", "fast_lane", "cache_hit", "points": [...]}.
[[nodiscard]] std::string curveSectionJson(const CurveResult& result);

/// Appends the curve digest to a run report as the top-level "curve"
/// section (validated by bench/report_check).
void appendCurveSection(obs::RunReport& report, const CurveResult& result);

}  // namespace robust::curve

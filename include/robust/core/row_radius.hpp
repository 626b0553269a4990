// The per-row radius rule of every lane that works from precomputed row
// dots: the metric lane, the stream scan, the HiPer-D metric lane, the
// drift tracker and the curve plan.
//
// For an affine feature f(pi) = a . pi + c, Eq. 1's radius is a
// point-to-hyperplane distance: the gap from f(pi_orig) to the nearest
// tolerance bound over the row's dual norm (Eq. 6); rho (Eq. 2) is the
// minimum over rows. The lanes share this one function, so they share its
// bits. The full lane (evaluateAffineRadius) keeps the legacy
// |dot - (level - c)| order, which rounds differently.
#pragma once

#include <cmath>
#include <limits>

#include "robust/core/feature.hpp"
#include "robust/util/error.hpp"

namespace robust::core {

/// Relative margin of every incumbent prune. It absorbs the rounding of
/// the `gap > incumbent * deff` comparison, so a skipped row provably has
/// a radius strictly above the incumbent and can never win a strict-<
/// minimum: pruning changes no result bits.
inline constexpr double kPruneMargin = 1e-9;

/// Radius of one affine row whose feature value at the origin is
/// `atOrigin` and whose effective dual norm is `deff`, into `radius`:
///   - 0 when a bound is already broken at the origin;
///   - InvalidArgumentError when deff is not > 0 (a constant feature);
///   - otherwise the nearest-level gap over deff. Returns false, leaving
///     `radius` alone, when the gap exceeds incumbent * deff by the prune
///     margin: the row cannot beat `incumbent` (the default +inf evaluates
///     every row).
/// Dividing by one positive denominator is monotone, so min(gap) / deff
/// carries the exact bits of min(gap / deff).
inline bool affineRowRadius(
    double atOrigin, double deff, const ToleranceBounds& bounds,
    double& radius,
    double incumbent = std::numeric_limits<double>::infinity()) {
  if (!bounds.contains(atOrigin)) {
    radius = 0.0;
    return true;
  }
  ROBUST_REQUIRE(deff > 0.0,
                 "analytic radius: impact does not depend on the parameter");
  double gap = std::numeric_limits<double>::infinity();
  if (bounds.min) {
    gap = std::fabs(atOrigin - *bounds.min);
  }
  if (bounds.max) {
    const double g2 = std::fabs(atOrigin - *bounds.max);
    if (g2 < gap) {
      gap = g2;
    }
  }
  if (gap > incumbent * deff * (1.0 + kPruneMargin)) {
    return false;
  }
  radius = gap / deff;
  return true;
}

}  // namespace robust::core

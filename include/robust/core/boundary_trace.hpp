// Boundary tracing for two-dimensional perturbation parameters: the data
// behind Fig. 1 of the paper for ARBITRARY impact functions.
//
// For a feature phi with boundary {pi : f(pi) = beta}, the tracer sweeps
// directions around pi_orig and records the first crossing along each ray —
// producing the boundary curve, which together with pi_orig and pi* is
// exactly what Fig. 1 plots. Works for affine boundaries (straight lines)
// and curved ones (the convex complexity functions of Section 3.2).
#pragma once

#include <vector>

#include "robust/core/compiled.hpp"

namespace robust::core {

/// One traced boundary sample.
struct BoundarySample {
  double angle = 0.0;   ///< ray direction, radians in [0, 2 pi)
  num::Vec point;       ///< boundary crossing pi on that ray
  double distance = 0.0;///< ||point - pi_orig||_2
};

/// Options for the tracer.
struct BoundaryTraceOptions {
  int rays = 128;             ///< directions swept (uniform in angle)
  double searchLimit = 1e9;   ///< max ray length when bracketing
};

/// Traces the boundary of feature `featureIndex`'s binding level (beta_max
/// when present, else beta_min) around the perturbation origin. Rays that
/// never cross within the search limit are omitted, so fewer than
/// options.rays samples may return (e.g. the half-plane behind an affine
/// boundary). Requires a 2-D perturbation parameter.
[[nodiscard]] std::vector<BoundarySample> traceBoundary2D(
    const CompiledProblem& problem, std::size_t featureIndex,
    const BoundaryTraceOptions& options = {});

}  // namespace robust::core

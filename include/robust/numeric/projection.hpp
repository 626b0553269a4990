// Euclidean projection solvers for convex feasibility and constrained
// nearest-point problems.
//
// The constrained radius lane of the compiled engine
// (robust/core/compiled.hpp) reduces every feasibility-clipped radius to
// plain-L2 geometry by rescaling coordinates with the norm weights, so this
// module only ever sees halfspaces and Euclidean balls:
//
//   * projectOntoIntersection — Dykstra's alternating projection: the exact
//     nearest point of an intersection of halfspaces (unlike plain POCS,
//     Dykstra's correction terms make the limit the *projection*, not just
//     some feasible point).
//   * feasiblePoint — POCS (projection onto convex sets): any point of an
//     intersection of halfspaces and block balls, used as the membership
//     oracle inside the bisection that handles multi-subspace radii.
//
// Both report convergence honestly: an empty intersection shows up as
// converged == false with the final residual, never as a fabricated point.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "robust/numeric/vector_ops.hpp"

namespace robust::num {

/// One closed halfspace. `geq` selects the sense:
///   geq == false:  normal . x <= offset
///   geq == true:   normal . x >= offset
struct Halfspace {
  Vec normal;
  double offset = 0.0;
  bool geq = false;
};

/// A Euclidean ball over one contiguous block [offset, offset + center.size())
/// of the ambient vector; coordinates outside the block are unconstrained.
struct BlockBall {
  std::size_t offset = 0;
  Vec center;
  double radius = 0.0;
};

/// Absolute residual (max constraint violation) below which an iterate of
/// projectOntoIntersection or feasiblePoint counts as a member of the
/// intersection.
inline constexpr double kProjectionTolerance = 1e-10;

struct ProjectionResult {
  Vec point;               ///< final iterate
  bool converged = false;  ///< residual <= tolerance within the budget
  double residual = 0.0;   ///< max violation of the final iterate
  std::size_t iterations = 0;
};

/// Violation of `x` against one halfspace: 0 when satisfied, the Euclidean
/// distance to the halfspace otherwise.
[[nodiscard]] double halfspaceViolation(const Halfspace& h,
                                        std::span<const double> x);

/// Largest violation of `x` over all halfspaces and balls (0 when `x` is
/// in the intersection).
[[nodiscard]] double maxViolation(std::span<const Halfspace> halfspaces,
                                  std::span<const BlockBall> balls,
                                  std::span<const double> x);

/// Dykstra's algorithm: the Euclidean projection of `x0` onto the
/// intersection of `halfspaces`. When the intersection is empty the result
/// reports converged == false and the caller must treat the point as
/// meaningless.
[[nodiscard]] ProjectionResult projectOntoIntersection(
    std::span<const Halfspace> halfspaces, std::span<const double> x0);

/// POCS: cyclic projections from `start` until every halfspace and ball is
/// satisfied to tolerance. Converges to *a* member of the intersection
/// whenever one exists (not the nearest); an empty intersection reports
/// converged == false.
[[nodiscard]] ProjectionResult feasiblePoint(
    std::span<const Halfspace> halfspaces, std::span<const BlockBall> balls,
    std::span<const double> start);

}  // namespace robust::num

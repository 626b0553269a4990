// Constrained nearest-point solvers: the analysis step (step 4) of FePIA.
//
// The robustness radius (Eq. 1 of the paper) is the distance from the
// operating point pi_orig to the boundary set { pi : g(pi) = level }:
//
//     r = min  || pi - pi_orig ||_2   s.t.  g(pi) = level.
//
// Two solvers are provided, in decreasing order of assumptions:
//   * kktNewton — damped Newton on the KKT system; exact for smooth g, one
//                 step for affine g. The paper's recommended convex program
//                 (Section 3.2) solved directly.
//   * raySearch — gradient-alignment fixed-point iteration with random
//                 restarts; derivative-light, robust for convex g.
// solveNearestPoint runs both and keeps the smaller distance.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "robust/numeric/differentiation.hpp"
#include "robust/numeric/vector_ops.hpp"
#include "robust/util/rng.hpp"

namespace robust::num {

/// Gradient callback; when absent, solvers fall back to finite differences.
using GradientField = std::function<Vec(std::span<const double>)>;

/// min ||x - origin||_2 subject to g(x) = level.
struct NearestPointProblem {
  ScalarField g;                ///< impact function (step 3 of FePIA)
  GradientField gradient;       ///< optional analytic gradient of g
  double level = 0.0;           ///< boundary value (beta_min or beta_max)
  Vec origin;                   ///< pi_orig, the assumed operating point
};

/// Result of a nearest-point computation.
struct NearestPointResult {
  Vec point;             ///< boundary point pi_star (Fig. 1)
  double distance = 0.0; ///< the robustness radius candidate
  bool converged = false;
  int iterations = 0;
  std::string method;    ///< which solver produced the result
};

/// Options for the iterative solvers.
struct SolverOptions {
  double tolerance = 1e-9;      ///< KKT / fixed-point residual tolerance
  int maxIterations = 100;      ///< Newton or alignment iterations
  int restarts = 8;             ///< random restarts (raySearch)
  double searchLimit = 1e9;     ///< max ray length when bracketing crossings
  std::uint64_t seed = 0x5eedULL;  ///< randomized-solver seed
};

/// Distance from `origin` to the crossing of g(origin + t * direction) = level
/// for t > 0, or nullopt when the ray never crosses within options.searchLimit.
[[nodiscard]] std::optional<double> crossingAlongRay(
    const ScalarField& g, double level, std::span<const double> origin,
    std::span<const double> direction, double searchLimit);

/// Damped Newton iteration on the KKT conditions
///   x - origin + nu * grad g(x) = 0,   g(x) = level.
/// Globally convergent in practice for smooth convex g via backtracking on
/// the KKT residual; throws ConvergenceError when it cannot reach tolerance.
[[nodiscard]] NearestPointResult kktNewton(const NearestPointProblem& problem,
                                           const SolverOptions& options = {});

/// Gradient-alignment fixed point: repeatedly shoot a ray, land on the
/// boundary, and re-aim along the boundary-point gradient (the KKT
/// stationarity direction). Multi-started; returns the best crossing found.
[[nodiscard]] NearestPointResult raySearch(const NearestPointProblem& problem,
                                           const SolverOptions& options = {});

/// Production entry point: kktNewton, falling back to raySearch when Newton
/// fails to converge (non-smooth or awkwardly-conditioned g).
[[nodiscard]] NearestPointResult solveNearestPoint(
    const NearestPointProblem& problem, const SolverOptions& options = {});

}  // namespace robust::num

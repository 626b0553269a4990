// Discrete perturbation parameters: beyond the floor rule.
//
// Section 3.2 of the paper treats the integer-valued sensor-load vector as
// continuous and floors the metric. That is safe but can be pessimistic:
// the nearest *integer* perturbation that actually violates a bound can be
// strictly farther than the continuous boundary (the boundary may pass
// between lattice points). The author's thesis (ref [1]) discusses
// bracketing the boundary with the closest discrete values; this module
// implements that idea as certified bounds on the exact lattice radius.
//
// Definitions, for an integer-valued parameter with origin pi_orig:
//   * lower bound  = the continuous metric rho (every perturbation — integer
//     or not — with norm <= rho is safe).
//   * upper bound  = the distance of the nearest VIOLATING lattice point
//     found; no integer perturbation with norm < upper has been proven safe
//     unless `exact` is set, in which case upper IS the minimum violating
//     lattice distance and every integer perturbation with norm < upper is
//     safe.
#pragma once

#include <cstddef>

#include "robust/core/compiled.hpp"

namespace robust::core {

/// Certified bounds on the exact integer-lattice robustness.
struct DiscreteRadiusBounds {
  double lower = 0.0;        ///< continuous (unfloored) metric
  double upper = 0.0;        ///< nearest violating lattice distance found
                             ///< (+inf when none was found)
  num::Vec violatingPoint;   ///< the certificate attaining `upper`
  bool exact = false;        ///< upper is the true lattice minimum
};

/// Options for the lattice search.
struct DiscreteOptions {
  /// Half-width of the integer box explored around each feature's
  /// continuous boundary point (the cheap certificate search).
  int neighborhoodRadius = 2;
  /// When the continuous metric does not exceed this value, run the
  /// exhaustive shell enumeration and return an exact result. Cost grows
  /// like (2r)^dim — keep it small for high-dimensional parameters.
  double exhaustiveLimit = 12.0;
  /// Hard cap on lattice points examined by the exhaustive search.
  std::size_t maxPoints = 4000000;
};

/// Computes certified discrete-radius bounds for a compiled problem whose
/// perturbation parameter is integer-valued (parameter().discrete). The
/// origin must itself be a lattice point. Throws InvalidArgumentError on a
/// non-discrete parameter or non-integer origin.
[[nodiscard]] DiscreteRadiusBounds discreteRadiusBounds(
    const CompiledProblem& problem, const DiscreteOptions& options = {});

}  // namespace robust::core

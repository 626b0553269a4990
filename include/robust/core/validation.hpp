// Empirical validation of a computed robustness metric.
//
// The metric's operational claim (Sections 3.1/3.2): *any* perturbation whose
// norm does not exceed rho leaves every feature within bounds. This module
// checks that claim by sampling — used by the test suites as an oracle that
// is independent of every solver, and exposed publicly because downstream
// users will want the same sanity check on their own derivations.
#pragma once

#include <cstdint>

#include "robust/core/compiled.hpp"

namespace robust::core {

/// Outcome of a sampling validation run.
struct ValidationResult {
  int samplesInside = 0;       ///< perturbations drawn with ||delta|| <= r
  int violationsInside = 0;    ///< of those, how many violated a bound
                               ///< (must be 0 if r <= true radius)
  int samplesAtBoundary = 0;   ///< perturbations drawn at ||delta|| ~ r * margin
  int violationsAtBoundary = 0;///< violations just beyond the radius (> 0
                               ///< indicates the radius is tight, not slack)
};

/// Options for validateRadius.
struct ValidationOptions {
  int samples = 2000;          ///< draws per regime
  double boundaryMargin = 1.05;///< "just beyond" factor for tightness probes
  std::uint64_t seed = 99;     ///< sampling seed
};

/// Samples perturbations of norm <= radius (uniform direction, scaled under
/// CompiledProblem::displacementNorm) and counts those that
/// CompiledProblem::violates, so a point that breaks a hard constraint is
/// never a violation; also probes just beyond the radius to detect slack.
/// A correct radius yields violationsInside == 0; a *tight* radius usually
/// yields violationsAtBoundary > 0 (not guaranteed for a margin this small
/// when the boundary is touched at a measure-zero set of directions).
[[nodiscard]] ValidationResult validateRadius(
    const CompiledProblem& problem, double radius,
    const ValidationOptions& options = {});

}  // namespace robust::core

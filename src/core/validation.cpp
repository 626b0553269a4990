#include "robust/core/validation.hpp"

#include "robust/random/distributions.hpp"
#include "robust/util/error.hpp"

namespace robust::core {

namespace {

/// Draws a Gaussian direction into `d` and returns its length under the
/// problem's displacement norm (0 only for the measure-zero zero draw).
double drawDirection(const CompiledProblem& problem, Pcg32& rng,
                     num::Vec& d) {
  for (auto& di : d) {
    di = rnd::standardNormal(rng);
  }
  return problem.displacementNorm(d);
}

}  // namespace

ValidationResult validateRadius(const CompiledProblem& problem,
                                double radius,
                                const ValidationOptions& options) {
  ROBUST_REQUIRE(radius >= 0.0, "validateRadius: negative radius");
  ROBUST_REQUIRE(options.samples > 0, "validateRadius: samples must be > 0");

  const auto& origin = problem.parameter().origin;
  Pcg32 rng(options.seed, /*stream=*/43);
  num::Vec d(origin.size());

  ValidationResult result;
  for (int s = 0; s < options.samples; ++s) {
    // Inside the claimed ball: a uniformly drawn norm in (0, radius]. We
    // only need coverage of the ball, not exact uniformity in volume.
    double length = drawDirection(problem, rng, d);
    ++result.samplesInside;
    if (length > 0.0) {
      const double target = radius * rng.nextDoubleOpen();
      if (problem.violates(num::add(origin, num::scale(d, target / length)))) {
        ++result.violationsInside;
      }
    }
    // Just beyond the claimed ball (tightness probe): fixed norm
    // radius * margin, not uniformly shrunk.
    length = drawDirection(problem, rng, d);
    if (length > 0.0) {
      ++result.samplesAtBoundary;
      if (problem.violates(num::add(
              origin, num::scale(d, radius * options.boundaryMargin /
                                        length)))) {
        ++result.violationsAtBoundary;
      }
    }
  }
  return result;
}

}  // namespace robust::core

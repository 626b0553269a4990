#include "robust/core/validation.hpp"

#include <cmath>

#include "robust/random/distributions.hpp"
#include "robust/util/error.hpp"

namespace robust::core {

namespace {

double normOf(std::span<const double> d, NormKind norm,
              std::span<const double> weights) {
  switch (norm) {
    case NormKind::L1:
      return num::norm1(d);
    case NormKind::L2:
      return num::norm2(d);
    case NormKind::LInf:
      return num::normInf(d);
    case NormKind::Weighted:
      return num::weightedNorm2(d, weights);
  }
  return 0.0;  // unreachable
}

/// Uniform direction on the unit sphere of the requested norm, scaled so its
/// norm equals `radius * u^(1/n)`-style interior coverage. For validation we
/// only need coverage of the ball, not exact uniformity in volume.
num::Vec randomDisplacement(Pcg32& rng, std::size_t n, double radius,
                            NormKind norm, std::span<const double> weights) {
  num::Vec d(n);
  for (auto& di : d) {
    di = rnd::standardNormal(rng);
  }
  const double length = normOf(d, norm, weights);
  if (length <= 0.0) {
    return num::Vec(n, 0.0);
  }
  // Scale to a uniformly-drawn norm in (0, radius].
  const double target = radius * rng.nextDoubleOpen();
  return num::scale(d, target / length);
}

}  // namespace

ValidationResult validateRadius(const CompiledProblem& problem,
                                double radius,
                                const ValidationOptions& options) {
  ROBUST_REQUIRE(radius >= 0.0, "validateRadius: negative radius");
  ROBUST_REQUIRE(options.samples > 0, "validateRadius: samples must be > 0");
  ROBUST_REQUIRE(options.norm != NormKind::Weighted ||
                     options.normWeights.size() ==
                         problem.parameter().origin.size(),
                 "validateRadius: weighted norm requires one weight per "
                 "perturbation component");

  const auto& origin = problem.parameter().origin;
  const std::size_t n = origin.size();
  Pcg32 rng(options.seed, /*stream=*/43);

  ValidationResult result;
  auto allWithinBounds = [&](std::span<const double> point) {
    for (const auto& f : problem.features()) {
      if (!f.bounds.contains(f.impact.evaluate(point))) {
        return false;
      }
    }
    return true;
  };

  for (int s = 0; s < options.samples; ++s) {
    // Inside the claimed ball.
    num::Vec inside = num::add(
        origin,
        randomDisplacement(rng, n, radius, options.norm,
                           options.normWeights));
    ++result.samplesInside;
    if (!allWithinBounds(inside)) {
      ++result.violationsInside;
    }
    // Just beyond the claimed ball (tightness probe): fixed norm
    // radius * margin, not uniformly shrunk.
    num::Vec d =
        randomDisplacement(rng, n, 1.0, options.norm, options.normWeights);
    const double length = normOf(d, options.norm, options.normWeights);
    if (length > 0.0) {
      num::Vec beyond = num::add(
          origin,
          num::scale(d, radius * options.boundaryMargin / length));
      ++result.samplesAtBoundary;
      if (!allWithinBounds(beyond)) {
        ++result.violationsAtBoundary;
      }
    }
  }
  return result;
}


std::vector<ViolationCurvePoint> violationProbabilityCurve(
    const CompiledProblem& problem, std::span<const double> radii,
    const ValidationOptions& options) {
  ROBUST_REQUIRE(options.samples > 0,
                 "violationProbabilityCurve: samples must be > 0");
  const auto& origin = problem.parameter().origin;
  const std::size_t n = origin.size();
  Pcg32 rng(options.seed, /*stream=*/53);

  auto allWithinBounds = [&](std::span<const double> point) {
    for (const auto& f : problem.features()) {
      if (!f.bounds.contains(f.impact.evaluate(point))) {
        return false;
      }
    }
    return true;
  };

  std::vector<ViolationCurvePoint> curve;
  curve.reserve(radii.size());
  for (double radius : radii) {
    ROBUST_REQUIRE(radius >= 0.0,
                   "violationProbabilityCurve: negative radius");
    int violations = 0;
    for (int s = 0; s < options.samples; ++s) {
      num::Vec d =
          randomDisplacement(rng, n, 1.0, options.norm, options.normWeights);
      const double length = normOf(d, options.norm, options.normWeights);
      if (length <= 0.0) {
        continue;
      }
      const num::Vec point =
          num::add(origin, num::scale(d, radius / length));
      violations += !allWithinBounds(point);
    }
    curve.push_back(ViolationCurvePoint{
        radius,
        static_cast<double>(violations) / static_cast<double>(options.samples)});
  }
  return curve;
}

}  // namespace robust::core

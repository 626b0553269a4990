#include "robust/core/boundary_trace.hpp"

#include <cmath>

#include "robust/util/error.hpp"

namespace robust::core {

std::vector<BoundarySample> traceBoundary2D(
    const CompiledProblem& problem, std::size_t featureIndex,
    const BoundaryTraceOptions& options) {
  ROBUST_REQUIRE(featureIndex < problem.featureCount(),
                 "traceBoundary2D: feature index out of range");
  ROBUST_REQUIRE(problem.parameter().origin.size() == 2,
                 "traceBoundary2D: requires a 2-D perturbation parameter");
  ROBUST_REQUIRE(options.rays >= 4, "traceBoundary2D: need at least 4 rays");

  const PerformanceFeature& feature = problem.features()[featureIndex];
  const double level = feature.bounds.max ? *feature.bounds.max
                                          : *feature.bounds.min;
  const num::ScalarField g = feature.impact.field();
  const num::Vec& origin = problem.parameter().origin;

  std::vector<BoundarySample> samples;
  samples.reserve(static_cast<std::size_t>(options.rays));
  for (int r = 0; r < options.rays; ++r) {
    const double angle = 2.0 * 3.141592653589793 * static_cast<double>(r) /
                         static_cast<double>(options.rays);
    const num::Vec direction = {std::cos(angle), std::sin(angle)};
    const auto t = num::crossingAlongRay(g, level, origin, direction,
                                         options.searchLimit);
    if (!t) {
      continue;  // this ray never reaches the boundary
    }
    BoundarySample sample;
    sample.angle = angle;
    sample.point = origin;
    num::axpy(*t, direction, sample.point);
    sample.distance = *t;
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace robust::core

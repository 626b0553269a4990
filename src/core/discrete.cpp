#include "robust/core/discrete.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "robust/util/error.hpp"

namespace robust::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Recursively enumerates integer offsets d with ||d||_2 <= limit, calling
/// visit(point) for each lattice point origin + d. Returns false when the
/// point budget is exhausted.
bool enumerateShell(const num::Vec& origin, double limit, std::size_t dim,
                    num::Vec& point, double usedSq, std::size_t& budget,
                    const std::function<bool(const num::Vec&)>& visit) {
  if (dim == origin.size()) {
    if (budget == 0) {
      return false;
    }
    --budget;
    return visit(point);
  }
  const double remaining = limit * limit - usedSq;
  const auto span = static_cast<long>(std::floor(std::sqrt(
      std::max(0.0, remaining))));
  for (long step = -span; step <= span; ++step) {
    const auto offset = static_cast<double>(step);
    point[dim] = origin[dim] + offset;
    if (!enumerateShell(origin, limit, dim + 1, point,
                        usedSq + offset * offset, budget, visit)) {
      return false;
    }
  }
  return true;
}

}  // namespace

DiscreteRadiusBounds discreteRadiusBounds(const CompiledProblem& problem,
                                          const DiscreteOptions& options) {
  const auto& parameter = problem.parameter();
  ROBUST_REQUIRE(parameter.discrete,
                 "discreteRadiusBounds: parameter is not discrete");
  for (double v : parameter.origin) {
    ROBUST_REQUIRE(v == std::floor(v),
                   "discreteRadiusBounds: origin is not a lattice point");
  }
  ROBUST_REQUIRE(problem.subspaces().size() == 1 &&
                     problem.options().norm == NormKind::L2,
                 "discreteRadiusBounds: the lattice search measures L2 "
                 "distance and needs one L2 perturbation subspace");
  ROBUST_REQUIRE(options.neighborhoodRadius >= 1,
                 "discreteRadiusBounds: neighborhoodRadius must be >= 1");

  DiscreteRadiusBounds bounds;
  bounds.upper = kInf;

  // Continuous analysis: the unfloored minimum radius is the lower bound,
  // and each feature's boundary point seeds the certificate search.
  const std::size_t n = parameter.origin.size();
  std::vector<num::Vec> boundaryPoints;
  bounds.lower = kInf;
  for (std::size_t i = 0; i < problem.featureCount(); ++i) {
    const RadiusReport radius = problem.radiusOf(i);
    if (std::isfinite(radius.radius)) {
      bounds.lower = std::min(bounds.lower, radius.radius);
      if (!radius.boundaryPoint.empty()) {
        boundaryPoints.push_back(radius.boundaryPoint);
      }
    }
  }
  ROBUST_REQUIRE(std::isfinite(bounds.lower),
                 "discreteRadiusBounds: no reachable boundary");

  auto consider = [&](const num::Vec& candidate) {
    const double dist = num::distance2(candidate, parameter.origin);
    if (dist < bounds.upper && problem.violates(candidate)) {
      bounds.upper = dist;
      bounds.violatingPoint = candidate;
    }
  };

  // Cheap certificate search: integer boxes around each continuous boundary
  // point (a violating lattice point usually sits just outside the
  // boundary there).
  for (const auto& boundary : boundaryPoints) {
    num::Vec base(n);
    for (std::size_t i = 0; i < n; ++i) {
      base[i] = std::round(boundary[i]);
    }
    // Enumerate the (2k+1)^n box around the rounded boundary point.
    num::Vec candidate(base);
    std::vector<int> offset(n, -options.neighborhoodRadius);
    for (;;) {
      for (std::size_t i = 0; i < n; ++i) {
        candidate[i] = base[i] + offset[i];
      }
      consider(candidate);
      std::size_t d = 0;
      while (d < n && ++offset[d] > options.neighborhoodRadius) {
        offset[d] = -options.neighborhoodRadius;
        ++d;
      }
      if (d == n) {
        break;
      }
    }
  }

  // Exhaustive shell enumeration for small radii: proves minimality.
  if (bounds.lower <= options.exhaustiveLimit) {
    // Any violating lattice point within this limit would have been at
    // distance >= lower; the rounded-outward boundary point guarantees one
    // exists within lower + sqrt(n), so the search is conclusive whenever
    // the budget suffices.
    const double limit =
        std::min(bounds.upper,
                 bounds.lower + std::sqrt(static_cast<double>(n)) + 1.0);
    std::size_t budget = options.maxPoints;
    num::Vec point(n);
    double bestExhaustive = kInf;
    num::Vec bestPoint;
    const bool completed = enumerateShell(
        parameter.origin, limit, 0, point, 0.0, budget,
        [&](const num::Vec& candidate) {
          const double dist = num::distance2(candidate, parameter.origin);
          if (dist < bestExhaustive && dist > 0.0 &&
              problem.violates(candidate)) {
            bestExhaustive = dist;
            bestPoint = candidate;
          }
          return true;
        });
    if (completed) {
      if (bestExhaustive < bounds.upper) {
        bounds.upper = bestExhaustive;
        bounds.violatingPoint = std::move(bestPoint);
      }
      // Exact whenever the enumeration covered every point closer than the
      // reported upper bound.
      bounds.exact = bounds.upper <= limit;
    }
  }
  return bounds;
}

}  // namespace robust::core

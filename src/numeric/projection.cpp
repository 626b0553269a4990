#include "robust/numeric/projection.hpp"

#include <algorithm>
#include <cmath>

#include "robust/util/error.hpp"

namespace robust::num {

namespace {

/// Iteration budget of both projection routines; an intersection not
/// reached within it is reported empty.
constexpr std::size_t kMaxIterations = 4000;

/// Projects `x` onto one halfspace in place. A zero normal is rejected at
/// the call boundary, so the division is safe.
void projectHalfspace(const Halfspace& h, Vec& x) {
  const double v = dot(h.normal, x);
  const bool violated = h.geq ? v < h.offset : v > h.offset;
  if (!violated) {
    return;
  }
  const double n2 = dot(h.normal, h.normal);
  axpy((h.offset - v) / n2, h.normal, x);
}

/// Projects `x` onto one block ball in place.
void projectBall(const BlockBall& b, Vec& x) {
  double sumSq = 0.0;
  for (std::size_t i = 0; i < b.center.size(); ++i) {
    const double d = x[b.offset + i] - b.center[i];
    sumSq += d * d;
  }
  const double dist = std::sqrt(sumSq);
  if (dist <= b.radius) {
    return;
  }
  const double scale = b.radius / dist;
  for (std::size_t i = 0; i < b.center.size(); ++i) {
    x[b.offset + i] = b.center[i] + (x[b.offset + i] - b.center[i]) * scale;
  }
}

double ballViolation(const BlockBall& b, std::span<const double> x) {
  double sumSq = 0.0;
  for (std::size_t i = 0; i < b.center.size(); ++i) {
    const double d = x[b.offset + i] - b.center[i];
    sumSq += d * d;
  }
  return std::max(0.0, std::sqrt(sumSq) - b.radius);
}

void validate(std::span<const Halfspace> halfspaces,
              std::span<const BlockBall> balls, std::size_t dim) {
  for (const Halfspace& h : halfspaces) {
    ROBUST_REQUIRE(h.normal.size() == dim,
                   "projection: halfspace dimension mismatch");
    ROBUST_REQUIRE(norm2(h.normal) > 0.0,
                   "projection: halfspace normal must be nonzero");
  }
  for (const BlockBall& b : balls) {
    ROBUST_REQUIRE(b.offset + b.center.size() <= dim,
                   "projection: ball block out of range");
    ROBUST_REQUIRE(b.radius >= 0.0,
                   "projection: ball radius must be non-negative");
  }
}

}  // namespace

double halfspaceViolation(const Halfspace& h, std::span<const double> x) {
  const double v = dot(h.normal, x);
  const double excess = h.geq ? h.offset - v : v - h.offset;
  return excess <= 0.0 ? 0.0 : excess / norm2(h.normal);
}

double maxViolation(std::span<const Halfspace> halfspaces,
                    std::span<const BlockBall> balls,
                    std::span<const double> x) {
  double worst = 0.0;
  for (const Halfspace& h : halfspaces) {
    worst = std::max(worst, halfspaceViolation(h, x));
  }
  for (const BlockBall& b : balls) {
    worst = std::max(worst, ballViolation(b, x));
  }
  return worst;
}

ProjectionResult projectOntoIntersection(std::span<const Halfspace> halfspaces,
                                         std::span<const double> x0) {
  validate(halfspaces, {}, x0.size());
  ProjectionResult result;
  result.point.assign(x0.begin(), x0.end());
  if (halfspaces.empty()) {
    result.converged = true;
    return result;
  }

  // Dykstra: one correction vector per set. For halfspaces the corrections
  // stay rank-one (a multiple of the normal), but the dense form keeps the
  // loop obvious and the sets are few (one violation boundary plus a
  // handful of capacity rows).
  std::vector<Vec> corrections(halfspaces.size(), Vec(x0.size(), 0.0));
  Vec before(x0.size());
  for (std::size_t it = 0; it < kMaxIterations; ++it) {
    for (std::size_t s = 0; s < halfspaces.size(); ++s) {
      for (std::size_t k = 0; k < result.point.size(); ++k) {
        before[k] = result.point[k] + corrections[s][k];
      }
      result.point = before;
      projectHalfspace(halfspaces[s], result.point);
      for (std::size_t k = 0; k < result.point.size(); ++k) {
        corrections[s][k] = before[k] - result.point[k];
      }
    }
    result.iterations = it + 1;
    result.residual = maxViolation(halfspaces, {}, result.point);
    if (result.residual <= kProjectionTolerance) {
      result.converged = true;
      return result;
    }
  }
  result.residual = maxViolation(halfspaces, {}, result.point);
  result.converged = result.residual <= kProjectionTolerance;
  return result;
}

ProjectionResult feasiblePoint(std::span<const Halfspace> halfspaces,
                               std::span<const BlockBall> balls,
                               std::span<const double> start) {
  validate(halfspaces, balls, start.size());
  ProjectionResult result;
  result.point.assign(start.begin(), start.end());
  for (std::size_t it = 0; it < kMaxIterations; ++it) {
    for (const Halfspace& h : halfspaces) {
      projectHalfspace(h, result.point);
    }
    for (const BlockBall& b : balls) {
      projectBall(b, result.point);
    }
    result.iterations = it + 1;
    result.residual = maxViolation(halfspaces, balls, result.point);
    if (result.residual <= kProjectionTolerance) {
      result.converged = true;
      return result;
    }
  }
  result.converged = result.residual <= kProjectionTolerance;
  return result;
}

}  // namespace robust::num

#include "robust/curve/drift.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "robust/core/row_radius.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/util/error.hpp"

namespace robust::curve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

DriftTracker::DriftTracker(const core::CompiledProblem& problem,
                           double threshold)
    : problem_(&problem), threshold_(threshold) {
  ROBUST_REQUIRE(problem.closedFormLane(),
                 "DriftTracker: requires an unconstrained continuous affine "
                 "problem on the analytic kernel lane");
  ROBUST_REQUIRE(std::isfinite(threshold),
                 "DriftTracker: threshold must be finite");
  origin_ = problem.parameter_.origin;
  anchor_ = origin_;
  dots_ = problem.dotOrigin_;  // the compile-cached exact blocked dots
  recomputeRho();
  anchorRho_ = rho_;
}

void DriftTracker::recomputeRho() {
  const core::CompiledProblem& p = *problem_;
  double best = kInf;
  std::size_t bestFeature = 0;
  for (std::size_t f = 0; f < p.features_.size(); ++f) {
    const std::size_t row = p.rowIndex_[f];
    double radius;
    if (core::affineRowRadius(dots_[row] + p.constants_[f], p.effDual_[row],
                              p.features_[f].bounds, radius, best) &&
        radius < best) {
      best = radius;
      bestFeature = f;
    }
  }
  rho_ = best;
  binding_ = bestFeature;
}

DriftStatus DriftTracker::applyUpdate(std::size_t component,
                                      double newValue) {
  ROBUST_REQUIRE(component < origin_.size(),
                 "DriftTracker::applyUpdate: component out of range");
  ROBUST_REQUIRE(std::isfinite(newValue),
                 "DriftTracker::applyUpdate: value must be finite");
  const core::CompiledProblem& p = *problem_;
  const double dv = newValue - origin_[component];
  origin_[component] = newValue;
  if (dv != 0.0) {
    // One origin component moves each row dot by w[row][k] * dv: O(rows),
    // a strided column walk of the packed weight matrix.
    const double* column = p.weights_.data() + component;
    const std::size_t rows = dots_.size();
    for (std::size_t r = 0; r < rows; ++r) {
      dots_[r] += column[r * p.dim_] * dv;
    }
  }
  const bool wasBelow = rho_ < threshold_;
  recomputeRho();
  ++updates_;

  DriftStatus status;
  status.rho = rho_;
  status.bindingFeature = binding_;
  status.crossedBelow = !wasBelow && rho_ < threshold_;
  status.updates = updates_;

  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kUpdates =
        obs::counterId("curve.drift.updates");
    obs::addCounter(kUpdates);
    if (status.crossedBelow) {
      static const obs::MetricId kCrossings =
          obs::counterId("curve.drift.crossings");
      obs::addCounter(kCrossings);
    }
  }
  return status;
}

void DriftTracker::rebase() {
  const core::CompiledProblem& p = *problem_;
  if (!dots_.empty()) {
    num::simd::dotRowsBlocked(p.weights_.data(), dots_.size(),
                              {origin_.data(), origin_.size()},
                              dots_.data());
  }
  recomputeRho();
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kRebases =
        obs::counterId("curve.drift.rebases");
    obs::addCounter(kRebases);
  }
}

double DriftTracker::driftDistance() const {
  num::Vec delta(origin_.size());
  for (std::size_t k = 0; k < origin_.size(); ++k) {
    delta[k] = origin_[k] - anchor_[k];
  }
  return problem_->displacementNorm(delta);
}

double DriftTracker::rhoLowerBound() const {
  if (!std::isfinite(anchorRho_)) {
    return 0.0;  // +inf anchor rho carries no finite Lipschitz bound down
  }
  return std::max(0.0, anchorRho_ - driftDistance());
}

double DriftTracker::rhoUpperBound() const {
  if (!std::isfinite(anchorRho_)) {
    return anchorRho_;
  }
  return anchorRho_ + driftDistance();
}

}  // namespace robust::curve

// Online drift lane: track rho under streaming perturbation-origin updates
// without re-running the analysis.
//
// Long-running systems watch their assumed operating point drift (measured
// execution times creep, sensor loads trend). Re-compiling or even
// re-evaluating the full metric per update is O(rows x dim); but a
// single-component origin change dv only moves each affine row's dot by
// w[row][k] * dv, so the tracker maintains the per-row origin dots
// incrementally — O(rows) per update — and re-minimizes rho over the rows'
// closed-form radii, also O(rows). No CompiledProblem evaluation runs on
// the update path (pinned by the core.evaluations counter in tests).
//
// The tracker also relates the drifted operating point back to the anchor
// (compiled) origin: the violating region is fixed and rho is its distance
// from the operating point, so translating the origin by a displacement of
// norm D moves rho by at most D (distance to a fixed set is 1-Lipschitz
// under the same norm). rhoLowerBound() / rhoUpperBound() expose that
// bracket — the invariant rebase() and the tests pin around the exactly
// maintained rho. Every per-sample critical radius of a degradation curve
// at the drifted origin is >= rho (Hoelder), so rho() is also a running
// floor under the whole drifted curve without recomputing it. When rho
// crosses below a caller-chosen threshold the status says so, letting
// callers deterministically re-trigger a mapping search (see
// examples/drift_reallocation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "robust/core/compiled.hpp"
#include "robust/curve/curve.hpp"

namespace robust::curve {

/// Outcome of one streamed update.
struct DriftStatus {
  double rho = 0.0;               ///< the metric at the drifted origin
  std::size_t bindingFeature = 0; ///< argmin feature index
  bool crossedBelow = false;      ///< THIS update moved rho from
                                  ///< >= threshold to < threshold
  std::uint64_t updates = 0;      ///< total updates applied so far
};

/// Incremental rho maintenance over an affine kernel-lane problem.
/// Requires metricKernelLane(), a single continuous subspace, no callable
/// features, and no feasibility constraints (throws InvalidArgumentError
/// otherwise — those lanes have no per-row closed form to maintain). Rho
/// is the metric lane's row rule (robust/core/row_radius.hpp), so a
/// constant feature the origin does not violate throws, as on every lane.
class DriftTracker {
 public:
  DriftTracker(const core::CompiledProblem& problem, double threshold);

  /// Applies one origin-component update and returns the refreshed
  /// status. O(rows) — never evaluates the compiled problem.
  DriftStatus applyUpdate(std::size_t component, double newValue);

  /// Recomputes the row dots exactly with the blocked kernels, flushing
  /// the rounding accumulated by incremental +='s. Call sparingly (e.g.
  /// every ~1e6 updates); the anchor origin is NOT moved.
  void rebase();

  [[nodiscard]] double rho() const noexcept { return rho_; }
  [[nodiscard]] std::size_t bindingFeature() const noexcept {
    return binding_;
  }
  [[nodiscard]] double threshold() const noexcept { return threshold_; }
  [[nodiscard]] std::uint64_t updates() const noexcept { return updates_; }

  /// The metric at the anchor origin (computed once at construction).
  [[nodiscard]] double anchorRho() const noexcept { return anchorRho_; }

  /// The drifted operating point.
  [[nodiscard]] std::span<const double> origin() const noexcept {
    return {origin_.data(), origin_.size()};
  }

  /// Displacement norm between the drifted origin and the anchor (the
  /// compiled origin the reference curve was computed at).
  [[nodiscard]] double driftDistance() const;

  /// Lipschitz bracket on the drifted rho from the anchor rho alone:
  /// anchorRho() -/+ driftDistance(), floored at 0. The tracker maintains
  /// rho exactly, so rhoLowerBound() <= rho() <= rhoUpperBound() is an
  /// invariant (pinned by tests); the bracket is what a consumer WITHOUT
  /// the update stream could still conclude from the drift distance, and
  /// rhoLowerBound() in particular floors every critical radius of the
  /// drifted degradation curve.
  [[nodiscard]] double rhoLowerBound() const;
  [[nodiscard]] double rhoUpperBound() const;

 private:
  void recomputeRho();

  const core::CompiledProblem* problem_;
  double threshold_;
  num::Vec origin_;   ///< drifted operating point
  num::Vec anchor_;   ///< compiled origin (curve reference)
  num::Vec dots_;     ///< per affine row: row . origin_
  double rho_ = 0.0;
  double anchorRho_ = 0.0;
  std::size_t binding_ = 0;
  std::uint64_t updates_ = 0;
};

}  // namespace robust::curve

// Incremental evaluation of the Section 3.1 makespan/robustness pair for
// mapping search.
//
// The search heuristics (local search, annealing, GA, tabu) score thousands
// of candidate mappings that differ from the incumbent by one reassignment.
// Rebuilding an IndependentTaskSystem per candidate costs O(apps + machines)
// plus several allocations; the evaluators here answer the same query from
// cached state:
//
//   - `ScratchEvaluator`: from-scratch O(apps + machines) evaluation with
//     reused buffers and zero steady-state allocations (the population /
//     arbitrary-genome path).
//   - `IncrementalEvaluator`: stateful tryMove/commit/revert around one
//     incumbent mapping. A candidate re-sums only the two touched
//     machines' finishing times (O(n(m_j)) average = apps/machines) and
//     re-minimizes the Eq. 6 radii in one O(machines) scan of the dense
//     load/count arrays.
//
// Exactness contract: every result is BIT-IDENTICAL to
// IndependentTaskSystem::analyze() on the corresponding mapping — same
// makespan, same Eq. 7 metric, same binding machine. This holds because the
// evaluators replay the exact float operations of the from-scratch path:
// per-machine finishing times are re-summed in ascending application-index
// order (the `finishingTimes` accumulation order; float addition is not
// associative, so incremental += / -= replay would drift), and the
// max/argmin reductions use the same strict comparisons as `analyze()`.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "robust/scheduling/etc.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/scheduling/mapping.hpp"

namespace robust::sched {

/// The per-candidate quantities mapping search needs: the predicted makespan,
/// the Eq. 7 metric, and the machine whose Eq. 6 radius attains it.
struct EvalResult {
  double makespan = 0.0;
  double robustness = std::numeric_limits<double>::infinity();
  std::size_t bindingMachine = 0;
};

/// From-scratch evaluation with reusable buffers: O(apps + machines) per
/// call, no allocations after the first. Exactly matches
/// IndependentTaskSystem::analyze() on the same assignment.
class ScratchEvaluator {
 public:
  /// Binds the ETC matrix and tolerance (tau >= 1, as in
  /// IndependentTaskSystem).
  ScratchEvaluator(const EtcMatrix& etc, double tau);

  [[nodiscard]] double tau() const noexcept { return tau_; }

  /// Evaluates an assignment vector (one machine index per application;
  /// every entry must be < etc.machines()).
  [[nodiscard]] EvalResult evaluate(std::span<const std::size_t> assignment);

 private:
  const EtcMatrix* etc_;
  double tau_;
  std::vector<double> load_;
  std::vector<std::size_t> count_;
  std::vector<double> sqrtCount_;  ///< sqrt(c) for c = 0..apps (exact: IEEE
                                   ///< sqrt is correctly rounded)
};

/// Always-on work counters for one evaluator: how many candidates were
/// scored as cheap deltas (moves) vs. full O(apps + machines)
/// rebuilds. Plain non-atomic members incremented on the hot path — one
/// register add, far below the per-probe work, so they cost nothing
/// measurable even with observability disabled. publishStats() flushes them
/// to the obs registry (sched.inc_*) in one batch. Copies of an evaluator
/// carry their own counts.
struct IncrementalStats {
  std::uint64_t moves = 0;     ///< tryMove probes (delta evaluations)
  std::uint64_t commits = 0;   ///< staged candidates applied
  std::uint64_t rebuilds = 0;  ///< full from-scratch re-evaluations
};

/// Stateful incremental evaluator around one incumbent mapping.
///
/// Protocol: `tryMove` scores a candidate WITHOUT changing the incumbent and
/// stages it as pending; `commit()` applies the staged candidate; `revert()`
/// discards it. Staging is overwritten by the next try, so
/// reject-and-continue loops need no explicit revert.
///
/// Copyable (parallel neighborhood scans give each worker its own copy).
class IncrementalEvaluator {
 public:
  IncrementalEvaluator(const EtcMatrix& etc, Mapping start, double tau);

  [[nodiscard]] const Mapping& mapping() const noexcept { return mapping_; }
  [[nodiscard]] double tau() const noexcept { return tau_; }

  /// The incumbent's analysis (cached; O(1)).
  [[nodiscard]] const EvalResult& current() const noexcept { return current_; }

  /// Scores reassigning `app` to `machine`. A no-op move (machine already
  /// assigned) returns `current()` and stages nothing.
  EvalResult tryMove(std::size_t app, std::size_t machine);

  /// Applies the staged candidate. Returns false when nothing is staged.
  bool commit();

  /// Discards the staged candidate (the incumbent was never modified).
  void revert() noexcept { pending_.active = false; }

  /// Work performed by this evaluator since construction (or the last
  /// publishStats()).
  [[nodiscard]] const IncrementalStats& stats() const noexcept {
    return stats_;
  }

  /// Flushes stats() to the obs counters (sched.inc_moves / inc_commits /
  /// inc_rebuilds) when recording is enabled, then zeroes them. Search
  /// drivers call this once per search, keeping the per-probe hot path free
  /// of any observability cost.
  void publishStats();

 private:
  // One staged candidate: `app` moved from machine `from` to `to`, both
  // machines with re-summed loads and adjusted counts.
  struct Pending {
    bool active = false;
    std::size_t app = 0;
    std::size_t from = 0, to = 0;
    double loadFrom = 0.0, loadTo = 0.0;     ///< their new finishing times
    std::size_t countFrom = 0, countTo = 0;  ///< their new app counts
    EvalResult result;
  };

  /// Finishing time of machine `j` with `skip` removed and `add` inserted
  /// (either may be kNone), summed in ascending application-index order.
  [[nodiscard]] double resum(std::size_t j, std::size_t skip,
                             std::size_t add) const;

  /// (makespan, metric, binding) with machines `ta`/`tb` overridden to the
  /// given loads/counts; all other machines read from committed state. It
  /// temporarily writes the overrides into the committed arrays (and
  /// restores them), so it is non-const.
  [[nodiscard]] EvalResult evaluateTouched(std::size_t ta, double la,
                                           std::size_t ca, std::size_t tb,
                                           double lb, std::size_t cb);

  void rebuild();

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  const EtcMatrix* etc_;
  double tau_;
  Mapping mapping_;
  std::vector<double> load_;                       ///< F_j per machine
  std::vector<std::size_t> count_;                 ///< n(m_j) per machine
  std::vector<std::vector<std::size_t>> machineApps_;  ///< sorted app ids
  std::vector<double> sqrtCount_;                  ///< sqrt(c), c = 0..apps
  EvalResult current_;
  Pending pending_;
  IncrementalStats stats_;
  // Neighborhood scans probe the same app against every machine; the
  // app-removal re-sum of its source machine is identical across those
  // probes, so tryMove caches it until the incumbent changes.
  std::size_t cachedRemovalApp_ = kNone;
  double cachedRemovalLoad_ = 0.0;
};

}  // namespace robust::sched

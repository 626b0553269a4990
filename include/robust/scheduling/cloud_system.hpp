// A replicated cloud allocation as a constrained, multi-subspace FePIA
// instance.
//
// CloudSystem is the first consumer of the generalized perturbation model:
// the paper's independent-task system (Section 4) extended with machine
// memory capacities, task replication, and a joint perturbation space. Each
// of T tasks runs R replicas (active replication: every replica executes),
// each replica occupying one SLOT of a slot-encoded sched::Mapping with
// apps() == T * R — slot t*R + r is replica r of task t. The perturbation
// vector concatenates two subspaces:
//
//   s — per-task size multipliers (dim T, origin 1, L2): the actual work of
//       task t is s_t times its estimate, scaling compute AND memory;
//   d — per-machine load offsets (dim M, origin 0, L2): background load
//       added to a machine's finishing time.
//
// Finishing-time features F_j = sum_{slots on j} etc(t, j) * s_t + d_j must
// stay within tau * (predicted makespan), and hard memory constraints
// sum_{slots on j} mem_t * s_t <= capacity_j clamp the radius search to the
// feasible region — a mapping that overcommits memory at the origin is
// reported infeasible (RobustnessReport::infeasibleOrigin), not merely
// fragile. Machine drop-outs are the discrete axis: failureRadius() is the
// number of simultaneous machine failures every task is guaranteed to
// survive (core/failure.hpp), which replication onto distinct hosts raises.
#pragma once

#include <cstddef>

#include "robust/core/compiled.hpp"
#include "robust/core/failure.hpp"
#include "robust/scheduling/etc.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/mapping.hpp"

namespace robust::sched {

/// A cloud allocation problem: tasks with memory demands, machines with
/// memory capacities, R-fold replication, and a makespan tolerance.
struct CloudScenario {
  EtcMatrix etc;             ///< estimated execution time, task x machine
  num::Vec memDemand;        ///< per-task memory demand (one replica's)
  num::Vec memCapacity;      ///< per-machine memory capacity
  std::size_t replication = 1;  ///< replicas per task (>= 1)
  double tau = 1.2;          ///< makespan tolerance (Eq. 6), >= 1
};

/// Options for the replication-aware robustness search objective.
/// Tiered weights for the search objective. The tiers are lexicographic by
/// construction: the failure radius dominates the distinct-host bonus,
/// which dominates the (capped) continuous metric.
struct CloudObjectiveOptions {
  /// Weight of the failure radius: one extra survivable machine failure
  /// outweighs any separation or rho improvement.
  double failureWeight = 1e6;
  /// Penalty floor for memory-infeasible mappings (their total overcommit
  /// is added on top so search can still descend toward feasibility).
  double infeasiblePenalty = 1e9;
  /// Reward per distinct replica host beyond the first, summed over tasks.
  /// The failure radius is a min over tasks, so separating one co-located
  /// pair at a time is invisible to it until the last pair; this tier makes
  /// each separating move strictly improving. rho is capped at half this
  /// weight so separation always wins over the metric.
  double distinctHostWeight = 1e2;
};

class CloudSystem {
 public:
  explicit CloudSystem(CloudScenario scenario);

  [[nodiscard]] const CloudScenario& scenario() const noexcept {
    return scenario_;
  }
  [[nodiscard]] std::size_t tasks() const noexcept {
    return scenario_.etc.apps();
  }
  [[nodiscard]] std::size_t machines() const noexcept {
    return scenario_.etc.machines();
  }
  /// Slots in a mapping for this scenario: tasks() * replication.
  [[nodiscard]] std::size_t slots() const noexcept {
    return tasks() * scenario_.replication;
  }
  /// Task owning a slot (slot t*R + r is replica r of task t).
  [[nodiscard]] std::size_t taskOfSlot(std::size_t slot) const;

  /// Memory-oblivious greedy placement: tasks in index order, each replica
  /// to the machine with the least accumulated finishing time among the
  /// machines not yet hosting this task (falling back to all machines when
  /// R > M). Deliberately ignores memory — on a memory-tight scenario it
  /// produces an origin-infeasible mapping that analyze() rejects.
  [[nodiscard]] Mapping greedyMapping() const;

  /// Total memory overcommit at the origin (s = 1): sum over machines of
  /// max(0, demand on machine - capacity). Zero iff the mapping is feasible.
  [[nodiscard]] double memoryViolation(const Mapping& mapping) const;

  /// True when no machine's memory capacity is exceeded at the origin.
  [[nodiscard]] bool isFeasible(const Mapping& mapping) const;

  /// Predicted makespan at the origin: max_j sum_{slots on j} etc(t, j).
  [[nodiscard]] double predictedMakespan(const Mapping& mapping) const;

  /// The discrete failure model of a mapping: per task, the machines
  /// hosting its replicas.
  [[nodiscard]] core::FailureModel failureModel(const Mapping& mapping) const;

  /// Machine failures every task is guaranteed to survive:
  /// min over tasks of (distinct replica hosts - 1).
  [[nodiscard]] std::size_t failureRadius(const Mapping& mapping) const;

  /// The constrained two-subspace FePIA derivation of a mapping (see the
  /// file comment for the feature/constraint algebra).
  [[nodiscard]] core::ProblemSpec toSpec(
      const Mapping& mapping, core::AnalyzerOptions options = {}) const;

  /// Compile + evaluate toSpec(). An origin-infeasible mapping yields
  /// metric 0 with RobustnessReport::infeasibleOrigin set.
  [[nodiscard]] core::RobustnessReport analyze(
      const Mapping& mapping, core::AnalyzerOptions options = {}) const;

  /// Replication-aware search objective (to MINIMIZE): infeasible mappings
  /// cost infeasiblePenalty + overcommit; feasible ones score
  /// -(failureWeight * failureRadius + distinctHostWeight * separation
  ///   + capped rho),
  /// so search first maximizes survivable failures, then replica
  /// separation, then the continuous constrained metric. Usable with the
  /// shape-generic localSearch / annealMapping / geneticAlgorithm over
  /// (slots(), machines()).
  [[nodiscard]] MappingObjective searchObjective(
      CloudObjectiveOptions objectiveOptions = {},
      core::AnalyzerOptions analyzerOptions = {}) const;

  /// Steepest-descent local search over single-slot reassignments on
  /// searchObjective(). The returned mapping is feasible whenever any
  /// feasible mapping is reachable from `start` by such moves.
  [[nodiscard]] Mapping improve(Mapping start, int maxRounds = 50) const;

 private:
  CloudScenario scenario_;
};

}  // namespace robust::sched

// Baseline mapping heuristics for the independent-task system.
//
// The paper evaluates 1000 uniformly random mappings; its reference [7]
// (Braun et al. 2001) compares a standard battery of static heuristics.
// These are implemented here both as baselines and as the inputs to
// robustness-aware mapping studies: every iterative heuristic accepts an
// arbitrary objective, so mappings can be optimized for makespan (classic)
// or directly for the robustness metric (Eq. 7).
//
// Each iterative algorithm has one search loop. The single-move searches
// have two entry points that differ only in how a candidate is scored: the
// shape-generic overloads take any MappingObjective over (apps x machines)
// mappings, and the EtcObjective overloads score the standard ETC
// objectives with the incremental engine (robust/scheduling/incremental.hpp).
// For the same objective, seed and options the two return the same mapping.
// The genetic algorithm takes an EtcObjective only.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "robust/scheduling/etc.hpp"
#include "robust/scheduling/mapping.hpp"
#include "robust/util/rng.hpp"

namespace robust::sched {

/// Objective to MINIMIZE over mappings.
using MappingObjective = std::function<double(const Mapping&)>;

/// Structured description of the standard ETC objectives. The iterative
/// optimizers recognize this form and score candidates with the incremental
/// evaluation engine (robust/scheduling/incremental.hpp) — O(apps/machines)
/// amortized per candidate instead of an O(apps + machines) system rebuild —
/// while producing results bit-identical to the generic MappingObjective
/// closures below (the engine replays the exact analyze() float operations).
/// Custom objectives keep using the MappingObjective overloads.
struct EtcObjective {
  enum class Kind {
    Makespan,           ///< minimize the makespan
    NegatedRobustness,  ///< maximize the Eq. 7 metric (see the factory docs)
    CappedRobustness,   ///< maximize the metric s.t. makespan <= makespanCap
  };
  Kind kind = Kind::Makespan;
  double tau = 1.2;          ///< tolerance; used by the robustness kinds
  double makespanCap = 0.0;  ///< used by CappedRobustness only

  [[nodiscard]] static EtcObjective makespan();
  [[nodiscard]] static EtcObjective negatedRobustness(double tau);
  [[nodiscard]] static EtcObjective cappedRobustness(double tau,
                                                     double makespanCap);

  /// The value to minimize, given a candidate's makespan and Eq. 7 metric.
  /// Identical arithmetic to the matching MappingObjective closure.
  [[nodiscard]] double score(double makespanValue, double robustness) const;

  /// The equivalent generic closure (for optimizers without a structured
  /// overload, and for cross-checking the incremental path in tests).
  [[nodiscard]] MappingObjective generic(const EtcMatrix& etc) const;
};

/// Classic objective: the makespan of the mapping.
[[nodiscard]] MappingObjective makespanObjective(const EtcMatrix& etc);

/// Robustness-aware objective: the negated Eq. 7 metric (so minimizing it
/// maximizes robustness) with tolerance `tau`. Beware: because Eq. 6 scales
/// with tau * M_orig, UNCONSTRAINED robustness maximization inflates the
/// makespan (a longer schedule tolerates absolutely larger ETC errors);
/// combine with a makespan cap for meaningful trade-off studies.
[[nodiscard]] MappingObjective negatedRobustnessObjective(const EtcMatrix& etc,
                                                          double tau);

/// Robustness maximization subject to makespan <= makespanCap: mappings
/// violating the cap are penalized by their excess, steering search back
/// into the feasible region. This is the practical "most robust mapping
/// that is still fast" formulation.
[[nodiscard]] MappingObjective cappedRobustnessObjective(const EtcMatrix& etc,
                                                         double tau,
                                                         double makespanCap);

/// Round-robin assignment: app i -> machine i mod |M|.
[[nodiscard]] Mapping roundRobinMapping(const EtcMatrix& etc);

/// OLB (opportunistic load balancing): each application, in index order, goes
/// to the machine that becomes available earliest, ignoring the app's ETC.
[[nodiscard]] Mapping olbMapping(const EtcMatrix& etc);

/// MET (minimum execution time): each application goes to the machine with
/// its smallest ETC, ignoring machine availability.
[[nodiscard]] Mapping metMapping(const EtcMatrix& etc);

/// MCT (minimum completion time): each application, in index order, goes to
/// the machine minimizing availability + ETC.
[[nodiscard]] Mapping mctMapping(const EtcMatrix& etc);

/// Min-min: repeatedly pick the unmapped application whose best completion
/// time is smallest and commit it to that machine.
[[nodiscard]] Mapping minMinMapping(const EtcMatrix& etc);

/// Max-min: repeatedly pick the unmapped application whose best completion
/// time is LARGEST and commit it to that machine.
[[nodiscard]] Mapping maxMinMapping(const EtcMatrix& etc);

/// Sufferage: repeatedly pick the unmapped application that would "suffer"
/// most (largest gap between its best and second-best completion times) and
/// commit it to its best machine.
[[nodiscard]] Mapping sufferageMapping(const EtcMatrix& etc);

/// Greedy robustness-aware list heuristic: applications are committed in
/// decreasing order of their minimum ETC, each to the machine that
/// maximizes the partial mapping's NORMALIZED robustness rho / M (Eq. 7
/// over the applications mapped so far, divided by the partial makespan —
/// the normalization removes the metric's makespan-inflation degeneracy).
/// Ties break toward the smaller completion time. A constructive
/// counterpart to optimizing cappedRobustnessObjective.
[[nodiscard]] Mapping greedyRobustMapping(const EtcMatrix& etc, double tau);

/// Duplex (Braun et al.): run both min-min and max-min and keep the mapping
/// with the smaller makespan.
[[nodiscard]] Mapping duplexMapping(const EtcMatrix& etc);

/// Options for tabu search.
struct TabuOptions {
  int iterations = 500;     ///< neighborhood evaluations
  int tenure = 40;          ///< how long a visited move stays tabu
  int patience = 120;       ///< stop after this many non-improving moves
};

/// Tabu search over single-application reassignments: each step moves to
/// the best non-tabu neighbor (even if worse — that is how it escapes local
/// optima), records the inverse move as tabu for `tenure` steps (aspiration:
/// a tabu move that beats the incumbent is allowed), and returns the best
/// mapping seen.
[[nodiscard]] Mapping tabuSearch(const EtcMatrix& etc, Mapping start,
                                 const MappingObjective& objective,
                                 const TabuOptions& options = {});

/// Steepest-descent local search over single-application reassignments for
/// an arbitrary assignment problem: only the mapping shape (apps x
/// machines) and the objective are needed. This is the entry point for
/// non-ETC systems (e.g. maximizing the HiPer-D robustness metric through
/// hiperd::robustnessObjective) and for custom ETC objectives (pass
/// etc.apps(), etc.machines()). The scan is serial: a MappingObjective is not
/// known to be thread-safe. Throws InvalidArgumentError unless maxRounds > 0.
[[nodiscard]] Mapping localSearch(std::size_t apps, std::size_t machines,
                                  Mapping start,
                                  const MappingObjective& objective,
                                  int maxRounds = 1000);

/// Options for the incremental local search overload.
struct LocalSearchOptions {
  int maxRounds = 1000;
  /// Neighborhood-scan workers: 1 = serial, 0 = defaultThreadCount()
  /// (ROBUST_THREADS / hardware). The scan partitions applications into
  /// contiguous blocks and reduces block winners with the deterministic
  /// tie-break "lowest (app, machine) wins", so the chosen move — and hence
  /// the final mapping — is bit-identical for every thread count.
  std::size_t threads = 1;
};

/// Steepest-descent local search on a standard ETC objective, scored by the
/// incremental evaluation engine. Bit-identical to the shape-generic
/// overload with `objective.generic(etc)`; optionally evaluates the
/// neighborhood in parallel (see LocalSearchOptions::threads).
[[nodiscard]] Mapping localSearch(const EtcMatrix& etc, Mapping start,
                                  const EtcObjective& objective,
                                  const LocalSearchOptions& options = {});

/// Options for simulated annealing.
struct AnnealingOptions {
  int iterations = 20000;
  double initialTemperature = 1.0;  ///< scaled by the start objective value
  double coolingRate = 0.999;
  std::uint64_t seed = 1;
};

/// Simulated annealing over single-application reassignments for an
/// arbitrary assignment problem: only the mapping shape (apps x machines)
/// and the objective are needed. This is the entry point for non-ETC
/// systems (e.g. maximizing the HiPer-D robustness metric over mappings).
[[nodiscard]] Mapping annealMapping(std::size_t apps, std::size_t machines,
                                    Mapping start,
                                    const MappingObjective& objective,
                                    const AnnealingOptions& options = {});

/// Simulated annealing on a standard ETC objective, scored incrementally
/// (one tryMove per proposal instead of a full system rebuild). Runs the
/// annealMapping loop, so for the same seed it returns exactly the mapping
/// annealMapping returns on `objective.generic(etc)`.
[[nodiscard]] Mapping simulatedAnnealing(const EtcMatrix& etc, Mapping start,
                                         const EtcObjective& objective,
                                         const AnnealingOptions& options = {});

/// Options for the genetic algorithm.
struct GeneticOptions {
  int populationSize = 60;
  int generations = 200;
  double crossoverRate = 0.9;
  double mutationRate = 0.05;   ///< per-gene reassignment probability
  int tournamentSize = 3;
  int eliteCount = 2;
  std::uint64_t seed = 1;
};

/// Genetic algorithm over assignment vectors on a standard ETC objective
/// (uniform crossover, per-gene mutation, tournament selection, elitism).
/// Individuals are scored with the reusable-buffer ScratchEvaluator (no
/// per-evaluation Mapping construction or allocation), and no generation
/// allocates.
[[nodiscard]] Mapping geneticAlgorithm(const EtcMatrix& etc, Mapping seedMapping,
                                       const EtcObjective& objective,
                                       const GeneticOptions& options = {});

/// Registry entry for the constructive heuristics, used by the comparison
/// example/bench to iterate over all of them.
struct HeuristicEntry {
  std::string name;
  Mapping (*build)(const EtcMatrix&);
};

/// All constructive (non-randomized) heuristics above.
[[nodiscard]] const std::vector<HeuristicEntry>& constructiveHeuristics();

}  // namespace robust::sched

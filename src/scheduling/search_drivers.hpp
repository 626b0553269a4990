// One search loop per single-move algorithm (localSearch, annealing, tabu),
// shared by the public entry points in heuristics.cpp. Each driver is a
// template over a move evaluator with IncrementalEvaluator's protocol:
// `tryMove(app, machine)` scores a reassignment and stages it without
// touching the incumbent `mapping()`, the next try overwrites it (a no-op
// try stages nothing), `commit()` applies it and `revert()` drops it;
// `value()` is the incumbent's objective value and `publishStats()` flushes
// work counters to obs once per search. Templates, not virtual calls, keep
// the EtcObjective probe loop as tight as a hand-written one.
//
// Every driver scans and draws in a fixed order, so equal objective values
// give equal mappings whichever evaluator scores them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/incremental.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::sched::detail {

/// Validates an EtcObjective and returns the tolerance to construct
/// evaluators with (the Makespan kind never reads the metric, so any valid
/// tau will do).
inline double evaluatorTau(const EtcObjective& objective) {
  if (objective.kind == EtcObjective::Kind::Makespan) {
    return std::max(1.0, objective.tau);
  }
  ROBUST_REQUIRE(objective.tau >= 1.0, "EtcObjective: tau must be >= 1");
  if (objective.kind == EtcObjective::Kind::CappedRobustness) {
    ROBUST_REQUIRE(objective.makespanCap > 0.0,
                   "EtcObjective: cap must be positive");
  }
  return objective.tau;
}

/// The incremental evaluation engine scored by a standard ETC objective.
class EtcMoves {
 public:
  EtcMoves(const EtcMatrix& etc, Mapping start, const EtcObjective& objective)
      : objective_(objective),
        evaluator_(etc, std::move(start), evaluatorTau(objective)) {}

  [[nodiscard]] double value() const { return score(evaluator_.current()); }
  double tryMove(std::size_t app, std::size_t machine) {
    return score(evaluator_.tryMove(app, machine));
  }
  bool commit() { return evaluator_.commit(); }
  void revert() noexcept { evaluator_.revert(); }
  [[nodiscard]] const Mapping& mapping() const noexcept {
    return evaluator_.mapping();
  }
  void publishStats() { evaluator_.publishStats(); }

 private:
  [[nodiscard]] double score(const EvalResult& result) const {
    return objective_.score(result.makespan, result.robustness);
  }

  EtcObjective objective_;
  IncrementalEvaluator evaluator_;
};

/// Any MappingObjective over a Mapping of a given shape: a try applies the
/// move, calls the objective once and restores the incumbent.
class ObjectiveMoves {
 public:
  ObjectiveMoves(const char* caller, std::size_t apps, std::size_t machines,
                 Mapping start, const MappingObjective& objective)
      : objective_(&objective), mapping_(std::move(start)) {
    ROBUST_REQUIRE(static_cast<bool>(objective),
                   std::string(caller) + ": null objective");
    ROBUST_REQUIRE(mapping_.apps() == apps && mapping_.machines() == machines,
                   std::string(caller) + ": start mapping shape mismatch");
    value_ = objective(mapping_);
  }

  [[nodiscard]] double value() const noexcept { return value_; }
  double tryMove(std::size_t app, std::size_t machine) {
    const std::size_t from = mapping_.machineOf(app);
    staged_ = machine != from;
    if (staged_) {
      mapping_.assign(app, machine);
      stagedValue_ = (*objective_)(mapping_);
      mapping_.assign(app, from);
      stagedApp_ = app;
      stagedMachine_ = machine;
    }
    return staged_ ? stagedValue_ : value_;
  }
  bool commit() {
    if (staged_) {
      mapping_.assign(stagedApp_, stagedMachine_);
      value_ = stagedValue_;
    }
    return std::exchange(staged_, false);
  }
  void revert() noexcept { staged_ = false; }
  [[nodiscard]] const Mapping& mapping() const noexcept { return mapping_; }
  void publishStats() noexcept {}

 private:
  const MappingObjective* objective_;
  Mapping mapping_;
  double value_ = 0.0;
  bool staged_ = false;
  std::size_t stagedApp_ = 0;
  std::size_t stagedMachine_ = 0;
  double stagedValue_ = 0.0;
};

/// Steepest descent over single-application reassignments with a
/// `threads`-worker neighborhood scan (0 = defaultThreadCount()). Each
/// worker holds a copy of the evaluator tracking the same incumbent; the
/// scan only tries moves, so the workers share nothing, and the chosen move
/// is committed to every copy.
template <class Moves>
Mapping localSearchDriver(Moves moves, int maxRounds, std::size_t threads) {
  ROBUST_REQUIRE(maxRounds > 0, "localSearch: maxRounds must be > 0");
  const obs::Span span("sched.localSearch");
  const std::size_t apps = moves.mapping().apps();
  const std::size_t machines = moves.mapping().machines();
  const std::size_t workers =
      std::max<std::size_t>(1, shardParticipants(apps, threads));
  double currentValue = moves.value();
  std::vector<Moves> evaluators;
  evaluators.reserve(workers);
  evaluators.push_back(std::move(moves));
  while (evaluators.size() < workers) {
    evaluators.push_back(evaluators.front());
  }

  // A block's best strictly improving move; value == currentValue if none.
  struct BlockBest {
    double value = 0.0;
    std::size_t app = 0;
    std::size_t machine = 0;
  };
  std::vector<BlockBest> blockBests(workers, BlockBest{currentValue});
  const std::size_t chunk = (apps + workers - 1) / workers;
  auto scanBlock = [&](std::size_t w, std::size_t) {
    Moves& evaluator = evaluators[w];
    const std::size_t lo = w * chunk;
    const std::size_t hi = std::min(apps, lo + chunk);
    // Strict < on an ascending (app, machine) scan: the block winner is the
    // lowest-(app, machine) minimizer, the deterministic tie-break rule.
    BlockBest best{currentValue};
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t original = evaluator.mapping().machineOf(i);
      for (std::size_t j = 0; j < machines; ++j) {
        if (j == original) {
          continue;
        }
        const double value = evaluator.tryMove(i, j);
        if (value < best.value) {
          best = {value, i, j};
        }
      }
    }
    evaluator.revert();
    blockBests[w] = best;
  };

  for (int round = 0; round < maxRounds; ++round) {
    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kRounds =
          obs::counterId("sched.search_rounds");
      static const obs::MetricId kProbes =
          obs::counterId("sched.search_probes");
      obs::addCounter(kRounds);
      obs::addCounter(kProbes, apps * (machines - 1));
    }
    forEachShard(workers, workers, scanBlock);
    // Reduce block winners in ascending block order with strict <, so the
    // global winner is again the lowest-(app, machine) minimizer — exactly
    // the move the serial scan picks, for any worker count.
    BlockBest best{currentValue};
    for (const BlockBest& candidate : blockBests) {
      if (candidate.value < best.value) {
        best = candidate;
      }
    }
    if (!(best.value < currentValue)) {
      break;
    }
    for (Moves& evaluator : evaluators) {
      evaluator.tryMove(best.app, best.machine);
      evaluator.commit();
    }
    currentValue = best.value;
  }
  for (Moves& evaluator : evaluators) {
    evaluator.publishStats();
  }
  return evaluators[0].mapping();
}

/// Simulated annealing over single-application reassignments; returns the
/// best mapping visited.
template <class Moves>
Mapping annealDriver(Moves moves, const AnnealingOptions& options) {
  ROBUST_REQUIRE(options.iterations > 0 && options.coolingRate > 0.0 &&
                     options.coolingRate < 1.0,
                 "annealMapping: invalid options");
  const obs::Span span("sched.anneal");
  const auto apps = static_cast<std::uint32_t>(moves.mapping().apps());
  const auto machines = static_cast<std::uint32_t>(moves.mapping().machines());
  Pcg32 rng(options.seed, /*stream=*/7);
  double currentValue = moves.value();
  Mapping best = moves.mapping();
  double bestValue = currentValue;

  double temperature =
      options.initialTemperature * std::max(1.0, std::fabs(currentValue));
  for (int iter = 0; iter < options.iterations; ++iter) {
    const auto app = static_cast<std::size_t>(rng.nextBounded(apps));
    const std::size_t original = moves.mapping().machineOf(app);
    const auto machine = static_cast<std::size_t>(rng.nextBounded(machines));
    if (machine == original) {
      continue;
    }
    const double value = moves.tryMove(app, machine);
    const double delta = value - currentValue;
    if (delta <= 0.0 ||
        rng.nextDouble() < std::exp(-delta / std::max(temperature, 1e-12))) {
      moves.commit();
      currentValue = value;
      if (value < bestValue) {
        bestValue = value;
        best = moves.mapping();
      }
    } else {
      moves.revert();
    }
    temperature *= options.coolingRate;
  }
  moves.publishStats();
  return best;
}

/// Tabu search: each step takes the best non-tabu neighbor (aspiration
/// admits a tabu move that beats the incumbent) and forbids its undo for
/// `tenure` steps; returns the best mapping seen.
template <class Moves>
Mapping tabuDriver(Moves moves, const TabuOptions& options) {
  ROBUST_REQUIRE(options.iterations > 0 && options.tenure > 0 &&
                     options.patience > 0,
                 "tabuSearch: invalid options");
  const obs::Span span("sched.tabu");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t apps = moves.mapping().apps();
  const std::size_t machines = moves.mapping().machines();
  Mapping best = moves.mapping();
  double bestValue = moves.value();

  // tabuUntil[app][machine]: iteration until which assigning `app` back to
  // `machine` is forbidden (the inverse-move convention).
  std::vector<std::vector<int>> tabuUntil(apps, std::vector<int>(machines, -1));
  int sinceImprovement = 0;

  for (int iter = 0; iter < options.iterations; ++iter) {
    double moveValue = kInf;
    std::size_t moveApp = 0;
    std::size_t moveMachine = 0;
    for (std::size_t i = 0; i < apps; ++i) {
      const std::size_t original = moves.mapping().machineOf(i);
      for (std::size_t j = 0; j < machines; ++j) {
        if (j == original) {
          continue;
        }
        const double value = moves.tryMove(i, j);
        // Aspiration: a tabu move that improves on the incumbent is allowed.
        if (tabuUntil[i][j] > iter && value >= bestValue) {
          continue;
        }
        if (value < moveValue) {
          moveValue = value;
          moveApp = i;
          moveMachine = j;
        }
      }
    }
    if (moveValue == kInf) {
      break;  // entire neighborhood tabu and non-aspiring
    }
    const std::size_t from = moves.mapping().machineOf(moveApp);
    moves.tryMove(moveApp, moveMachine);
    moves.commit();
    tabuUntil[moveApp][from] = iter + options.tenure;  // forbid the undo
    if (moveValue < bestValue) {
      bestValue = moveValue;
      best = moves.mapping();
      sinceImprovement = 0;
    } else if (++sinceImprovement >= options.patience) {
      break;
    }
  }
  moves.publishStats();
  return best;
}

}  // namespace robust::sched::detail

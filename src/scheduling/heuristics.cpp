#include "robust/scheduling/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "robust/obs/trace.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"
#include "search_drivers.hpp"

namespace robust::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Shared machinery for the list heuristics: pick-and-commit loops over
/// (application, machine) completion times.
struct ListState {
  explicit ListState(const EtcMatrix& matrix)
      : etc(matrix),
        available(matrix.machines(), 0.0),
        assignment(matrix.apps(), 0),
        mapped(matrix.apps(), false) {}

  const EtcMatrix& etc;
  std::vector<double> available;  ///< machine availability times
  std::vector<std::size_t> assignment;
  std::vector<bool> mapped;

  /// Best (machine, completion time) for application `i` given availability.
  [[nodiscard]] std::pair<std::size_t, double> bestCompletion(
      std::size_t i) const {
    std::size_t bestM = 0;
    double bestCt = kInf;
    for (std::size_t j = 0; j < etc.machines(); ++j) {
      const double ct = available[j] + etc(i, j);
      if (ct < bestCt) {
        bestCt = ct;
        bestM = j;
      }
    }
    return {bestM, bestCt};
  }

  void commit(std::size_t app, std::size_t machine) {
    assignment[app] = machine;
    available[machine] += etc(app, machine);
    mapped[app] = true;
  }

  [[nodiscard]] Mapping toMapping() && {
    return Mapping(std::move(assignment), etc.machines());
  }
};

}  // namespace

EtcObjective EtcObjective::makespan() { return {Kind::Makespan, 1.2, 0.0}; }

EtcObjective EtcObjective::negatedRobustness(double tau) {
  return {Kind::NegatedRobustness, tau, 0.0};
}

EtcObjective EtcObjective::cappedRobustness(double tau, double makespanCap) {
  return {Kind::CappedRobustness, tau, makespanCap};
}

double EtcObjective::score(double makespanValue, double robustness) const {
  switch (kind) {
    case Kind::Makespan:
      return makespanValue;
    case Kind::NegatedRobustness:
      return -robustness;
    case Kind::CappedRobustness:
      if (makespanValue > makespanCap) {
        return makespanValue - makespanCap;  // infeasible: positive
      }
      return -robustness;  // feasible: negative
  }
  return 0.0;  // unreachable
}

MappingObjective EtcObjective::generic(const EtcMatrix& etc) const {
  switch (kind) {
    case Kind::Makespan:
      return makespanObjective(etc);
    case Kind::NegatedRobustness:
      return negatedRobustnessObjective(etc, tau);
    case Kind::CappedRobustness:
      return cappedRobustnessObjective(etc, tau, makespanCap);
  }
  return {};  // unreachable
}

MappingObjective makespanObjective(const EtcMatrix& etc) {
  return [&etc](const Mapping& mapping) { return makespan(etc, mapping); };
}

MappingObjective negatedRobustnessObjective(const EtcMatrix& etc, double tau) {
  return [&etc, tau](const Mapping& mapping) {
    const IndependentTaskSystem system(etc, mapping, tau);
    return -system.analyze().robustness;
  };
}

MappingObjective cappedRobustnessObjective(const EtcMatrix& etc, double tau,
                                           double makespanCap) {
  ROBUST_REQUIRE(makespanCap > 0.0,
                 "cappedRobustnessObjective: cap must be positive");
  return [&etc, tau, makespanCap](const Mapping& mapping) {
    const double ms = makespan(etc, mapping);
    if (ms > makespanCap) {
      return ms - makespanCap;  // infeasible: positive, decreasing to 0
    }
    const IndependentTaskSystem system(etc, mapping, tau);
    return -system.analyze().robustness;  // feasible: negative
  };
}

Mapping roundRobinMapping(const EtcMatrix& etc) {
  std::vector<std::size_t> assignment(etc.apps());
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    assignment[i] = i % etc.machines();
  }
  return Mapping(std::move(assignment), etc.machines());
}

Mapping olbMapping(const EtcMatrix& etc) {
  ListState state(etc);
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    const auto earliest =
        std::min_element(state.available.begin(), state.available.end());
    state.commit(i, static_cast<std::size_t>(
                        earliest - state.available.begin()));
  }
  return std::move(state).toMapping();
}

Mapping metMapping(const EtcMatrix& etc) {
  std::vector<std::size_t> assignment(etc.apps());
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    std::size_t bestM = 0;
    for (std::size_t j = 1; j < etc.machines(); ++j) {
      if (etc(i, j) < etc(i, bestM)) {
        bestM = j;
      }
    }
    assignment[i] = bestM;
  }
  return Mapping(std::move(assignment), etc.machines());
}

Mapping mctMapping(const EtcMatrix& etc) {
  ListState state(etc);
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    state.commit(i, state.bestCompletion(i).first);
  }
  return std::move(state).toMapping();
}

Mapping minMinMapping(const EtcMatrix& etc) {
  ListState state(etc);
  for (std::size_t round = 0; round < etc.apps(); ++round) {
    std::size_t pickApp = 0;
    std::size_t pickMachine = 0;
    double pickCt = kInf;
    for (std::size_t i = 0; i < etc.apps(); ++i) {
      if (state.mapped[i]) {
        continue;
      }
      const auto [m, ct] = state.bestCompletion(i);
      if (ct < pickCt) {
        pickCt = ct;
        pickApp = i;
        pickMachine = m;
      }
    }
    state.commit(pickApp, pickMachine);
  }
  return std::move(state).toMapping();
}

Mapping maxMinMapping(const EtcMatrix& etc) {
  ListState state(etc);
  for (std::size_t round = 0; round < etc.apps(); ++round) {
    std::size_t pickApp = 0;
    std::size_t pickMachine = 0;
    double pickCt = -kInf;
    for (std::size_t i = 0; i < etc.apps(); ++i) {
      if (state.mapped[i]) {
        continue;
      }
      const auto [m, ct] = state.bestCompletion(i);
      if (ct > pickCt) {
        pickCt = ct;
        pickApp = i;
        pickMachine = m;
      }
    }
    state.commit(pickApp, pickMachine);
  }
  return std::move(state).toMapping();
}

Mapping sufferageMapping(const EtcMatrix& etc) {
  ListState state(etc);
  for (std::size_t round = 0; round < etc.apps(); ++round) {
    std::size_t pickApp = 0;
    std::size_t pickMachine = 0;
    double pickSufferage = -kInf;
    for (std::size_t i = 0; i < etc.apps(); ++i) {
      if (state.mapped[i]) {
        continue;
      }
      // Best and second-best completion times for app i.
      double best = kInf;
      double second = kInf;
      std::size_t bestM = 0;
      for (std::size_t j = 0; j < etc.machines(); ++j) {
        const double ct = state.available[j] + etc(i, j);
        if (ct < best) {
          second = best;
          best = ct;
          bestM = j;
        } else if (ct < second) {
          second = ct;
        }
      }
      const double sufferage = second == kInf ? 0.0 : second - best;
      if (sufferage > pickSufferage) {
        pickSufferage = sufferage;
        pickApp = i;
        pickMachine = bestM;
      }
    }
    state.commit(pickApp, pickMachine);
  }
  return std::move(state).toMapping();
}

Mapping duplexMapping(const EtcMatrix& etc) {
  Mapping minMin = minMinMapping(etc);
  Mapping maxMin = maxMinMapping(etc);
  return makespan(etc, minMin) <= makespan(etc, maxMin) ? minMin : maxMin;
}

Mapping tabuSearch(const EtcMatrix& etc, Mapping start,
                   const MappingObjective& objective,
                   const TabuOptions& options) {
  return detail::tabuDriver(
      detail::ObjectiveMoves("tabuSearch", etc.apps(), etc.machines(),
                             std::move(start), objective),
      options);
}

Mapping greedyRobustMapping(const EtcMatrix& etc, double tau) {
  ROBUST_REQUIRE(tau >= 1.0, "greedyRobustMapping: tau must be >= 1");

  // Commit the "biggest" applications first (largest minimum ETC), the
  // classic list-scheduling order that leaves small tasks for balancing.
  std::vector<std::size_t> order(etc.apps());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::vector<double> minEtc(etc.apps(), kInf);
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    for (std::size_t j = 0; j < etc.machines(); ++j) {
      minEtc[i] = std::min(minEtc[i], etc(i, j));
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return minEtc[a] > minEtc[b];
  });

  std::vector<double> load(etc.machines(), 0.0);
  std::vector<std::size_t> count(etc.machines(), 0);
  std::vector<std::size_t> assignment(etc.apps(), 0);

  // Normalized partial-mapping robustness: Eq. 7 over the committed
  // applications, divided by the partial makespan. The normalization
  // removes the metric's makespan-inflation degeneracy (Eq. 6 scales with
  // tau * M, so raw rho rewards piling work onto one machine); rho / M is
  // scale-free and rewards balanced, genuinely robust placements.
  auto normalizedRobustness = [&]() {
    double makespanNow = 0.0;
    for (double f : load) {
      makespanNow = std::max(makespanNow, f);
    }
    double rho = kInf;
    for (std::size_t j = 0; j < etc.machines(); ++j) {
      if (count[j] > 0) {
        rho = std::min(rho, (tau * makespanNow - load[j]) /
                                std::sqrt(static_cast<double>(count[j])));
      }
    }
    return rho / makespanNow;
  };

  for (std::size_t app : order) {
    std::size_t bestMachine = 0;
    double bestRho = -kInf;
    double bestCompletion = kInf;
    for (std::size_t j = 0; j < etc.machines(); ++j) {
      load[j] += etc(app, j);
      ++count[j];
      const double rho = normalizedRobustness();
      const double completion = load[j];
      load[j] -= etc(app, j);
      --count[j];
      if (rho > bestRho ||
          (rho == bestRho && completion < bestCompletion)) {
        bestRho = rho;
        bestCompletion = completion;
        bestMachine = j;
      }
    }
    assignment[app] = bestMachine;
    load[bestMachine] += etc(app, bestMachine);
    ++count[bestMachine];
  }
  return Mapping(std::move(assignment), etc.machines());
}

Mapping localSearch(std::size_t apps, std::size_t machines, Mapping start,
                    const MappingObjective& objective, int maxRounds) {
  // A MappingObjective is not known to be thread-safe: serial scan.
  return detail::localSearchDriver(
      detail::ObjectiveMoves("localSearch", apps, machines, std::move(start),
                             objective),
      maxRounds, 1);
}

Mapping localSearch(const EtcMatrix& etc, Mapping start,
                    const EtcObjective& objective,
                    const LocalSearchOptions& options) {
  return detail::localSearchDriver(
      detail::EtcMoves(etc, std::move(start), objective), options.maxRounds,
      options.threads);
}

Mapping annealMapping(std::size_t apps, std::size_t machines, Mapping start,
                      const MappingObjective& objective,
                      const AnnealingOptions& options) {
  return detail::annealDriver(
      detail::ObjectiveMoves("annealMapping", apps, machines,
                             std::move(start), objective),
      options);
}

Mapping simulatedAnnealing(const EtcMatrix& etc, Mapping start,
                           const EtcObjective& objective,
                           const AnnealingOptions& options) {
  return detail::annealDriver(
      detail::EtcMoves(etc, std::move(start), objective), options);
}

Mapping geneticAlgorithm(const EtcMatrix& etc, Mapping seedMapping,
                         const EtcObjective& objective,
                         const GeneticOptions& options) {
  ScratchEvaluator scratch(etc, detail::evaluatorTau(objective));
  ROBUST_REQUIRE(options.populationSize >= 2 && options.generations > 0 &&
                     options.tournamentSize >= 1 && options.eliteCount >= 0 &&
                     options.eliteCount < options.populationSize,
                 "geneticAlgorithm: invalid options");
  const std::size_t apps = etc.apps();
  ROBUST_REQUIRE(
      seedMapping.apps() == apps && seedMapping.machines() == etc.machines(),
      "geneticAlgorithm: seed mapping does not match the shape");
  const obs::Span span("sched.genetic");
  Pcg32 rng(options.seed, /*stream=*/11);
  const auto machines = static_cast<std::uint32_t>(etc.machines());
  const auto size = static_cast<std::size_t>(options.populationSize);
  const auto elites = static_cast<std::size_t>(options.eliteCount);
  // A genome's objective value; smaller is better.
  const auto score = [&](const std::vector<std::size_t>& genes) {
    const EvalResult result = scratch.evaluate(genes);
    return objective.score(result.makespan, result.robustness);
  };

  struct Individual {
    std::vector<std::size_t> genes;
    double fitness;
  };

  std::vector<Individual> population;
  population.reserve(size);
  population.push_back(
      {seedMapping.assignment(), score(seedMapping.assignment())});
  while (population.size() < size) {
    std::vector<std::size_t> genes(apps);
    for (auto& g : genes) {
      g = rng.nextBounded(machines);
    }
    const double fitness = score(genes);
    population.push_back({std::move(genes), fitness});
  }
  // The next generation is written in place into this second buffer of
  // full-size genomes, swapped with the population after each generation,
  // so no generation allocates.
  std::vector<Individual> next(size, {std::vector<std::size_t>(apps), 0.0});

  auto byFitness = [](const Individual& a, const Individual& b) {
    return a.fitness < b.fitness;
  };

  auto tournament = [&]() -> const Individual& {
    const Individual* winner = nullptr;
    for (int t = 0; t < options.tournamentSize; ++t) {
      const auto idx = static_cast<std::size_t>(
          rng.nextBounded(static_cast<std::uint32_t>(size)));
      if (winner == nullptr || population[idx].fitness < winner->fitness) {
        winner = &population[idx];
      }
    }
    return *winner;
  };

  for (int gen = 0; gen < options.generations; ++gen) {
    std::sort(population.begin(), population.end(), byFitness);
    for (std::size_t e = 0; e < elites; ++e) {
      next[e] = population[e];
    }
    for (std::size_t c = elites; c < size; ++c) {
      const Individual& parentA = tournament();
      const Individual& parentB = tournament();
      std::vector<std::size_t>& child = next[c].genes;
      if (rng.nextDouble() < options.crossoverRate) {
        // Uniform crossover by mask select: next() * 2^-32 is exact, so
        // nextDouble() < 0.5 holds exactly when next() < 2^31.
        for (std::size_t i = 0; i < apps; ++i) {
          const std::size_t takeA = rng.next() < 0x80000000u;
          const std::size_t a = parentA.genes[i];
          const std::size_t b = parentB.genes[i];
          child[i] = b ^ ((a ^ b) & (0 - takeA));
        }
      } else {
        child = parentA.genes;
      }
      for (std::size_t i = 0; i < apps; ++i) {
        if (rng.nextDouble() < options.mutationRate) {
          child[i] = rng.nextBounded(machines);
        }
      }
      next[c].fitness = score(child);
    }
    std::swap(population, next);
  }
  const auto best = std::min_element(population.begin(), population.end(),
                                     byFitness);
  return Mapping(best->genes, etc.machines());
}

const std::vector<HeuristicEntry>& constructiveHeuristics() {
  static const std::vector<HeuristicEntry> entries = {
      {"round-robin", &roundRobinMapping}, {"olb", &olbMapping},
      {"met", &metMapping},                {"mct", &mctMapping},
      {"min-min", &minMinMapping},         {"max-min", &maxMinMapping},
      {"sufferage", &sufferageMapping},    {"duplex", &duplexMapping},
  };
  return entries;
}

}  // namespace robust::sched

// Tests for the baseline mapping heuristics and the robustness-aware
// iterative optimizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/util/error.hpp"

namespace robust::sched {
namespace {

EtcMatrix tinyEtc() {
  // 3 apps x 2 machines; designed so each heuristic's choice is traceable.
  EtcMatrix etc(3, 2);
  etc(0, 0) = 2.0;  etc(0, 1) = 4.0;
  etc(1, 0) = 3.0;  etc(1, 1) = 1.0;
  etc(2, 0) = 6.0;  etc(2, 1) = 5.0;
  return etc;
}

EtcMatrix randomEtc(std::uint64_t seed, std::size_t apps = 20,
                    std::size_t machines = 5) {
  EtcOptions options;
  options.apps = apps;
  options.machines = machines;
  Pcg32 rng(seed);
  return generateEtc(options, rng);
}

// ---------------------------------------------------------- constructive

TEST(Heuristics, RoundRobinCycles) {
  const EtcMatrix etc = tinyEtc();
  const Mapping m = roundRobinMapping(etc);
  EXPECT_EQ(m.assignment(), (std::vector<std::size_t>{0, 1, 0}));
}

TEST(Heuristics, MetPicksFastestMachinePerApp) {
  const EtcMatrix etc = tinyEtc();
  const Mapping m = metMapping(etc);
  EXPECT_EQ(m.assignment(), (std::vector<std::size_t>{0, 1, 1}));
}

TEST(Heuristics, MctTracksAvailability) {
  const EtcMatrix etc = tinyEtc();
  // app0 -> m0 (2 < 4). app1: m0 done at 2+3=5 vs m1 at 1 -> m1.
  // app2: m0 at 2+6=8 vs m1 at 1+5=6 -> m1.
  const Mapping m = mctMapping(etc);
  EXPECT_EQ(m.assignment(), (std::vector<std::size_t>{0, 1, 1}));
}

TEST(Heuristics, OlbIgnoresEtc) {
  const EtcMatrix etc = tinyEtc();
  // app0 -> m0 (both idle, first wins). app1 -> m1 (idle). app2 -> m1
  // (available at 1 vs m0 at 2).
  const Mapping m = olbMapping(etc);
  EXPECT_EQ(m.assignment(), (std::vector<std::size_t>{0, 1, 1}));
}

TEST(Heuristics, MinMinCommitsSmallestCompletionFirst) {
  const EtcMatrix etc = tinyEtc();
  // Round 1: best CTs are {2 (a0,m0), 1 (a1,m1), 5 (a2,m1)} -> a1 on m1.
  // Round 2: a0 best = 2 on m0; a2 best = min(6, 1+5)=6 on either; a0 wins.
  // Round 3: a2: m0 at 2+6=8 vs m1 at 1+5=6 -> m1.
  const Mapping m = minMinMapping(etc);
  EXPECT_EQ(m.assignment(), (std::vector<std::size_t>{0, 1, 1}));
}

TEST(Heuristics, MaxMinCommitsLargestFirst) {
  const EtcMatrix etc = tinyEtc();
  // Round 1: best CTs {2, 1, 5} -> a2 (largest) on m1.
  // Round 2: a0 best 2 on m0, a1 best min(3, 5+1=6)=3 on m0 -> a1 wins (3>2),
  // on m0. Round 3: a0 -> m0 at 3+2=5 vs m1 at 5+4=9 -> m0.
  const Mapping m = maxMinMapping(etc);
  EXPECT_EQ(m.assignment(), (std::vector<std::size_t>{0, 0, 1}));
}

TEST(Heuristics, SufferagePrefersHighRegret) {
  const EtcMatrix etc = tinyEtc();
  // Sufferages: a0: 4-2=2, a1: 3-1=2, a2: 6-5=1 -> a0 (first max) on m0.
  // Then a1: best m1 (1), second 2+3=5, suff 4; a2: best m1 5 vs m0 8 suff 3
  // -> a1 on m1. Then a2: m0 at 8 vs m1 at 6 -> m1.
  const Mapping m = sufferageMapping(etc);
  EXPECT_EQ(m.assignment(), (std::vector<std::size_t>{0, 1, 1}));
}

TEST(Heuristics, AllConstructiveAreValidOnRandomInstances) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const EtcMatrix etc = randomEtc(seed);
    for (const auto& entry : constructiveHeuristics()) {
      const Mapping m = entry.build(etc);
      EXPECT_EQ(m.apps(), etc.apps()) << entry.name;
      EXPECT_EQ(m.machines(), etc.machines()) << entry.name;
      for (std::size_t i = 0; i < m.apps(); ++i) {
        EXPECT_LT(m.machineOf(i), etc.machines()) << entry.name;
      }
    }
  }
}

TEST(Heuristics, MinMinBeatsRoundRobinOnHeterogeneousInstances) {
  int wins = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const EtcMatrix etc = randomEtc(seed);
    if (makespan(etc, minMinMapping(etc)) <
        makespan(etc, roundRobinMapping(etc))) {
      ++wins;
    }
  }
  EXPECT_GE(wins, 8);  // min-min is a strong heuristic on CVB instances
}

TEST(Heuristics, RegistryHasAllEight) {
  EXPECT_EQ(constructiveHeuristics().size(), 8u);
}

TEST(Heuristics, DuplexPicksBetterOfMinMinMaxMin) {
  for (std::uint64_t seed : {30ULL, 31ULL, 32ULL}) {
    const EtcMatrix etc = randomEtc(seed);
    const double duplex = makespan(etc, duplexMapping(etc));
    const double mn = makespan(etc, minMinMapping(etc));
    const double mx = makespan(etc, maxMinMapping(etc));
    EXPECT_DOUBLE_EQ(duplex, std::min(mn, mx));
  }
}

TEST(TabuSearch, ImprovesAndRespectsOptions) {
  const EtcMatrix etc = randomEtc(33);
  const auto obj = makespanObjective(etc);
  const Mapping start = roundRobinMapping(etc);
  const Mapping improved = tabuSearch(etc, start, obj);
  EXPECT_LE(obj(improved), obj(start));
  // Deterministic (no RNG inside).
  const Mapping again = tabuSearch(etc, start, obj);
  EXPECT_EQ(improved.assignment(), again.assignment());
  TabuOptions bad;
  bad.iterations = 0;
  EXPECT_THROW((void)tabuSearch(etc, start, obj, bad), InvalidArgumentError);
}

TEST(TabuSearch, EscapesLocalOptima) {
  // Tabu must do at least as well as steepest descent from the same start
  // on most instances (it can continue past the first local optimum).
  int atLeastAsGood = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const EtcMatrix etc = randomEtc(seed + 60);
    const auto obj = makespanObjective(etc);
    const Mapping start = mctMapping(etc);
    const double tabu = obj(tabuSearch(etc, start, obj));
    const double descent =
        obj(localSearch(etc.apps(), etc.machines(), start, obj));
    atLeastAsGood += tabu <= descent + 1e-9;
  }
  EXPECT_GE(atLeastAsGood, 7);
}

TEST(GreedyRobust, ValidAndDeterministic) {
  const EtcMatrix etc = randomEtc(21);
  const Mapping a = greedyRobustMapping(etc, 1.2);
  const Mapping b = greedyRobustMapping(etc, 1.2);
  EXPECT_EQ(a.assignment(), b.assignment());
  EXPECT_EQ(a.apps(), etc.apps());
  for (std::size_t i = 0; i < a.apps(); ++i) {
    EXPECT_LT(a.machineOf(i), etc.machines());
  }
  EXPECT_THROW((void)greedyRobustMapping(etc, 0.5), InvalidArgumentError);
}

TEST(GreedyRobust, CompetitiveWithRandomMappings) {
  // The heuristic maximizes the scale-free rho / makespan (raw rho rewards
  // bloated makespans — a random mapping's long schedule tolerates
  // absolutely larger errors); compare on that quantity.
  int wins = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const EtcMatrix etc = randomEtc(seed + 40);
    Pcg32 rng(seed);
    const Mapping randomM = randomMapping(etc.apps(), etc.machines(), rng);
    const auto normalized = [&](const Mapping& m) {
      const auto analysis =
          IndependentTaskSystem(etc, m, 1.2).analyze();
      return analysis.robustness / analysis.predictedMakespan;
    };
    wins += normalized(greedyRobustMapping(etc, 1.2)) > normalized(randomM);
  }
  EXPECT_GE(wins, 8);
}

TEST(GreedyRobust, UsesAllMachinesOnUniformInstances) {
  // With identical ETCs, maximizing the partial robustness spreads the
  // applications (an empty machine has infinite radius; loading one machine
  // drops the minimum).
  EtcMatrix etc(10, 5);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      etc(i, j) = 4.0;
    }
  }
  const Mapping m = greedyRobustMapping(etc, 1.3);
  const auto counts = m.countPerMachine();
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(counts[j], 2u);
  }
}

// ------------------------------------------------------------ objectives

TEST(Objectives, MakespanObjectiveMatchesMetric) {
  const EtcMatrix etc = tinyEtc();
  const auto obj = makespanObjective(etc);
  const Mapping m({0, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(obj(m), makespan(etc, m));
}

TEST(Objectives, NegatedRobustnessInvertsOrder) {
  const EtcMatrix etc = randomEtc(4);
  const auto obj = negatedRobustnessObjective(etc, 1.2);
  Pcg32 rng(9);
  const Mapping a = randomMapping(etc.apps(), etc.machines(), rng);
  const Mapping b = randomMapping(etc.apps(), etc.machines(), rng);
  const double rhoA = IndependentTaskSystem(etc, a, 1.2).analyze().robustness;
  const double rhoB = IndependentTaskSystem(etc, b, 1.2).analyze().robustness;
  EXPECT_EQ(obj(a) < obj(b), rhoA > rhoB);
}

TEST(Objectives, CappedRobustnessPenalizesInfeasible) {
  const EtcMatrix etc = randomEtc(5);
  const double cap = makespan(etc, minMinMapping(etc)) * 1.1;
  const auto obj = cappedRobustnessObjective(etc, 1.2, cap);
  // A mapping over the cap scores positive; one under it scores negative.
  const Mapping allOnOne(std::vector<std::size_t>(etc.apps(), 0),
                         etc.machines());
  EXPECT_GT(obj(allOnOne), 0.0);
  EXPECT_LT(obj(minMinMapping(etc)), 0.0);
  EXPECT_THROW((void)cappedRobustnessObjective(etc, 1.2, 0.0),
               InvalidArgumentError);
}

// --------------------------------------------------------- improvement

TEST(LocalSearch, NeverWorsensAndReachesLocalOptimum) {
  const EtcMatrix etc = randomEtc(6);
  const auto obj = makespanObjective(etc);
  const Mapping start = roundRobinMapping(etc);
  const Mapping improved = localSearch(etc.apps(), etc.machines(), start, obj);
  EXPECT_LE(obj(improved), obj(start));
  // Local optimality: no single reassignment improves further.
  Mapping probe = improved;
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    const std::size_t original = probe.machineOf(i);
    for (std::size_t j = 0; j < etc.machines(); ++j) {
      probe.assign(i, j);
      EXPECT_GE(obj(probe), obj(improved) - 1e-12);
    }
    probe.assign(i, original);
  }
}

TEST(LocalSearch, RejectsNonPositiveMaxRoundsOnEveryOverload) {
  // One driver validates for both overloads; the shape-generic one used to
  // return the start mapping instead.
  const EtcMatrix etc = randomEtc(5);
  const Mapping start = roundRobinMapping(etc);
  EXPECT_THROW((void)localSearch(etc.apps(), etc.machines(), start,
                                 makespanObjective(etc), 0),
               InvalidArgumentError);
  LocalSearchOptions options;
  options.maxRounds = -3;
  EXPECT_THROW((void)localSearch(etc, start, EtcObjective::makespan(), options),
               InvalidArgumentError);
}

TEST(SimulatedAnnealing, ImprovesAndIsDeterministic) {
  const EtcMatrix etc = randomEtc(7);
  const auto obj = makespanObjective(etc);
  const Mapping start = roundRobinMapping(etc);
  AnnealingOptions options;
  options.iterations = 5000;
  options.seed = 3;
  const Mapping a =
      annealMapping(etc.apps(), etc.machines(), start, obj, options);
  const Mapping b =
      annealMapping(etc.apps(), etc.machines(), start, obj, options);
  EXPECT_EQ(a.assignment(), b.assignment());
  EXPECT_LE(obj(a), obj(start));
}

TEST(SimulatedAnnealing, OptionValidation) {
  const EtcMatrix etc = tinyEtc();
  AnnealingOptions bad;
  bad.iterations = 0;
  EXPECT_THROW((void)annealMapping(etc.apps(), etc.machines(),
                                   roundRobinMapping(etc),
                                   makespanObjective(etc), bad),
               InvalidArgumentError);
  bad = {};
  bad.coolingRate = 1.5;
  EXPECT_THROW((void)simulatedAnnealing(etc, roundRobinMapping(etc),
                                        EtcObjective::makespan(), bad),
               InvalidArgumentError);
}

TEST(GeneticAlgorithm, ImprovesAndIsDeterministic) {
  const EtcMatrix etc = randomEtc(8);
  const auto obj = makespanObjective(etc);
  const Mapping start = roundRobinMapping(etc);
  GeneticOptions options;
  options.generations = 40;
  options.seed = 4;
  const Mapping a =
      geneticAlgorithm(etc, start, EtcObjective::makespan(), options);
  const Mapping b =
      geneticAlgorithm(etc, start, EtcObjective::makespan(), options);
  EXPECT_EQ(a.assignment(), b.assignment());
  EXPECT_LE(obj(a), obj(start));
}

TEST(GeneticAlgorithm, OptionValidation) {
  const EtcMatrix etc = tinyEtc();
  GeneticOptions bad;
  bad.populationSize = 1;
  EXPECT_THROW((void)geneticAlgorithm(etc, roundRobinMapping(etc),
                                      EtcObjective::makespan(), bad),
               InvalidArgumentError);
  bad = {};
  bad.eliteCount = 100;
  EXPECT_THROW((void)geneticAlgorithm(etc, roundRobinMapping(etc),
                                      EtcObjective::makespan(), bad),
               InvalidArgumentError);
  // A seed mapping of another shape.
  EXPECT_THROW((void)geneticAlgorithm(etc, Mapping({0, 0}, etc.machines()),
                                      EtcObjective::makespan()),
               InvalidArgumentError);
}

TEST(RobustnessAwareSearch, BeatsMakespanOptimizedOnRobustness) {
  // The paper's motivation: among mappings of comparable makespan, the
  // robustness metric finds substantially more robust ones.
  const EtcMatrix etc = randomEtc(9);
  const double tau = 1.2;
  const Mapping fast = minMinMapping(etc);
  const double cap = 1.2 * makespan(etc, fast);
  AnnealingOptions options;
  options.iterations = 8000;
  options.seed = 10;
  const Mapping robustMapping =
      annealMapping(etc.apps(), etc.machines(), fast,
                    cappedRobustnessObjective(etc, tau, cap), options);
  const double rhoFast =
      IndependentTaskSystem(etc, fast, tau).analyze().robustness;
  const double rhoRobust =
      IndependentTaskSystem(etc, robustMapping, tau).analyze().robustness;
  EXPECT_LE(makespan(etc, robustMapping), cap + 1e-9);
  EXPECT_GT(rhoRobust, rhoFast);
}

}  // namespace
}  // namespace robust::sched

// Tests for the incremental mapping-evaluation engine: exactness against
// IndependentTaskSystem::analyze() under randomized move/commit/revert
// sequences, and bit-identical equivalence of the EtcObjective optimizer
// overloads (incremental + parallel scoring) with the shape-generic
// overloads scoring the same objective from scratch through the same search
// driver.
#include <gtest/gtest.h>

#include <vector>

#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/incremental.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/util/error.hpp"

namespace robust::sched {
namespace {

EtcMatrix randomEtc(std::uint64_t seed, std::size_t apps,
                    std::size_t machines) {
  EtcOptions options;
  options.apps = apps;
  options.machines = machines;
  Pcg32 rng(seed);
  return generateEtc(options, rng);
}

MakespanRobustness analyzeMapping(const EtcMatrix& etc, const Mapping& mapping,
                                  double tau) {
  return IndependentTaskSystem(etc, mapping, tau).analyze();
}

void expectExactMatch(const EvalResult& result,
                      const MakespanRobustness& reference,
                      const char* context) {
  ASSERT_EQ(result.makespan, reference.predictedMakespan) << context;
  ASSERT_EQ(result.robustness, reference.robustness) << context;
  ASSERT_EQ(result.bindingMachine, reference.bindingMachine) << context;
}

/// Drives `sequences` random op sequences of `steps` tryMove followed by
/// commit or revert, asserting after EVERY step that both the
/// tried result and the committed state exactly match a from-scratch
/// analyze() (same makespan, same Eq. 6/7 metric, same binding machine).
void runPropertySequences(const EtcMatrix& etc, double tau,
                          std::uint64_t seed, int sequences, int steps) {
  Pcg32 rng(seed, /*stream=*/17);
  for (int s = 0; s < sequences; ++s) {
    Mapping shadow = randomMapping(etc.apps(), etc.machines(), rng);
    IncrementalEvaluator evaluator(etc, shadow, tau);
    expectExactMatch(evaluator.current(), analyzeMapping(etc, shadow, tau),
                     "initial state");
    for (int step = 0; step < steps; ++step) {
      Mapping candidate = shadow;
      const auto app = static_cast<std::size_t>(
          rng.nextBounded(static_cast<std::uint32_t>(etc.apps())));
      const auto machine = static_cast<std::size_t>(
          rng.nextBounded(static_cast<std::uint32_t>(etc.machines())));
      candidate.assign(app, machine);
      const EvalResult tried = evaluator.tryMove(app, machine);
      expectExactMatch(tried, analyzeMapping(etc, candidate, tau),
                       "tried candidate");
      if (rng.nextDouble() < 0.5) {
        evaluator.commit();
        shadow = candidate;
      } else {
        evaluator.revert();
      }
      ASSERT_EQ(evaluator.mapping().assignment(), shadow.assignment());
      expectExactMatch(evaluator.current(), analyzeMapping(etc, shadow, tau),
                       "committed state");
    }
  }
}

// ------------------------------------------------------ exactness property

TEST(IncrementalEvaluator, MatchesAnalyzeOnRandomSequencesDensePath) {
  // 7 instances x 100 sequences x 25 steps, up to a 48-machine fleet.
  int config = 0;
  for (const auto [apps, machines] :
       {std::pair<std::size_t, std::size_t>{20, 5},
        {8, 3},
        {40, 8},
        {12, 12},
        {30, 2},
        {25, 7},
        {120, 48}}) {
    runPropertySequences(randomEtc(100 + config, apps, machines), 1.2,
                         /*seed=*/200 + config, /*sequences=*/100,
                         /*steps=*/25);
    ++config;
  }
}

TEST(IncrementalEvaluator, MatchesAnalyzeOnRandomSequencesSortedPath) {
  // The instance set that once forced the sorted-structure load path:
  // other seeds, tau = 1.3, a square 15-machine fleet and a 48-machine one.
  // The evaluator now has one (dense) path, so this is a second exactness
  // sample of it; 5 instances x 100 sequences x 25 steps.
  int config = 0;
  for (const auto [apps, machines] :
       {std::pair<std::size_t, std::size_t>{20, 5},
        {8, 3},
        {40, 8},
        {15, 15},
        {120, 48}}) {
    runPropertySequences(randomEtc(300 + config, apps, machines), 1.3,
                         /*seed=*/400 + config, /*sequences=*/100,
                         /*steps=*/25);
    ++config;
  }
}

TEST(IncrementalEvaluator, TauOneAndUniformTiesStayExact) {
  // tau = 1 makes every radius hit zero at the binding machine, and a
  // uniform ETC creates systematic load/radius ties — the tie-breaking
  // (lowest machine index, as analyze() scans) must survive both.
  EtcMatrix etc(12, 6);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      etc(i, j) = 4.0;
    }
  }
  runPropertySequences(etc, 1.0, /*seed=*/7, /*sequences=*/50,
                       /*steps=*/20);
  // tau = 1 on a random 48-machine fleet: ties at radius 0.
  runPropertySequences(randomEtc(306, 120, 48), 1.0, /*seed=*/8,
                       /*sequences=*/50, /*steps=*/20);
}

TEST(ScratchEvaluator, MatchesAnalyzeOnRandomAssignments) {
  const EtcMatrix etc = randomEtc(9, 30, 6);
  ScratchEvaluator scratch(etc, 1.2);
  Pcg32 rng(10);
  for (int draw = 0; draw < 200; ++draw) {
    const Mapping mapping = randomMapping(etc.apps(), etc.machines(), rng);
    const EvalResult result = scratch.evaluate(mapping.assignment());
    expectExactMatch(result, analyzeMapping(etc, mapping, 1.2), "scratch");
  }
  EXPECT_THROW((void)ScratchEvaluator(etc, 0.5), InvalidArgumentError);
}

// -------------------------------------------------------------- protocol

TEST(IncrementalEvaluator, ProtocolEdgeCases) {
  const EtcMatrix etc = randomEtc(11, 10, 4);
  Pcg32 rng(12);
  const Mapping start = randomMapping(etc.apps(), etc.machines(), rng);
  IncrementalEvaluator evaluator(etc, start, 1.2);

  // Nothing staged: commit is a no-op.
  EXPECT_FALSE(evaluator.commit());

  // A no-op move (target == current machine) returns current and stages
  // nothing, also after a real move was staged.
  const EvalResult before = evaluator.current();
  EvalResult result = evaluator.tryMove(0, start.machineOf(0));
  EXPECT_EQ(result.makespan, before.makespan);
  EXPECT_EQ(result.robustness, before.robustness);
  EXPECT_FALSE(evaluator.commit());
  (void)evaluator.tryMove(3, (start.machineOf(3) + 1) % etc.machines());
  result = evaluator.tryMove(3, start.machineOf(3));
  EXPECT_EQ(result.robustness, before.robustness);
  EXPECT_FALSE(evaluator.commit());

  // A later try overwrites an earlier staged candidate.
  const std::size_t target0 = (start.machineOf(0) + 1) % etc.machines();
  const std::size_t target1 = (start.machineOf(1) + 1) % etc.machines();
  (void)evaluator.tryMove(0, target0);
  (void)evaluator.tryMove(1, target1);
  EXPECT_TRUE(evaluator.commit());
  EXPECT_EQ(evaluator.mapping().machineOf(0), start.machineOf(0));
  EXPECT_EQ(evaluator.mapping().machineOf(1), target1);

  EXPECT_THROW((void)evaluator.tryMove(99, 0), InvalidArgumentError);
  EXPECT_THROW((void)evaluator.tryMove(0, 99), InvalidArgumentError);
  EXPECT_THROW((void)IncrementalEvaluator(etc, start, 0.9),
               InvalidArgumentError);
}

// ----------------------------------------------- optimizer equivalences

TEST(EtcObjective, ScoresMatchGenericClosures) {
  const EtcMatrix etc = randomEtc(13, 20, 5);
  Pcg32 rng(14);
  const double cap = makespan(etc, minMinMapping(etc)) * 1.15;
  const std::vector<EtcObjective> objectives = {
      EtcObjective::makespan(), EtcObjective::negatedRobustness(1.2),
      EtcObjective::cappedRobustness(1.2, cap)};
  for (const auto& objective : objectives) {
    const MappingObjective generic = objective.generic(etc);
    for (int draw = 0; draw < 50; ++draw) {
      const Mapping mapping = randomMapping(etc.apps(), etc.machines(), rng);
      const auto analysis = analyzeMapping(etc, mapping, objective.tau);
      EXPECT_EQ(objective.score(analysis.predictedMakespan,
                                analysis.robustness),
                generic(mapping));
    }
  }
}

TEST(EtcObjective, Validation) {
  const EtcMatrix etc = randomEtc(15, 10, 3);
  const Mapping start = roundRobinMapping(etc);
  EXPECT_THROW((void)localSearch(etc, start,
                                 EtcObjective::negatedRobustness(0.5)),
               InvalidArgumentError);
  EXPECT_THROW((void)localSearch(etc, start,
                                 EtcObjective::cappedRobustness(1.2, 0.0)),
               InvalidArgumentError);
}

TEST(LocalSearch, IncrementalMatchesGenericExactly) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const EtcMatrix etc = randomEtc(20 + seed, 24, 6);
    const Mapping start = roundRobinMapping(etc);
    const double cap = makespan(etc, minMinMapping(etc)) * 1.2;
    for (const auto& objective :
         {EtcObjective::makespan(), EtcObjective::negatedRobustness(1.2),
          EtcObjective::cappedRobustness(1.2, cap)}) {
      const Mapping incremental = localSearch(etc, start, objective);
      const Mapping generic = localSearch(etc.apps(), etc.machines(), start,
                                          objective.generic(etc));
      EXPECT_EQ(incremental.assignment(), generic.assignment());
    }
  }
}

TEST(LocalSearch, ParallelMatchesSerialExactly) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const EtcMatrix etc = randomEtc(30 + seed, 32, 7);
    Pcg32 rng(seed + 1);
    const Mapping start = randomMapping(etc.apps(), etc.machines(), rng);
    const EtcObjective objective = EtcObjective::negatedRobustness(1.2);
    LocalSearchOptions serial;
    serial.threads = 1;
    const Mapping reference = localSearch(etc, start, objective, serial);
    for (const std::size_t threads : {2u, 3u, 5u, 64u}) {
      LocalSearchOptions parallel;
      parallel.threads = threads;
      const Mapping result = localSearch(etc, start, objective, parallel);
      EXPECT_EQ(result.assignment(), reference.assignment())
          << "threads=" << threads;
    }
  }
}

TEST(SimulatedAnnealing, IncrementalMatchesGenericExactly) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const EtcMatrix etc = randomEtc(40 + seed, 20, 5);
    const Mapping start = roundRobinMapping(etc);
    AnnealingOptions options;
    options.iterations = 4000;
    options.seed = seed + 1;
    const double cap = makespan(etc, minMinMapping(etc)) * 1.2;
    for (const auto& objective :
         {EtcObjective::makespan(),
          EtcObjective::cappedRobustness(1.2, cap)}) {
      const Mapping incremental =
          simulatedAnnealing(etc, start, objective, options);
      const Mapping generic =
          annealMapping(etc.apps(), etc.machines(), start,
                        objective.generic(etc), options);
      EXPECT_EQ(incremental.assignment(), generic.assignment());
    }
  }
}

// The GA scores genomes with ScratchEvaluator; judged by the independent
// generic closure, elitism never returns a mapping worse than its seed, and
// the same seed returns the same mapping.
TEST(GeneticAlgorithm, ElitismKeepsTheSeedUnderEveryObjective) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const EtcMatrix etc = randomEtc(50 + seed, 20, 5);
    const Mapping start = roundRobinMapping(etc);
    GeneticOptions options;
    options.generations = 25;
    options.seed = seed + 1;
    const double cap = makespan(etc, minMinMapping(etc)) * 1.15;
    for (const EtcObjective& objective :
         {EtcObjective::makespan(), EtcObjective::negatedRobustness(1.2),
          EtcObjective::cappedRobustness(1.2, cap)}) {
      const Mapping evolved = geneticAlgorithm(etc, start, objective, options);
      const MappingObjective generic = objective.generic(etc);
      EXPECT_LE(generic(evolved), generic(start)) << "seed " << seed;
      EXPECT_EQ(geneticAlgorithm(etc, start, objective, options).assignment(),
                evolved.assignment());
    }
  }
}

TEST(LocalSearch, IncrementalReachesLocalOptimum) {
  const EtcMatrix etc = randomEtc(60, 20, 5);
  const EtcObjective objective = EtcObjective::makespan();
  const Mapping improved =
      localSearch(etc, roundRobinMapping(etc), objective);
  const MappingObjective generic = objective.generic(etc);
  Mapping probe = improved;
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    const std::size_t original = probe.machineOf(i);
    for (std::size_t j = 0; j < etc.machines(); ++j) {
      probe.assign(i, j);
      EXPECT_GE(generic(probe), generic(improved) - 1e-12);
    }
    probe.assign(i, original);
  }
}

}  // namespace
}  // namespace robust::sched

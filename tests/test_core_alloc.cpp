// Heap-allocation pins for the steady state of the compiled lanes.
//
// This binary replaces the global operator new with one that counts the
// calling thread's allocations; the replacement acts on this test process
// only. Each test warms a workspace, then counts what further calls on it
// allocate. DESIGN.md §4.7 promises a zero-allocation steady state for
// the affine lanes and the HiPer-D fast path, and §4.6 a genetic algorithm
// that allocates nothing per generation; these tests hold the code to it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/core/impact.hpp"
#include "robust/core/stream.hpp"
#include "robust/curve/drift.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"
#include "robust/scheduling/etc.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/util/rng.hpp"

namespace {

thread_local std::uint64_t tAllocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++tAllocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace robust;
using namespace robust::core;

template <class F>
std::uint64_t allocationsOf(F&& call) {
  const std::uint64_t before = tAllocations;
  call();
  return tAllocations - before;
}

constexpr std::size_t kRows = 24;
constexpr std::size_t kDim = 8;

/// The 24 x 8 affine shape of robustd_load's plain family; `budget`
/// adds one loose capacity row (sum of components <= 1.5 x the origin's).
ProblemSpec affineSpec(bool budget) {
  Pcg32 rng(5);
  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin.resize(kDim);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(0.5, 1.5);
  }
  for (std::size_t r = 0; r < kRows; ++r) {
    num::Vec w(kDim);
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < kDim; ++k) {
      w[k] = rng.uniform(0.1, 2.0);
      atOrigin += w[k] * spec.parameter.origin[k];
    }
    spec.features.push_back(PerformanceFeature{
        "F_" + std::to_string(r), ImpactFunction::affine(std::move(w)),
        ToleranceBounds::atMost(atOrigin + rng.uniform(0.5, 4.0))});
  }
  if (budget) {
    double load = 0.0;
    for (const double v : spec.parameter.origin) {
      load += v;
    }
    spec.constraints.push_back(
        LinearConstraint{"budget", num::Vec(kDim, 1.0), 1.5 * load});
  }
  return spec;
}

/// `count` origins jittered around the spec's.
std::vector<double> jitteredOrigins(const CompiledProblem& p,
                                    std::size_t count) {
  Pcg32 rng(9);
  std::vector<double> values;
  for (std::size_t i = 0; i < count; ++i) {
    for (const double v : p.parameter().origin) {
      values.push_back(v + rng.uniform(-0.05, 0.05));
    }
  }
  return values;
}

std::vector<AnalysisInstance> viewsOf(const std::vector<double>& values) {
  std::vector<AnalysisInstance> views(values.size() / kDim);
  for (std::size_t i = 0; i < views.size(); ++i) {
    views[i].origin = std::span<const double>(values).subspan(i * kDim, kDim);
  }
  return views;
}

TEST(AllocationPin, CountingOperatorNewSeesAllocations) {
  EXPECT_GE(allocationsOf([] {
              std::vector<double> v(16);
              EXPECT_EQ(v.size(), 16u);
            }),
            1u);
}

TEST(AllocationPin, PlainEvaluateAndMetricAllocateNothingWhenWarm) {
  obs::setEnabled(false);
  const CompiledProblem p = CompiledProblem::compile(affineSpec(false));
  ASSERT_TRUE(p.metricKernelLane());
  const std::vector<double> values = jitteredOrigins(p, 4);
  const std::vector<AnalysisInstance> instances = viewsOf(values);
  MetricWorkspace metric;
  EvalWorkspace full;
  for (const AnalysisInstance& inst : instances) {
    (void)p.evaluateMetric(inst, metric);
    (void)p.evaluate(inst, full);
  }
  for (const AnalysisInstance& inst : instances) {
    EXPECT_EQ(allocationsOf([&] { (void)p.evaluateMetric(inst, metric); }),
              0u);
    EXPECT_EQ(allocationsOf([&] { (void)p.evaluate(inst, full); }), 0u);
  }
}

TEST(AllocationPin, WarmSerialBatchMetricAllocatesNothing) {
  obs::setEnabled(false);
  const CompiledProblem p = CompiledProblem::compile(affineSpec(false));
  const std::vector<double> values = jitteredOrigins(p, 20);
  const std::vector<AnalysisInstance> instances = viewsOf(values);
  std::vector<MetricResult> out(instances.size());
  MetricWorkspace ws;
  p.analyzeBatchMetric(instances, out, ws);
  EXPECT_EQ(allocationsOf([&] { p.analyzeBatchMetric(instances, out, ws); }),
            0u);
  // The serial overload is one worker's block of the threaded entry point.
  const std::vector<MetricResult> threaded = p.analyzeBatchMetric(instances, 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].metric, threaded[i].metric);
    EXPECT_EQ(out[i].bindingFeature, threaded[i].bindingFeature);
  }
}

TEST(AllocationPin, ScreenedConstrainedLaneAllocatesNothingWithoutAClip) {
  obs::setEnabled(false);
  const CompiledProblem p = CompiledProblem::compile(affineSpec(true));
  ASSERT_FALSE(p.metricKernelLane());
  const std::vector<double> values = jitteredOrigins(p, 4);
  const std::vector<AnalysisInstance> instances = viewsOf(values);
  MetricWorkspace ws;
  std::size_t clippedRows = 0;
  for (const AnalysisInstance& inst : instances) {
    // The binding row is analytic: its boundary point keeps the budget.
    // Farther rows break it and need the Dykstra clip, which allocates;
    // the screen proves they cannot bind and never solves them.
    const RobustnessReport full = p.evaluate(inst);
    ASSERT_FALSE(full.infeasibleOrigin);
    ASSERT_EQ(full.radii[full.bindingFeature].method, "analytic-l2");
    for (const RadiusReport& r : full.radii) {
      clippedRows += r.method == "dykstra-clip" ? 1 : 0;
    }
    const MetricResult warm = p.evaluateMetric(inst, ws);
    EXPECT_EQ(warm.metric, full.metric);
    EXPECT_EQ(warm.bindingFeature, full.bindingFeature);
  }
  EXPECT_GT(clippedRows, 0u);
  for (const AnalysisInstance& inst : instances) {
    EXPECT_EQ(allocationsOf([&] { (void)p.evaluateMetric(inst, ws); }), 0u);
  }
}

TEST(AllocationPin, ScaledAndMultiSubspaceEvaluateAllocateNothingWhenWarm) {
  obs::setEnabled(false);
  // The same rows over one L2 subspace and over an L1 + L2 split of it.
  ProblemSpec single = affineSpec(false);
  ProblemSpec multi = affineSpec(false);
  for (int s = 0; s < 2; ++s) {
    PerturbationSubspace sub;
    sub.name = s == 0 ? "a" : "b";
    sub.origin.assign(single.parameter.origin.begin() + s * kDim / 2,
                      single.parameter.origin.begin() + (s + 1) * kDim / 2);
    sub.norm = static_cast<int>(s == 0 ? NormKind::L1 : NormKind::L2);
    multi.subspaces.push_back(std::move(sub));
  }
  multi.parameter = PerturbationParameter{};
  std::vector<double> constants;
  std::vector<double> scales;
  Pcg32 rng(11);
  for (std::size_t r = 0; r < kRows; ++r) {
    constants.push_back(rng.uniform(-0.25, 0.25));
    scales.push_back(rng.uniform(0.5, 2.0));
  }
  for (const ProblemSpec* spec : {&single, &multi}) {
    const CompiledProblem p = CompiledProblem::compile(*spec);
    const std::vector<double> values = jitteredOrigins(p, 4);
    std::vector<AnalysisInstance> instances = viewsOf(values);
    for (AnalysisInstance& inst : instances) {
      inst.constants = constants;
      inst.scales = scales;
    }
    EvalWorkspace full;
    for (const AnalysisInstance& inst : instances) {
      (void)p.evaluate(inst, full);
    }
    for (const AnalysisInstance& inst : instances) {
      EXPECT_EQ(allocationsOf([&] { (void)p.evaluate(inst, full); }), 0u);
    }
  }
}

// The stream's per-call set-up (arenas, shard outcomes) is sized by the
// worker count, and the shard winners are folded in place, so a warm call
// allocates as often over 64 shards as over 2, screened or not.
TEST(AllocationPin, StreamAllocatesAsOftenOver64ShardsAsOver2) {
  obs::setEnabled(false);
  const CompiledProblem p = CompiledProblem::compile(affineSpec(false));
  const std::vector<double> values = jitteredOrigins(p, 64 * 64);
  const std::span<const double> twoShards =
      std::span<const double>(values).first(2 * 64 * kDim);
  for (const bool screen : {true, false}) {
    StreamOptions options;
    options.threads = 1;
    options.shardInstances = 64;
    options.screen = screen;
    (void)analyzeStreamValues(p, values, options);  // warm-up
    const std::uint64_t two = allocationsOf(
        [&] { (void)analyzeStreamValues(p, twoShards, options); });
    const std::uint64_t many = allocationsOf(
        [&] { (void)analyzeStreamValues(p, values, options); });
    EXPECT_EQ(many, two) << "screen " << screen;
  }
}

TEST(AllocationPin, DriftTrackerUpdatesAllocateNothing) {
  obs::setEnabled(false);
  const CompiledProblem p = CompiledProblem::compile(affineSpec(false));
  curve::DriftTracker tracker(p, 0.5);
  Pcg32 rng(13);
  const std::uint64_t allocations = allocationsOf([&] {
    for (int u = 0; u < 64; ++u) {
      (void)tracker.applyUpdate(rng.nextBounded(kDim),
                                rng.uniform(0.5, 1.5));
    }
  });
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(tracker.updates(), 64u);
}

TEST(AllocationPin, WarmHiperdAnalyzeMetricAndSlackAllocateNothing) {
  obs::setEnabled(false);
  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, 2003);
  const hiperd::CompiledScenario compiled = generated.scenario.compile();
  ASSERT_TRUE(compiled.fastPath());
  Pcg32 rng(17);
  std::vector<sched::Mapping> mappings;
  for (int m = 0; m < 64; ++m) {
    mappings.push_back(sched::randomMapping(
        generated.scenario.graph.applicationCount(),
        generated.scenario.machines, rng));
  }
  hiperd::ScenarioWorkspace workspace;
  for (const sched::Mapping& mapping : mappings) {
    (void)compiled.analyze(mapping, workspace);
    (void)compiled.analyzeMetric(mapping, workspace);
    (void)compiled.slack(mapping, workspace);
  }
  EXPECT_EQ(allocationsOf([&] {
              for (const sched::Mapping& mapping : mappings) {
                (void)compiled.analyze(mapping, workspace);
              }
            }),
            0u);
  EXPECT_EQ(allocationsOf([&] {
              for (const sched::Mapping& mapping : mappings) {
                (void)compiled.analyzeMetric(mapping, workspace);
              }
            }),
            0u);
  EXPECT_EQ(allocationsOf([&] {
              for (const sched::Mapping& mapping : mappings) {
                (void)compiled.slack(mapping, workspace);
              }
            }),
            0u);
}

// A GA call allocates its two populations and the returned mapping, and
// nothing per generation: 60 generations allocate as often as one.
template <class Run>
void expectGenerationsAllocateNothing(Run&& run) {
  (void)allocationsOf([&] { run(1); });  // warm up any lazy state
  const std::uint64_t oneGeneration = allocationsOf([&] { run(1); });
  EXPECT_EQ(allocationsOf([&] { run(60); }), oneGeneration);
}

TEST(AllocationPin, GeneticAlgorithmAllocatesNothingPerGeneration) {
  obs::setEnabled(false);
  sched::EtcOptions shape;
  shape.apps = 128;
  shape.machines = 16;
  Pcg32 rng(23);
  const sched::EtcMatrix etc = sched::generateEtc(shape, rng);
  const sched::Mapping start = sched::minMinMapping(etc);
  const sched::EtcObjective objective =
      sched::EtcObjective::negatedRobustness(1.2);
  sched::GeneticOptions options;
  options.populationSize = 40;
  expectGenerationsAllocateNothing([&](int generations) {
    options.generations = generations;
    (void)sched::geneticAlgorithm(etc, start, objective, options);
  });
}


TEST(AllocationPin, FullFlightRingRecordsWithoutAllocating) {
  const std::size_t saved = obs::flightCapacity();
  obs::setFlightCapacity(8);
  for (int i = 0; i < 8; ++i) {
    obs::recordFlight("alloc.fill", 0, i, 1);
  }
  EXPECT_EQ(allocationsOf([] {
              for (int i = 0; i < 32; ++i) {
                obs::recordFlight("alloc.wrap", 0, i, 1);
              }
            }),
            0u);
  obs::clearFlight();
  obs::setFlightCapacity(saved);
}

}  // namespace

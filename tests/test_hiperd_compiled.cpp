// CompiledScenario equivalence suite: the compiled per-mapping analysis must
// be bit-identical to the legacy derivation (CompiledProblem::compile(
// HiperdSystem(scenario, mapping).toSpec(options)).evaluate()), which
// builds its feature list independently at every call.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/hiperd/system.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"

namespace robust::hiperd {
namespace {

bool bitEq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The legacy derivation: derive, compile and evaluate afresh per mapping.
core::RobustnessReport legacyReport(const HiperdScenario& scenario,
                                    const sched::Mapping& mapping,
                                    const core::AnalyzerOptions& options = {}) {
  return core::CompiledProblem::compile(
             HiperdSystem(scenario, mapping).toSpec(options))
      .evaluate();
}

void expectSameReport(const core::RobustnessReport& got,
                      const core::RobustnessReport& want) {
  EXPECT_TRUE(bitEq(got.metric, want.metric))
      << got.metric << " vs " << want.metric;
  EXPECT_EQ(got.bindingFeature, want.bindingFeature);
  EXPECT_EQ(got.floored, want.floored);
  ASSERT_EQ(got.radii.size(), want.radii.size());
  for (std::size_t i = 0; i < got.radii.size(); ++i) {
    const core::RadiusReport& g = got.radii[i];
    const core::RadiusReport& w = want.radii[i];
    EXPECT_EQ(g.feature, w.feature);
    EXPECT_TRUE(bitEq(g.radius, w.radius)) << g.feature;
    EXPECT_TRUE(bitEq(g.boundaryLevel, w.boundaryLevel)) << g.feature;
    EXPECT_EQ(g.boundReachable, w.boundReachable) << g.feature;
    EXPECT_EQ(g.method, w.method) << g.feature;
    ASSERT_EQ(g.boundaryPoint.size(), w.boundaryPoint.size()) << g.feature;
    for (std::size_t k = 0; k < g.boundaryPoint.size(); ++k) {
      EXPECT_TRUE(bitEq(g.boundaryPoint[k], w.boundaryPoint[k]))
          << g.feature << " boundaryPoint[" << k << "]";
    }
  }
}

NodeRef sensor(std::size_t i) { return NodeRef{NodeKind::Sensor, i}; }
NodeRef app(std::size_t i) { return NodeRef{NodeKind::Application, i}; }
NodeRef actuator(std::size_t i) { return NodeRef{NodeKind::Actuator, i}; }

/// The hand-computable mini system of test_hiperd_system, with every machine
/// slot populated with real coefficients so arbitrary mappings are valid.
HiperdScenario miniScenario() {
  HiperdScenario scenario;
  SystemGraph& g = scenario.graph;
  g.addSensor("s0", 1.0 / 1000.0);
  g.addSensor("s1", 1.0 / 2000.0);
  g.addApplication("a0");
  g.addApplication("a1");
  g.addApplication("a2");
  g.addApplication("a3");
  g.addActuator("act0");
  g.addActuator("act1");
  g.addEdge(sensor(0), app(0));
  g.addEdge(app(0), app(1), /*trigger=*/true);
  g.addEdge(app(1), actuator(0));
  g.addEdge(sensor(1), app(2));
  g.addEdge(app(2), app(1), /*trigger=*/false);
  g.addEdge(app(2), app(3));
  g.addEdge(app(3), actuator(1));
  g.finalize();

  scenario.machines = 2;
  scenario.lambdaOrig = {10.0, 20.0};
  scenario.compute = {
      {LoadFunction::linear({1.0, 0.0}), LoadFunction::linear({1.5, 0.0})},
      {LoadFunction::linear({2.0, 1.0}), LoadFunction::linear({2.5, 0.5})},
      {LoadFunction::linear({0.5, 2.5}), LoadFunction::linear({0.0, 3.0})},
      {LoadFunction::linear({0.0, 1.5}), LoadFunction::linear({0.0, 1.0})},
  };
  scenario.comm.assign(g.edgeCount(), LoadFunction::zero(2));
  scenario.comm[4] = LoadFunction::linear({0.0, 0.5});
  scenario.latencyLimits.assign(g.paths().size(), 500.0);
  return scenario;
}

TEST(CompiledScenario, MatchesLegacyOnMiniScenario) {
  const HiperdScenario scenario = miniScenario();
  const CompiledScenario compiled = scenario.compile();
  EXPECT_TRUE(compiled.fastPath());
  const sched::Mapping mapping({0, 0, 1, 1}, 2);
  expectSameReport(compiled.analyze(mapping), legacyReport(scenario, mapping));
}

TEST(CompiledScenario, MatchesLegacyAcrossRandomMappingsWithReusedWorkspace) {
  const auto generated = generateScenario(ScenarioOptions{}, 2003);
  const HiperdScenario& scenario = generated.scenario;
  const CompiledScenario compiled = scenario.compile();
  EXPECT_TRUE(compiled.fastPath());

  Pcg32 rng(17);
  ScenarioWorkspace workspace;
  for (int trial = 0; trial < 40; ++trial) {
    const sched::Mapping mapping = sched::randomMapping(
        scenario.graph.applicationCount(), scenario.machines, rng);
    const core::RobustnessReport& got = compiled.analyze(mapping, workspace);
    const core::RobustnessReport want = legacyReport(scenario, mapping);
    expectSameReport(got, want);
  }
}

TEST(CompiledScenario, MatchesLegacyUnderEveryNorm) {
  const HiperdScenario scenario = miniScenario();
  Pcg32 rng(5);
  for (const core::NormKind norm :
       {core::NormKind::L1, core::NormKind::L2, core::NormKind::LInf,
        core::NormKind::Weighted}) {
    core::AnalyzerOptions options;
    options.norm = norm;
    if (norm == core::NormKind::Weighted) {
      options.normWeights = {1.5, 0.25};
    }
    const CompiledScenario compiled = scenario.compile(options);
    for (int trial = 0; trial < 10; ++trial) {
      const sched::Mapping mapping = sched::randomMapping(
          scenario.graph.applicationCount(), scenario.machines, rng);
      expectSameReport(compiled.analyze(mapping),
                       legacyReport(scenario, mapping, options));
    }
  }
}

TEST(CompiledScenario, NonLinearScenarioFallsBackIdentically) {
  HiperdScenario scenario = miniScenario();
  scenario.compute[3][1] = LoadFunction::general(
      [](std::span<const double> l) { return 0.05 * l[1] * l[1]; },
      [](std::span<const double> l) {
        return num::Vec{0.0, 0.1 * l[1]};
      });
  const CompiledScenario compiled = scenario.compile();
  EXPECT_FALSE(compiled.fastPath());

  Pcg32 rng(3);
  ScenarioWorkspace workspace;
  for (int trial = 0; trial < 5; ++trial) {
    const sched::Mapping mapping = sched::randomMapping(
        scenario.graph.applicationCount(), scenario.machines, rng);
    expectSameReport(compiled.analyze(mapping, workspace),
                     legacyReport(scenario, mapping));
  }
}

TEST(CompiledScenario, IterativeSolverRequestFallsBackIdentically) {
  const HiperdScenario scenario = miniScenario();
  core::AnalyzerOptions options;
  options.solver = core::SolverKind::KktNewton;
  const CompiledScenario compiled = scenario.compile(options);
  EXPECT_FALSE(compiled.fastPath());
  const sched::Mapping mapping({0, 1, 0, 1}, 2);
  expectSameReport(compiled.analyze(mapping),
                   legacyReport(scenario, mapping, options));
}

TEST(CompiledScenario, AnalyzeMappingsDeterministicAcrossThreadCounts) {
  const auto generated = generateScenario(ScenarioOptions{}, 7);
  const HiperdScenario& scenario = generated.scenario;
  const CompiledScenario compiled = scenario.compile();

  Pcg32 rng(29);
  std::vector<sched::Mapping> mappings;
  for (int i = 0; i < 23; ++i) {
    mappings.push_back(sched::randomMapping(
        scenario.graph.applicationCount(), scenario.machines, rng));
  }

  ScenarioWorkspace workspace;
  std::vector<core::RobustnessReport> serial;
  for (const auto& mapping : mappings) {
    serial.push_back(compiled.analyze(mapping, workspace));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{5}, std::size_t{0}}) {
    const auto batch = compiled.analyzeMappings(mappings, threads);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expectSameReport(batch[i], serial[i]);
    }
  }
}

TEST(CompiledScenario, ThroughputBoundsMatchSystem) {
  const HiperdScenario scenario = miniScenario();
  const CompiledScenario compiled = scenario.compile();
  const HiperdSystem system(scenario, sched::Mapping({0, 0, 1, 1}, 2));
  for (std::size_t i = 0; i < scenario.graph.applicationCount(); ++i) {
    EXPECT_TRUE(bitEq(compiled.throughputBound(i), system.throughputBound(i)));
  }
  EXPECT_THROW((void)compiled.throughputBound(99), InvalidArgumentError);
}

TEST(CompiledScenario, RejectsBadInputs) {
  const HiperdScenario scenario = miniScenario();
  core::AnalyzerOptions badWeights;
  badWeights.norm = core::NormKind::Weighted;  // weights missing
  EXPECT_THROW((void)scenario.compile(badWeights), InvalidArgumentError);

  const CompiledScenario compiled = scenario.compile();
  EXPECT_THROW((void)compiled.analyze(sched::Mapping({0, 0, 1}, 2)),
               InvalidArgumentError);
  EXPECT_THROW((void)compiled.analyze(sched::Mapping({0, 0, 1, 2}, 3)),
               InvalidArgumentError);
}

}  // namespace
}  // namespace robust::hiperd

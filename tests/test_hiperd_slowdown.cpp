// Tests for the machine-slowdown FePIA derivation.
#include <gtest/gtest.h>

#include <cmath>

#include "robust/core/compiled.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/hiperd/slowdown.hpp"
#include "robust/util/error.hpp"
#include "eq6_oracle.hpp"

namespace robust::hiperd {
namespace {

NodeRef sensor(std::size_t i) { return NodeRef{NodeKind::Sensor, i}; }
NodeRef app(std::size_t i) { return NodeRef{NodeKind::Application, i}; }
NodeRef actuator(std::size_t i) { return NodeRef{NodeKind::Actuator, i}; }

/// Two apps on two machines in one chain; hand-checkable numbers.
///   s0 (bound 100) -> a0 -> a1 -> act0, latency limit 60.
///   Tc(a0) = 20 on m0, Tc(a1) = 10 on m1 (factors 1: one app per machine).
HiperdScenario chainScenario() {
  HiperdScenario scenario;
  SystemGraph& g = scenario.graph;
  g.addSensor("s0", 1.0 / 100.0);
  g.addApplication("a0");
  g.addApplication("a1");
  g.addActuator("act0");
  g.addEdge(sensor(0), app(0));
  g.addEdge(app(0), app(1));
  g.addEdge(app(1), actuator(0));
  g.finalize();

  scenario.machines = 2;
  scenario.lambdaOrig = {10.0};
  scenario.compute = {
      {LoadFunction::linear({2.0}), LoadFunction::linear({99.0})},
      {LoadFunction::linear({99.0}), LoadFunction::linear({1.0})},
  };
  scenario.comm.assign(g.edgeCount(),
                       LoadFunction::linear(num::Vec(1, 0.0)));
  scenario.latencyLimits = {60.0};
  return scenario;
}

TEST(Slowdown, HandComputedRadii) {
  const HiperdScenario scenario = chainScenario();
  const CompiledScenario compiled = scenario.compile();
  const sched::Mapping mapping({0, 1}, 2);
  const auto problem =
      core::CompiledProblem::compile(slowdownSpec(compiled, mapping));
  const auto report = problem.evaluate();

  // Features: Tc(a0): 20 s0' <= 100 -> weights (20, 0), gap 80, radius 4.
  //           Tc(a1): 10 s1' <= 100 -> weights (0, 10), gap 90, radius 9.
  //           L_0: 20 s0' + 10 s1' <= 60 -> gap 30, ||w|| = sqrt(500),
  //                radius 30/22.36 = 1.3416.
  ASSERT_EQ(report.radii.size(), 3u);
  EXPECT_NEAR(report.metric, 30.0 / std::sqrt(500.0), 1e-12);
  const auto& binding = report.radii[report.bindingFeature];
  EXPECT_EQ(binding.feature, "L_0");
  // Boundary point: s* = (1,1) + w * gap/||w||^2 = (1 + 20*30/500, ...)
  EXPECT_NEAR(binding.boundaryPoint[0], 1.0 + 600.0 / 500.0, 1e-12);
  EXPECT_NEAR(binding.boundaryPoint[1], 1.0 + 300.0 / 500.0, 1e-12);
  EXPECT_FALSE(report.floored);  // slowdowns are continuous
}

TEST(Slowdown, OriginIsUnitSpeeds) {
  const HiperdScenario scenario = chainScenario();
  const CompiledScenario compiled = scenario.compile();
  const sched::Mapping mapping({0, 1}, 2);
  const auto problem =
      core::CompiledProblem::compile(slowdownSpec(compiled, mapping));
  EXPECT_EQ(problem.parameter().origin, (num::Vec{1.0, 1.0}));
  EXPECT_FALSE(problem.parameter().discrete);
}

TEST(Slowdown, CommunicationContributesConstant) {
  HiperdScenario scenario = chainScenario();
  scenario.comm[1] = LoadFunction::linear({0.5});  // a0->a1: 5 at lambda=10
  const CompiledScenario compiled = scenario.compile();
  const sched::Mapping mapping({0, 1}, 2);
  const auto problem =
      core::CompiledProblem::compile(slowdownSpec(compiled, mapping));
  const auto report = problem.evaluate();
  // Latency gap shrinks by the constant 5: radius = 25 / sqrt(500).
  EXPECT_NEAR(report.metric, 25.0 / std::sqrt(500.0), 1e-12);
}

TEST(Slowdown, WorksOnGeneratedScenarios) {
  const auto generated = generateScenario(ScenarioOptions{}, 2003);
  Pcg32 rng(1);
  const auto mapping = sched::randomMapping(
      generated.scenario.graph.applicationCount(),
      generated.scenario.machines, rng);
  const CompiledScenario compiled = generated.scenario.compile();
  const auto problem =
      core::CompiledProblem::compile(slowdownSpec(compiled, mapping));
  const auto report = problem.evaluate();
  EXPECT_GE(report.metric, 0.0);
  EXPECT_TRUE(std::isfinite(report.metric));

  // Cross-check against the Eq. 6 closed form over the derived features.
  const double oracle = eq6::metric(problem.features(),
                                    problem.parameter().origin,
                                    core::NormKind::L2);
  EXPECT_NEAR(report.metric, oracle, 1e-12 * oracle);
}

}  // namespace
}  // namespace robust::hiperd

// Tests for the pipeline simulation: stable latencies must match Eq. 8,
// throughput violations must diverge at the predicted rate, and crossing
// the robustness boundary must be observable in the simulated system.
#include <gtest/gtest.h>

#include <cmath>

#include "robust/hiperd/generator.hpp"
#include "robust/hiperd/pipeline_sim.hpp"
#include "robust/util/error.hpp"

namespace robust::hiperd {
namespace {

NodeRef sensor(std::size_t i) { return NodeRef{NodeKind::Sensor, i}; }
NodeRef app(std::size_t i) { return NodeRef{NodeKind::Application, i}; }
NodeRef actuator(std::size_t i) { return NodeRef{NodeKind::Actuator, i}; }

/// One chain: s0 (period 50) -> a0 -> a1 -> act0, limit 120.
/// Tc(a0) = 2 * l1, Tc(a1) = 1 * l1 (factors 1: one app per machine).
HiperdScenario chain() {
  HiperdScenario scenario;
  SystemGraph& g = scenario.graph;
  g.addSensor("s0", 1.0 / 50.0);
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
      {LoadFunction::linear({2.0}), LoadFunction::linear({0.0})},
      {LoadFunction::linear({0.0}), LoadFunction::linear({1.0})},
  };
  scenario.comm.assign(g.edgeCount(),
                       LoadFunction::linear(num::Vec(1, 0.0)));
  scenario.latencyLimits = {120.0};
  return scenario;
}

// L_k (Eq. 8) at lambda_orig: constraints() lists every path's latency
// last, in path order.
double modelLatency(const CompiledScenario& compiled,
                    const sched::Mapping& mapping, std::size_t k) {
  const auto constraints = compiled.constraints(mapping);
  const std::size_t paths = compiled.scenario().graph.paths().size();
  return constraints[constraints.size() - paths + k].value;
}

TEST(PipelineSim, StableLatencyEqualsEquationEight) {
  const HiperdScenario scenario = chain();
  const CompiledScenario compiled = scenario.compile();
  const sched::Mapping mapping({0, 1}, 2);
  // lambda = 10: services 20 and 10, both below the period 50 -> stable,
  // steady latency = 30 = analytic L_0.
  const auto results = simulatePaths(compiled, mapping, scenario.lambdaOrig);
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0];
  EXPECT_TRUE(r.stable);
  EXPECT_FALSE(r.throughputViolated);
  EXPECT_FALSE(r.latencyViolated);
  EXPECT_DOUBLE_EQ(r.growthRate, 0.0);
  EXPECT_DOUBLE_EQ(r.steadyLatency, 30.0);
  EXPECT_DOUBLE_EQ(r.steadyLatency, modelLatency(compiled, mapping, 0));
  // Every data set sees the same latency (deterministic, underloaded).
  for (double latency : r.latencies) {
    EXPECT_DOUBLE_EQ(latency, 30.0);
  }
}

TEST(PipelineSim, ThroughputViolationDivergesAtPredictedRate) {
  const HiperdScenario scenario = chain();
  const CompiledScenario compiled = scenario.compile();
  const sched::Mapping mapping({0, 1}, 2);
  // lambda = 30: a0's service 60 exceeds the period 50 -> queue builds at
  // rate 10 per data set; a1 (service 30) keeps up.
  const num::Vec lambda = {30.0};
  PipelineSimOptions options;
  options.dataSets = 300;
  const auto results = simulatePaths(compiled, mapping, lambda, options);
  const auto& r = results[0];
  EXPECT_TRUE(r.throughputViolated);
  EXPECT_FALSE(r.stable);
  EXPECT_NEAR(r.growthRate, 10.0, 1e-9);
  // Latency of data set n ~ L + n * (60 - 50).
  EXPECT_GT(r.steadyLatency, 1000.0);
}

TEST(PipelineSim, LatencyViolationWithoutThroughputViolation) {
  HiperdScenario scenario = chain();
  scenario.latencyLimits = {25.0};  // analytic latency is 30 > 25
  const CompiledScenario compiled = scenario.compile();
  const sched::Mapping mapping({0, 1}, 2);
  const auto results = simulatePaths(compiled, mapping, scenario.lambdaOrig);
  EXPECT_TRUE(results[0].stable);
  EXPECT_TRUE(results[0].latencyViolated);
  EXPECT_FALSE(results[0].throughputViolated);
}

TEST(PipelineSim, RobustnessBoundaryIsObservable) {
  // Push lambda just inside and just beyond the robustness radius: the
  // simulated system must stay clean inside and violate beyond.
  const HiperdScenario scenario = chain();
  const CompiledScenario compiled = scenario.compile();
  const sched::Mapping mapping({0, 1}, 2);
  const auto report = compiled.analyze(mapping);
  const auto& binding = report.radii[report.bindingFeature];
  const double unflooredRadius = binding.radius;

  auto violatedAt = [&](double scale) {
    num::Vec lambda = scenario.lambdaOrig;
    // Move along the binding direction scaled around the boundary point.
    for (std::size_t z = 0; z < lambda.size(); ++z) {
      lambda[z] += scale * (binding.boundaryPoint[z] - scenario.lambdaOrig[z]);
    }
    const auto results = simulatePaths(compiled, mapping, lambda);
    bool violated = false;
    for (const auto& r : results) {
      violated |= r.latencyViolated || r.throughputViolated;
    }
    return violated;
  };
  EXPECT_FALSE(violatedAt(0.99));
  EXPECT_TRUE(violatedAt(1.01));
  EXPECT_GT(unflooredRadius, 0.0);
}

TEST(PipelineSim, SimulatesEveryPathOfGeneratedScenarios) {
  const auto generated = generateScenario(ScenarioOptions{}, 2003);
  Pcg32 rng(3);
  const auto mapping = sched::randomMapping(
      generated.scenario.graph.applicationCount(),
      generated.scenario.machines, rng);
  const CompiledScenario compiled = generated.scenario.compile();
  PipelineSimOptions options;
  options.dataSets = 50;
  const auto results =
      simulatePaths(compiled, mapping, generated.scenario.lambdaOrig, options);
  EXPECT_EQ(results.size(), generated.scenario.graph.paths().size());
  // Consistency with the analytic model: every stable path's steady latency
  // equals Eq. 8, and stability equals the throughput-constraint check.
  for (const auto& r : results) {
    if (r.stable) {
      EXPECT_NEAR(r.steadyLatency, modelLatency(compiled, mapping, r.path),
                  1e-9);
    }
  }
}

TEST(PipelineSim, Validation) {
  const HiperdScenario scenario = chain();
  const CompiledScenario compiled = scenario.compile();
  const sched::Mapping mapping({0, 1}, 2);
  PipelineSimOptions bad;
  bad.dataSets = 1;
  EXPECT_THROW((void)simulatePaths(compiled, mapping, scenario.lambdaOrig, bad),
               InvalidArgumentError);
  const num::Vec wrongDim = {1.0, 2.0};
  EXPECT_THROW((void)simulatePaths(compiled, mapping, wrongDim),
               InvalidArgumentError);
}

}  // namespace
}  // namespace robust::hiperd

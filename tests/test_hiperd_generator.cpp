// Tests for the Section 4.3 scenario generator: structural invariants,
// published-parameter defaults, calibration, and determinism.
#include <gtest/gtest.h>

#include <cmath>

#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/util/error.hpp"

namespace robust::hiperd {
namespace {

TEST(Generator, DefaultsMatchThePaper) {
  const ScenarioOptions options;
  EXPECT_EQ(options.applications, 20u);
  EXPECT_EQ(options.machines, 5u);
  EXPECT_EQ(options.actuators, 3u);
  EXPECT_EQ(options.targetPaths, 19u);
  ASSERT_EQ(options.sensorRates.size(), 3u);
  EXPECT_DOUBLE_EQ(options.sensorRates[0], 4e-5);
  EXPECT_DOUBLE_EQ(options.sensorRates[1], 3e-5);
  EXPECT_DOUBLE_EQ(options.sensorRates[2], 8e-6);
  EXPECT_EQ(options.lambdaOrig, (std::vector<double>{962.0, 380.0, 240.0}));
  EXPECT_DOUBLE_EQ(options.coeffMean, 10.0);
  EXPECT_DOUBLE_EQ(options.taskHeterogeneity, 0.7);
  EXPECT_DOUBLE_EQ(options.machineHeterogeneity, 0.7);
}

TEST(Generator, ProducesValidScenarioWithExactPathCount) {
  const ScenarioOptions options;
  const auto generated = generateScenario(options, 2003);
  const auto& scenario = generated.scenario;
  EXPECT_TRUE(generated.exactPathCount);
  EXPECT_EQ(scenario.graph.paths().size(), 19u);
  EXPECT_EQ(scenario.graph.applicationCount(), 20u);
  EXPECT_EQ(scenario.graph.sensorCount(), 3u);
  EXPECT_EQ(scenario.graph.actuatorCount(), 3u);
  EXPECT_EQ(scenario.machines, 5u);
  validateScenario(scenario);  // must not throw
}

TEST(Generator, IsDeterministic) {
  const ScenarioOptions options;
  const auto a = generateScenario(options, 7);
  const auto b = generateScenario(options, 7);
  EXPECT_EQ(a.scenario.graph.edgeCount(), b.scenario.graph.edgeCount());
  EXPECT_EQ(a.scenario.latencyLimits, b.scenario.latencyLimits);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(a.scenario.compute[i][j].coeffs(),
                b.scenario.compute[i][j].coeffs());
    }
  }
  EXPECT_DOUBLE_EQ(a.coefficientScale, b.coefficientScale);
}

TEST(Generator, DifferentSeedsDiffer) {
  const ScenarioOptions options;
  const auto a = generateScenario(options, 1);
  const auto b = generateScenario(options, 2);
  bool anyDifferent =
      a.scenario.graph.edgeCount() != b.scenario.graph.edgeCount();
  if (!anyDifferent) {
    for (std::size_t i = 0; i < 20 && !anyDifferent; ++i) {
      anyDifferent = a.scenario.compute[i][0].coeffs() !=
                     b.scenario.compute[i][0].coeffs();
    }
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(Generator, UnreachableSensorsHaveZeroCoefficients) {
  const auto generated = generateScenario(ScenarioOptions{}, 11);
  const auto& scenario = generated.scenario;
  for (std::size_t i = 0; i < scenario.graph.applicationCount(); ++i) {
    for (std::size_t z = 0; z < scenario.graph.sensorCount(); ++z) {
      for (std::size_t j = 0; j < scenario.machines; ++j) {
        const double c = scenario.compute[i][j].coeffs()[z];
        if (scenario.graph.sensorReachesApp(z, i)) {
          EXPECT_GT(c, 0.0) << "app " << i << " sensor " << z;
        } else {
          EXPECT_EQ(c, 0.0) << "app " << i << " sensor " << z;
        }
      }
    }
  }
}

TEST(Generator, CalibrationHitsThroughputTarget) {
  ScenarioOptions options;
  const auto generated = generateScenario(options, 13);
  const auto& scenario = generated.scenario;
  // Under the round-robin reference mapping, the peak computation-time
  // utilization must equal the target (that is what the scale was for).
  std::vector<std::size_t> assignment(scenario.graph.applicationCount());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = i % scenario.machines;
  }
  const sched::Mapping mapping(assignment, scenario.machines);
  double peak = 0.0;
  for (const auto& c : scenario.compile().constraints(mapping)) {
    if (c.kind == ConstraintKind::Computation) {
      peak = std::max(peak, c.fraction());
    }
  }
  EXPECT_NEAR(peak, options.targetThroughputUtil, 1e-9);
}

TEST(Generator, CommunicationZeroByDefaultNonZeroOnRequest) {
  const auto plain = generateScenario(ScenarioOptions{}, 17);
  for (const auto& f : plain.scenario.comm) {
    EXPECT_TRUE(f.isZero());
  }
  ScenarioOptions withComm;
  withComm.commCoeffMean = 2.0;
  const auto comm = generateScenario(withComm, 17);
  bool anyNonZero = false;
  for (std::size_t e = 0; e < comm.scenario.comm.size(); ++e) {
    if (!comm.scenario.comm[e].isZero()) {
      anyNonZero = true;
      // Only application-sourced edges carry transfer cost.
      EXPECT_EQ(comm.scenario.graph.edge(e).from.kind,
                NodeKind::Application);
    }
  }
  EXPECT_TRUE(anyNonZero);
}

TEST(Generator, OptionValidation) {
  ScenarioOptions bad;
  bad.sensorRates = {1.0, 2.0};
  EXPECT_THROW((void)generateScenario(bad, 1), InvalidArgumentError);
  bad = {};
  bad.applications = 0;
  EXPECT_THROW((void)generateScenario(bad, 1), InvalidArgumentError);
  bad = {};
  bad.targetThroughputUtil = 1.5;
  EXPECT_THROW((void)generateScenario(bad, 1), InvalidArgumentError);
  bad = {};
  bad.latencySpread = 1.0;
  EXPECT_THROW((void)generateScenario(bad, 1), InvalidArgumentError);
}

TEST(Generator, NonDefaultShapes) {
  ScenarioOptions options;
  options.applications = 10;
  options.machines = 3;
  options.sensorRates = {1e-4, 5e-5};
  options.lambdaOrig = {100.0, 200.0};
  options.actuators = 2;
  options.targetPaths = 8;
  const auto generated = generateScenario(options, 23);
  validateScenario(generated.scenario);
  EXPECT_EQ(generated.scenario.graph.applicationCount(), 10u);
  EXPECT_EQ(generated.scenario.graph.sensorCount(), 2u);
  // Path count should be close to the target even if not exact.
  const auto count = generated.scenario.graph.paths().size();
  EXPECT_GE(count + 4, options.targetPaths);
  EXPECT_LE(count, options.targetPaths + 4);
}

// Property sweep: generated scenarios across seeds always admit analysis —
// finite slack, non-negative floored metric, and the slack/robustness signs
// agree (negative slack at the operating point forces a zero metric).
class GeneratorSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSweep, ScenariosAreAnalyzable) {
  const auto generated = generateScenario(ScenarioOptions{}, GetParam());
  const auto& scenario = generated.scenario;
  Pcg32 rng(GetParam(), 5);
  for (int trial = 0; trial < 5; ++trial) {
    const auto mapping = sched::randomMapping(
        scenario.graph.applicationCount(), scenario.machines, rng);
    const CompiledScenario compiled = scenario.compile();
    const double slack = compiled.slack(mapping);
    const auto report = compiled.analyze(mapping);
    EXPECT_TRUE(std::isfinite(slack));
    EXPECT_GE(report.metric, 0.0);
    EXPECT_EQ(report.metric, std::floor(report.metric));  // floored
    if (slack < 0.0) {
      EXPECT_EQ(report.metric, 0.0);
    } else {
      // All constraints satisfied at lambda_orig: strictly positive slack
      // should produce a positive radius (before flooring).
      EXPECT_GE(report.radii[report.bindingFeature].radius, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 2003));

}  // namespace
}  // namespace robust::hiperd

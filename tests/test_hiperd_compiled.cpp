// CompiledScenario equivalence suite: the fast per-mapping analysis must be
// bit-identical to compiling and evaluating the mapping's spec
// (CompiledProblem::compile(compiled.toSpec(mapping)).evaluate()). The two
// lanes share the latency row assembly, so frozen hexfloat references and
// an independent row oracle pin the bits on their own.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"

namespace robust::hiperd {
namespace {

bool bitEq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The spec lane: derive, compile and evaluate afresh per mapping.
core::RobustnessReport legacyReport(const HiperdScenario& scenario,
                                    const sched::Mapping& mapping,
                                    const core::AnalyzerOptions& options = {}) {
  return core::CompiledProblem::compile(
             scenario.compile(options).toSpec(mapping))
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
  scenario.comm.assign(g.edgeCount(),
                       LoadFunction::linear(num::Vec(2, 0.0)));
  scenario.comm[4] = LoadFunction::linear({0.0, 0.5});
  scenario.latencyLimits.assign(g.paths().size(), 500.0);
  return scenario;
}

/// The mini scenario with a3's machine-1 computation quadratic in l2, so no
/// analysis of it can take the all-affine fast path.
HiperdScenario nonLinearScenario() {
  HiperdScenario scenario = miniScenario();
  scenario.compute[3][1] = LoadFunction::general(
      [](std::span<const double> l) { return 0.05 * l[1] * l[1]; },
      [](std::span<const double> l) {
        return num::Vec{0.0, 0.1 * l[1]};
      });
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
  const HiperdScenario scenario = nonLinearScenario();
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

/// T_i^c(lambda) by hand: the multitasking factor of the app's machine
/// load times the app's compute function on that machine.
double oracleComputationTime(const HiperdScenario& scenario,
                             const sched::Mapping& mapping, std::size_t app,
                             std::span<const double> lambda) {
  const std::size_t machine = mapping.machineOf(app);
  std::size_t onMachine = 0;
  for (std::size_t j = 0; j < mapping.apps(); ++j) {
    onMachine += mapping.machineOf(j) == machine ? 1 : 0;
  }
  return multitaskFactor(onMachine) *
         scenario.compute[app][machine].evaluate(lambda);
}

/// Checks every Tc and L feature of toSpec(mapping) at random loads against
/// per-app computation times and communication times summed in path order:
/// affine impacts to 1e-12 relative, callable ones exactly. Returns the
/// number of callable latencies checked.
std::size_t expectSpecRowsMatchOracle(const HiperdScenario& scenario,
                                      std::uint64_t seed) {
  const CompiledScenario compiled = scenario.compile();
  const SystemGraph& graph = scenario.graph;
  std::size_t callables = 0;
  Pcg32 rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    const sched::Mapping mapping = sched::randomMapping(
        graph.applicationCount(), scenario.machines, rng);
    num::Vec lambda(scenario.lambdaOrig.size());
    for (std::size_t z = 0; z < lambda.size(); ++z) {
      lambda[z] = rng.uniform(0.0, 2.0 * scenario.lambdaOrig[z] + 1.0);
    }
    std::size_t latencies = 0;
    const core::ProblemSpec spec = compiled.toSpec(mapping);
    for (const core::PerformanceFeature& f : spec.features) {
      double want = 0.0;
      if (f.name.starts_with("L_")) {
        ++latencies;
        const Path& path = graph.paths().at(std::stoul(f.name.substr(2)));
        for (std::size_t app : path.apps) {
          want += oracleComputationTime(scenario, mapping, app, lambda);
        }
        for (std::size_t eid : path.edges) {
          want += scenario.comm[eid].evaluate(lambda);
        }
      } else if (f.name.starts_with("Tc(")) {
        std::size_t app = 0;
        while (app < graph.applicationCount() &&
               f.name != "Tc(" + graph.applicationName(app) + ")") {
          ++app;
        }
        if (app == graph.applicationCount()) {
          ADD_FAILURE() << "no application for " << f.name;
          continue;
        }
        want = oracleComputationTime(scenario, mapping, app, lambda);
      } else {
        continue;
      }
      const double got = f.impact.evaluate(lambda);
      if (f.impact.isAffine()) {
        EXPECT_NEAR(got, want, 1e-12 * std::fabs(want)) << f.name;
      } else {
        ++callables;
        EXPECT_EQ(got, want) << f.name;
      }
    }
    EXPECT_GT(latencies, 0u);
  }
  return callables;
}

TEST(CompiledScenario, SpecRowsMatchIndependentOracle) {
  EXPECT_EQ(expectSpecRowsMatchOracle(
                generateScenario(ScenarioOptions{}, 2003).scenario, 41),
            0u);
  EXPECT_EQ(expectSpecRowsMatchOracle(miniScenario(), 43), 0u);
  EXPECT_GT(expectSpecRowsMatchOracle(nonLinearScenario(), 47), 0u);
}

TEST(CompiledScenario, RejectsBadInputs) {
  const HiperdScenario scenario = miniScenario();
  core::AnalyzerOptions badWeights;
  badWeights.norm = core::NormKind::Weighted;  // weights missing
  EXPECT_THROW((void)scenario.compile(badWeights), InvalidArgumentError);

  const CompiledScenario compiled = scenario.compile();
  for (const sched::Mapping& bad :
       {sched::Mapping({0, 0, 1}, 2), sched::Mapping({0, 0, 1, 2}, 3)}) {
    EXPECT_THROW((void)compiled.analyze(bad), InvalidArgumentError);
    EXPECT_THROW((void)compiled.toSpec(bad), InvalidArgumentError);
    EXPECT_THROW((void)compiled.slack(bad), InvalidArgumentError);
    EXPECT_THROW((void)compiled.constraints(bad), InvalidArgumentError);
  }
}

// Frozen bits. Every value below was recorded as a C99 hexfloat from the
// per-mapping derivation (compile the mapping's spec, evaluate), so a change
// in the last bit of any field fails in either lane; the lane-against-lane
// tests above would not see a change both lanes share.

struct FrozenRadius {
  const char* feature;
  double radius;
  double boundaryLevel;
  bool boundReachable;
  const char* method;
  std::array<double, 2> boundaryPoint;
};

struct FrozenReport {
  double metric;
  std::size_t bindingFeature;
  bool floored;
  std::array<FrozenRadius, 8> radii;
};

void expectFrozen(const core::RobustnessReport& got, const FrozenReport& want,
                  const char* label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(bitEq(got.metric, want.metric))
      << std::hexfloat << got.metric;
  EXPECT_EQ(got.bindingFeature, want.bindingFeature);
  EXPECT_EQ(got.floored, want.floored);
  ASSERT_EQ(got.radii.size(), want.radii.size());
  for (std::size_t i = 0; i < want.radii.size(); ++i) {
    const core::RadiusReport& g = got.radii[i];
    const FrozenRadius& w = want.radii[i];
    EXPECT_EQ(g.feature, w.feature);
    EXPECT_TRUE(bitEq(g.radius, w.radius))
        << g.feature << " radius " << std::hexfloat << g.radius;
    EXPECT_TRUE(bitEq(g.boundaryLevel, w.boundaryLevel)) << g.feature;
    EXPECT_EQ(g.boundReachable, w.boundReachable) << g.feature;
    EXPECT_EQ(g.method, w.method) << g.feature;
    ASSERT_EQ(g.boundaryPoint.size(), w.boundaryPoint.size()) << g.feature;
    for (std::size_t k = 0; k < w.boundaryPoint.size(); ++k) {
      EXPECT_TRUE(bitEq(g.boundaryPoint[k], w.boundaryPoint[k]))
          << g.feature << " boundaryPoint[" << k << "] " << std::hexfloat
          << g.boundaryPoint[k];
    }
  }
}

/// Mini-scenario reports at mapping {0, 0, 1, 1} under L1, L2, LInf and
/// Weighted {1.5, 0.25}; then the non-linear fallback at the same mapping;
/// then the KktNewton request at mapping {0, 1, 0, 1}.
const FrozenReport kFrozenMini[] = {
      // l1
      {0x1.cp+4, 6, true,
       {{
           {"Tc(a0)", 0x1.769d89d89d89dp+8, 0x1.f4p+9, true, "analytic-l1",
            {0x1.809d89d89d89dp+8, 0x1.4p+4}},
           {"Tc(a1)", 0x1.589d89d89d89dp+7, 0x1.f4p+9, true, "analytic-l1",
            {0x1.6c9d89d89d89dp+7, 0x1.4p+4}},
           {"Tc(a2)", 0x1.d8d20d20d20d1p+7, 0x1.f4p+10, true, "analytic-l1",
            {0x1.4p+3, 0x1.0069069069068p+8}},
           {"Tc(a3)", 0x1.769d89d89d89dp+9, 0x1.f4p+10, true, "analytic-l1",
            {0x1.4p+3, 0x1.809d89d89d89dp+9}},
           {"Tn(a2->a1)", 0x1.f18p+11, 0x1.f4p+10, true, "analytic-l1",
            {0x1.4p+3, 0x1.f4p+11}},
           {"L_0", 0x1.7b7cb7cb7cb7cp+5, 0x1.f4p+8, true, "analytic-l1",
            {0x1.cb7cb7cb7cb7cp+5, 0x1.4p+4}},
           {"L_1", 0x1.c13b13b13b13bp+4, 0x1.f4p+8, true, "analytic-l1",
            {0x1.4p+3, 0x1.809d89d89d89ep+5}},
           {"L_2", 0x1.41ed7e75346fp+5, 0x1.f4p+8, true, "analytic-l1",
            {0x1.4p+3, 0x1.e1ed7e75346fp+5}},
       }}},
      // l2
      {0x1.cp+4, 6, true,
       {{
           {"Tc(a0)", 0x1.769d89d89d89dp+8, 0x1.f4p+9, true, "analytic-l2",
            {0x1.809d89d89d89dp+8, 0x1.4p+4}},
           {"Tc(a1)", 0x1.343bbe2a3a503p+7, 0x1.f4p+9, true, "analytic-l2",
            {0x1.27b13b13b13b1p+7, 0x1.63b13b13b13b1p+6}},
           {"Tc(a2)", 0x1.d8d20d20d20d1p+7, 0x1.f4p+10, true, "analytic-l2",
            {0x1.4p+3, 0x1.0069069069068p+8}},
           {"Tc(a3)", 0x1.769d89d89d89dp+9, 0x1.f4p+10, true, "analytic-l2",
            {0x1.4p+3, 0x1.809d89d89d89dp+9}},
           {"Tn(a2->a1)", 0x1.f18p+11, 0x1.f4p+10, true, "analytic-l2",
            {0x1.4p+3, 0x1.f4p+11}},
           {"L_0", 0x1.68035dbbad3aep+5, 0x1.f4p+8, true, "analytic-l2",
            {0x1.a589d89d89d8ap+5, 0x1.11d89d89d89d8p+5}},
           {"L_1", 0x1.c13b13b13b13bp+4, 0x1.f4p+8, true, "analytic-l2",
            {0x1.4p+3, 0x1.809d89d89d89dp+5}},
           {"L_2", 0x1.41ed7e75346fp+5, 0x1.f4p+8, true, "analytic-l2",
            {0x1.4p+3, 0x1.e1ed7e75346fp+5}},
       }}},
      // linf
      {0x1.cp+4, 6, true,
       {{
           {"Tc(a0)", 0x1.769d89d89d89dp+8, 0x1.f4p+9, true, "analytic-linf",
            {0x1.809d89d89d89dp+8, 0x1.4p+4}},
           {"Tc(a1)", 0x1.cb7cb7cb7cb7cp+6, 0x1.f4p+9, true, "analytic-linf",
            {0x1.f37cb7cb7cb7cp+6, 0x1.0dbe5be5be5bep+7}},
           {"Tc(a2)", 0x1.d8d20d20d20d1p+7, 0x1.f4p+10, true, "analytic-linf",
            {0x1.4p+3, 0x1.0069069069068p+8}},
           {"Tc(a3)", 0x1.769d89d89d89dp+9, 0x1.f4p+10, true, "analytic-linf",
            {0x1.4p+3, 0x1.809d89d89d89dp+9}},
           {"Tn(a2->a1)", 0x1.f18p+11, 0x1.f4p+10, true, "analytic-linf",
            {0x1.4p+3, 0x1.f4p+11}},
           {"L_0", 0x1.1c9d89d89d89dp+5, 0x1.f4p+8, true, "analytic-linf",
            {0x1.6c9d89d89d89dp+5, 0x1.bc9d89d89d89dp+5}},
           {"L_1", 0x1.c13b13b13b13bp+4, 0x1.f4p+8, true, "analytic-linf",
            {0x1.4p+3, 0x1.809d89d89d89ep+5}},
           {"L_2", 0x1.41ed7e75346fp+5, 0x1.f4p+8, true, "analytic-linf",
            {0x1.4p+3, 0x1.e1ed7e75346fp+5}},
       }}},
      // weighted
      {0x1.cp+3, 6, true,
       {{
           {"Tc(a0)", 0x1.caceeada06fcap+8, 0x1.f4p+9, true, "analytic-weighted",
            {0x1.809d89d89d89dp+8, 0x1.4p+4}},
           {"Tc(a1)", 0x1.0af01c1efa09dp+7, 0x1.f4p+9, true, "analytic-weighted",
            {0x1.3bb13b13b13b1p+6, 0x1.c589d89d89d8ap+7}},
           {"Tc(a2)", 0x1.d8d20d20d20d1p+6, 0x1.f4p+10, true, "analytic-weighted",
            {0x1.4p+3, 0x1.0069069069068p+8}},
           {"Tc(a3)", 0x1.769d89d89d89dp+8, 0x1.f4p+10, true, "analytic-weighted",
            {0x1.4p+3, 0x1.809d89d89d89dp+9}},
           {"Tn(a2->a1)", 0x1.f18p+10, 0x1.f4p+10, true, "analytic-weighted",
            {0x1.4p+3, 0x1.f4p+11}},
           {"L_0", 0x1.68035dbbad3bp+5, 0x1.f4p+8, true, "analytic-weighted",
            {0x1.33b13b13b13b2p+5, 0x1.33b13b13b13b1p+6}},
           {"L_1", 0x1.c13b13b13b13bp+3, 0x1.f4p+8, true, "analytic-weighted",
            {0x1.4p+3, 0x1.809d89d89d89dp+5}},
           {"L_2", 0x1.41ed7e75346fp+4, 0x1.f4p+8, true, "analytic-weighted",
            {0x1.4p+3, 0x1.e1ed7e75346fp+5}},
       }}},
      // nonlinear
      {0x1.2p+4, 6, true,
       {{
           {"Tc(a0)", 0x1.769d89d89d89dp+8, 0x1.f4p+9, true, "analytic-l2",
            {0x1.809d89d89d89dp+8, 0x1.4p+4}},
           {"Tc(a1)", 0x1.343bbe2a3a503p+7, 0x1.f4p+9, true, "analytic-l2",
            {0x1.27b13b13b13b1p+7, 0x1.63b13b13b13b1p+6}},
           {"Tc(a2)", 0x1.d8d20d20d20d1p+7, 0x1.f4p+10, true, "analytic-l2",
            {0x1.4p+3, 0x1.0069069069068p+8}},
           {"Tc(a3)", 0x1.a0239176d2c2ep+6, 0x1.f4p+10, true, "kkt-newton",
            {0x1.4p+3, 0x1.f0239176d2c2ep+6}},
           {"Tn(a2->a1)", 0x1.f18p+11, 0x1.f4p+10, true, "analytic-l2",
            {0x1.4p+3, 0x1.f4p+11}},
           {"L_0", 0x1.68035dbbad3aep+5, 0x1.f4p+8, true, "analytic-l2",
            {0x1.a589d89d89d8ap+5, 0x1.11d89d89d89d8p+5}},
           {"L_1", 0x1.2e4701402b6a6p+4, 0x1.f4p+8, true, "kkt-newton",
            {0x1.4p+3, 0x1.372380a015b53p+5}},
           {"L_2", 0x1.41ed7e75346fp+5, 0x1.f4p+8, true, "analytic-l2",
            {0x1.4p+3, 0x1.e1ed7e75346fp+5}},
       }}},
      // kkt
      {0x1.08p+5, 6, true,
       {{
           {"Tc(a0)", 0x1.769d89d89d89dp+8, 0x1.f4p+9, true, "kkt-newton",
            {0x1.809d89d89d89dp+8, 0x1.4p+4}},
           {"Tc(a1)", 0x1.1242c882f0c61p+7, 0x1.f4p+9, true, "kkt-newton",
            {0x1.20ef5657dba51p+7, 0x1.7725deacafb74p+5}},
           {"Tc(a2)", 0x1.1824f485bfddcp+8, 0x1.f4p+10, true, "kkt-newton",
            {0x1.03c368854d412p+6, 0x1.26b442a6a0917p+8}},
           {"Tc(a3)", 0x1.769d89d89d89dp+9, 0x1.f4p+10, true, "kkt-newton",
            {0x1.4p+3, 0x1.809d89d89d89dp+9}},
           {"Tn(a2->a1)", 0x1.f18p+11, 0x1.f4p+10, true, "kkt-newton",
            {0x1.4p+3, 0x1.f4p+11}},
           {"L_0", 0x1.4d51bae5dc186p+5, 0x1.f4p+8, true, "kkt-newton",
            {0x1.99f81f81f81fap+5, 0x1.9e46e46e46e47p+4}},
           {"L_1", 0x1.096fdfb25e64ep+5, 0x1.f4p+8, true, "kkt-newton",
            {0x1.d627627627628p+3, 0x1.a6c4ec4ec4ec5p+5}},
           {"L_2", 0x1.85e79159b43a7p+5, 0x1.f4p+8, true, "kkt-newton",
            {0x1.2e63164597dcep+4, 0x1.0facc55daee46p+6}},
       }}},
};

TEST(CompiledScenario, MiniReportsMatchFrozenBits) {
  const HiperdScenario scenario = miniScenario();
  const sched::Mapping mapping({0, 0, 1, 1}, 2);
  std::size_t n = 0;
  for (const core::NormKind norm :
       {core::NormKind::L1, core::NormKind::L2, core::NormKind::LInf,
        core::NormKind::Weighted}) {
    core::AnalyzerOptions options;
    options.norm = norm;
    if (norm == core::NormKind::Weighted) {
      options.normWeights = {1.5, 0.25};
    }
    const std::string label = core::toString(norm);
    expectFrozen(scenario.compile(options).analyze(mapping), kFrozenMini[n],
                 label.c_str());
    expectFrozen(legacyReport(scenario, mapping, options), kFrozenMini[n],
                 (label + " legacy").c_str());
    ++n;
  }

  const HiperdScenario nonLinear = nonLinearScenario();
  expectFrozen(nonLinear.compile().analyze(mapping), kFrozenMini[n],
               "non-linear");
  expectFrozen(legacyReport(nonLinear, mapping), kFrozenMini[n],
               "non-linear legacy");
  ++n;

  core::AnalyzerOptions kkt;
  kkt.solver = core::SolverKind::KktNewton;
  const sched::Mapping kktMapping({0, 1, 0, 1}, 2);
  expectFrozen(scenario.compile(kkt).analyze(kktMapping), kFrozenMini[n],
               "kkt-newton");
  expectFrozen(legacyReport(scenario, kktMapping, kkt), kFrozenMini[n],
               "kkt-newton legacy");
}

struct FrozenMapping {
  double metric;
  std::size_t bindingFeature;
  double slack;
  std::array<double, 39> radii;  ///< 20 Tc, then 19 L (no Tn features)
};

/// The first 8 mappings drawn by Pcg32(17) on the seed-2003 scenario.
const FrozenMapping kFrozenSeed2003[] = {
      {0x1.b8p+5, 30, 0x1.7e57bc3d09b68p-3,
       {
           0x1.38920908dda85p+11, 0x1.a18cd10610f33p+9, 0x1.b52b68aba7c52p+12,
           0x1.764d93206488ep+17, 0x1.45c60d7dd0782p+16, 0x1.a3ecb1862cac3p+15,
           0x1.690b66d6f0de4p+15, 0x1.abd1b19414fbdp+12, 0x1.604f608453383p+12,
           0x1.ef9fe2acc983cp+18, 0x1.c20a81bfb41c5p+13, 0x1.25b52066b892cp+18,
           0x1.d8eff1e0a9a3ep+16, 0x1.3515cf1b23347p+12, 0x1.e8b45a033af91p+12,
           0x1.fe856de47c9a4p+15, 0x1.604207ccb041ep+12, 0x1.b5d64b862076ep+11,
           0x1.ee97c76d88cabp+12, 0x1.21bce23fb71a1p+15, 0x1.706324c92a4c6p+11,
           0x1.30dc38456d7e6p+10, 0x1.7ab74f984028ap+7, 0x1.069b79dd89778p+8,
           0x1.5e444d47fb2e6p+8, 0x1.536ae645f6377p+7, 0x1.320b24ec6a926p+8,
           0x1.1816e19fe9871p+8, 0x1.a6c5fd7fdec2p+8, 0x1.6ce5b985f467cp+8,
           0x1.b8b9c9245d91p+5, 0x1.e338ef51b57eep+7, 0x1.cb7e8e24b9641p+7,
           0x1.551fb9197cb55p+8, 0x1.5afe95b62cbb6p+8, 0x1.d309e4d95715ap+8,
           0x1.18f4eadd5f4ebp+9, 0x1.2b028329a7f3fp+8, 0x1.1fb22fff7d62cp+8,
       }},
      {0x1.1p+5, 36, 0x1.24e5c56584268p-4,
       {
           0x1.8e264b5df8d1dp+12, 0x1.7f09b03224957p+11, 0x1.fd448e61a3473p+13,
           0x1.2abf0f7f4431ep+15, 0x1.0e30b284c62b9p+14, 0x1.018b9e2f8bbe4p+15,
           0x1.6c4770d06de99p+13, 0x1.6c6766d4ea703p+13, 0x1.75118789788c9p+10,
           0x1.4a1a971ddbad2p+17, 0x1.f152e7b8b3015p+14, 0x1.c257e3142fa6cp+15,
           0x1.5fd77569eea23p+14, 0x1.d42075ee11841p+12, 0x1.4dea89f95250cp+14,
           0x1.5c1c0ab179cebp+16, 0x1.25d25e9855a96p+13, 0x1.bf9855d6bf1ccp+12,
           0x1.f58e60bf80371p+14, 0x1.b93ae187bc5e8p+12, 0x1.42cbdb604c17dp+12,
           0x1.d346bcc82f169p+11, 0x1.8dd15e5744001p+9, 0x1.e62897493bffep+9,
           0x1.b352859fd523ap+9, 0x1.830c2f2f4b12ep+9, 0x1.0d459c9214p+10,
           0x1.32fe3bc8ac215p+9, 0x1.2e38b7bb06d36p+9, 0x1.34c3795e338c3p+9,
           0x1.114ba984415adp+8, 0x1.61fbaca60fe67p+9, 0x1.060c5b27060b6p+9,
           0x1.60a1b3fd8f928p+9, 0x1.94f272984d6d3p+8, 0x1.041bc70399313p+9,
           0x1.11d986b283486p+5, 0x1.c8b2e72581bfep+8, 0x1.304af4c05dc53p+8,
       }},
      {0x1.62p+8, 22, 0x1.d7a8eb984eac6p-2,
       {
           0x1.bcaa1292566c7p+11, 0x1.b56bbfe4534c6p+11, 0x1.948376f87f975p+16,
           0x1.c10e973ee64adp+15, 0x1.44fa6fd287679p+14, 0x1.053144d928e6cp+14,
           0x1.e4d5b902b7b11p+15, 0x1.ddf4891be3402p+12, 0x1.95876a939a84bp+11,
           0x1.8c37e88a3acfcp+17, 0x1.0906210529107p+15, 0x1.1390c8486049fp+14,
           0x1.27eff72c6a066p+18, 0x1.dc3845012a8e7p+13, 0x1.be78b7f7186bap+14,
           0x1.1aebe11522b24p+19, 0x1.483152caf54c9p+13, 0x1.d61e4872a02ep+14,
           0x1.36fedca4757ebp+13, 0x1.d97089fe67ea3p+12, 0x1.9e8fcf2b101fcp+11,
           0x1.c734f866ee934p+11, 0x1.62eab984311cdp+8, 0x1.c8692d80709bp+8,
           0x1.331d9fe19dbd5p+9, 0x1.b027762cd388bp+8, 0x1.024c463df0571p+9,
           0x1.df4de33774c22p+8, 0x1.3e3a6019b0bdfp+9, 0x1.b56e5ad4ea43dp+8,
           0x1.1fcf63b72ec13p+10, 0x1.5ae4f8e960b3bp+9, 0x1.0ab27d070e87ap+10,
           0x1.58282b5888be4p+10, 0x1.a00d30eb3585p+9, 0x1.f877afe9c436fp+9,
           0x1.70a23456d515dp+8, 0x1.746fa16b59da9p+9, 0x1.c0bc3205d77d4p+8,
       }},
      {0x1.09p+9, 29, 0x1.609e386fcbc5ap-1,
       {
           0x1.54ff8dedc0d16p+12, 0x1.28ee268e83aacp+11, 0x1.dabc307185e2ap+13,
           0x1.69dfa73f0ab8bp+14, 0x1.0683563892bc7p+16, 0x1.90f5bc0abb9f4p+14,
           0x1.06a7180c365ebp+14, 0x1.6c6766d4ea703p+13, 0x1.20a61d680e07fp+13,
           0x1.4a56971ddbad2p+18, 0x1.211e099068a5ap+15, 0x1.d6de53f0ae4e1p+14,
           0x1.87140076ae17ep+15, 0x1.7e6b45d14167fp+13, 0x1.0a1d498a7205p+15,
           0x1.5c940ab179cecp+17, 0x1.25d25e9855a96p+13, 0x1.80f2803e4a43dp+13,
           0x1.907eb3cc66929p+14, 0x1.776e21d430a7bp+14, 0x1.42cbdb604c17dp+12,
           0x1.7f7e6af7be488p+11, 0x1.46300b2324d59p+9, 0x1.924ee22054743p+9,
           0x1.c227495645548p+9, 0x1.714d60845c93ap+9, 0x1.bf72695ce8829p+9,
           0x1.3507e79ab8feap+9, 0x1.a11ad1fb5e908p+9, 0x1.097d339c22db1p+9,
           0x1.30d44a76515d5p+9, 0x1.03c2fd295dfe6p+10, 0x1.c5491d3aa9532p+9,
           0x1.269b09ada7413p+10, 0x1.00766a9a0e2c2p+10, 0x1.393ca91b7a2ccp+10,
           0x1.133a914cdb776p+10, 0x1.84a812d5be95ap+9, 0x1.411ebb9200b72p+9,
       }},
      {0x0p+0, 36, -0x1.349e3e7bc0028p-3,
       {
           0x1.cb0c3881e1102p+14, 0x1.1cb802a3ca97fp+10, 0x1.0b9b216b48db3p+12,
           0x1.764d93206488ep+17, 0x1.968390dd44962p+15, 0x1.26527c4452789p+16,
           0x1.0f55949c526f3p+13, 0x1.1fb48de20f097p+12, 0x1.fdb4b530abc24p+9,
           0x1.eae86916b74cap+17, 0x1.22164480cbc63p+16, 0x1.5c76bef482ba9p+13,
           0x1.22f700590291fp+14, 0x1.d4b845012a8e7p+12, 0x1.3350b84204dbbp+13,
           0x1.65bd66865738cp+16, 0x1.b2945ec266a4bp+13, 0x1.47dafd52d2a3dp+12,
           0x1.2f7edca4757ebp+12, 0x1.9662098c66be1p+15, 0x1.deb0956e407fep+10,
           0x1.607de8e369174p+10, 0x1.1305a0d6d7f14p+12, 0x1.448012fb6a186p+12,
           0x1.0765022778fcp+11, 0x1.3c7e817b97aacp+10, 0x1.61d72ae2ca54ep+12,
           0x1.1c83d90c55db4p+10, 0x1.6140a846da2b7p+9, 0x1.7c23aa2ed74bep+9,
           0x1.879bb441da625p+7, 0x1.c5c9f1d2c1677p+7, 0x1.360bfaae85ad3p+9,
           0x1.9c02b6a39b733p+9, 0x1.1d3a2f269cc6ap+9, 0x1.67eead9c1ea7ep+9,
           0x0p+0, 0x1.556926d45f675p+9, 0x1.e96aad1fa7abdp+8,
       }},
      {0x1.4p+7, 30, 0x1.9adcd38762a3cp-2,
       {
           0x1.043dd81b17387p+13, 0x1.7f09b03224957p+11, 0x1.54c309966cda1p+14,
           0x1.c547910ecd66dp+14, 0x1.0fca6093830ecp+17, 0x1.de26e1a67abf3p+13,
           0x1.5f742010487e3p+14, 0x1.c2d416367e758p+11, 0x1.9a42882a741c3p+12,
           0x1.8c37e88a3acfcp+17, 0x1.8c993187bd98bp+14, 0x1.1390c8486049fp+14,
           0x1.87140076ae17ep+15, 0x1.3515cf1b23347p+12, 0x1.bc297ee3625a9p+13,
           0x1.c8a79b63ae136p+15, 0x1.5a29e568521d7p+13, 0x1.9d91bca7874cbp+12,
           0x1.29eab8fb3235bp+13, 0x1.c0bae187bc5e8p+13, 0x1.6bf3aabe9ap+10,
           0x1.33ac0bc0b4295p+11, 0x1.13926425ec977p+10, 0x1.4cd22f7bc03a1p+10,
           0x1.3908c9691aebp+10, 0x1.a2ceaf38bf5dp+9, 0x1.6ec4f201b86eap+10,
           0x1.f94630e007d85p+9, 0x1.10c8d993547cep+10, 0x1.6437cbf928de7p+9,
           0x1.41a5bbf671d26p+7, 0x1.12c761179058dp+8, 0x1.210bc50217711p+8,
           0x1.9e7b7fd95a48ep+8, 0x1.690780b88011cp+8, 0x1.d958a0a700c7bp+8,
           0x1.255b0100428bbp+9, 0x1.ccdfc4ba61b2ep+8, 0x1.9b8c4edf87d46p+7,
       }},
      {0x1.a8p+5, 38, 0x1.74d9fdffb5a58p-3,
       {
           0x1.9d368b4b15126p+12, 0x1.7f09b03224957p+11, 0x1.95ea0b814f6c2p+13,
           0x1.108dec1f45a7fp+16, 0x1.2b49e74ca67b2p+15, 0x1.c9efc33df5219p+13,
           0x1.a2be8ce056fddp+13, 0x1.2125ebdd8859cp+13, 0x1.5f7dbba66cf04p+12,
           0x1.315c54730c3aep+16, 0x1.67fd8bf482cfp+14, 0x1.6336240ecbd05p+13,
           0x1.25c700590291fp+16, 0x1.771b42e1ec019p+11, 0x1.6e09b718bfe99p+16,
           0x1.1a91e11522b24p+17, 0x1.39d9c6d31a39ap+13, 0x1.db8f204ddcd4dp+12,
           0x1.f58e60bf80371p+14, 0x1.fc728bef806d9p+15, 0x1.faf95f0079bfcp+11,
           0x1.b828ce749061cp+11, 0x1.a0b291bf28196p+9, 0x1.fc425854ebd56p+9,
           0x1.1d05b7e44c09ep+10, 0x1.03d1e407a472dp+10, 0x1.1946f713c29b8p+10,
           0x1.52457b99dbfeap+9, 0x1.d526507d0b44p+9, 0x1.fb407e34decb9p+8,
           0x1.1d88caa80a36bp+6, 0x1.9f2b231e00c01p+7, 0x1.b3f1d0757831fp+6,
           0x1.7f7607af6cb8bp+7, 0x1.dd9b166991dc1p+6, 0x1.6a068ef5ab62cp+7,
           0x1.0a03dad1b6ccfp+8, 0x1.c84b922b7c579p+7, 0x1.ab59a320ec991p+5,
       }},
      {0x1.02p+7, 30, 0x1.66daf19eed19cp-2,
       {
           0x1.af3c682d26b37p+12, 0x1.3c4aae2fb8ca9p+9, 0x1.8a5cd30944e78p+13,
           0x1.2baf0f7f4431ep+16, 0x1.8fad3466334edp+15, 0x1.071144d928e6cp+15,
           0x1.700770d06de99p+14, 0x1.75a2aa428d353p+12, 0x1.604f608453383p+12,
           0x1.3713f2093d519p+18, 0x1.29957e8890d5bp+17, 0x1.c81cdd2cb90d2p+13,
           0x1.e9a4ae2ae5b91p+15, 0x1.0f037b032eb8p+13, 0x1.6bc046b5faee9p+14,
           0x1.54342406a38ffp+19, 0x1.604207ccb041ep+12, 0x1.cbcb20bf760e9p+11,
           0x1.1cff12b69268ap+14, 0x1.383bc6db7de11p+14, 0x1.3e7c2b14be89ap+11,
           0x1.e18fd550ace9ap+9, 0x1.b74951948a51cp+9, 0x1.0b59d23c7585bp+10,
           0x1.30238eaa27342p+10, 0x1.aca166b6b7d7fp+9, 0x1.27a41f016f06dp+10,
           0x1.afd980cfeb801p+9, 0x1.d6ce3d9570505p+9, 0x1.4f1390426e343p+9,
           0x1.02f78b3f2e8b1p+7, 0x1.50cd69a8cf6b6p+9, 0x1.8c7fff1c37a98p+9,
           0x1.037b1bcb65b18p+10, 0x1.508fbee5ecee9p+9, 0x1.a64c6e88d240ep+9,
           0x1.84c7503f60102p+9, 0x1.ada276d66d00fp+8, 0x1.eb525af02e26fp+8,
       }},
};

TEST(CompiledScenario, Seed2003MappingsMatchFrozenBits) {
  const auto generated = generateScenario(ScenarioOptions{}, 2003);
  const HiperdScenario& scenario = generated.scenario;
  const CompiledScenario compiled = scenario.compile();
  Pcg32 rng(17);
  ScenarioWorkspace workspace;
  for (const FrozenMapping& want : kFrozenSeed2003) {
    const sched::Mapping mapping = sched::randomMapping(
        scenario.graph.applicationCount(), scenario.machines, rng);
    for (const core::RobustnessReport& got :
         {compiled.analyze(mapping, workspace),
          legacyReport(scenario, mapping)}) {
      EXPECT_TRUE(bitEq(got.metric, want.metric))
          << std::hexfloat << got.metric;
      EXPECT_EQ(got.bindingFeature, want.bindingFeature);
      ASSERT_EQ(got.radii.size(), want.radii.size());
      for (std::size_t i = 0; i < want.radii.size(); ++i) {
        EXPECT_TRUE(bitEq(got.radii[i].radius, want.radii[i]))
            << got.radii[i].feature << " " << std::hexfloat
            << got.radii[i].radius;
      }
    }
    const double slack = compiled.slack(mapping, workspace);
    EXPECT_TRUE(bitEq(slack, want.slack)) << std::hexfloat << slack;
  }
}

}  // namespace
}  // namespace robust::hiperd

// Tests for the HiPer-D model and its Section 3.2 derivation on
// CompiledScenario: load functions, multitasking factors,
// computation/communication/latency evaluation, the slack metric, and the
// robustness derivation, all against hand computations. The HiperdSystem
// suite is named for the per-mapping class these cases first tested; they
// keep their test IDs so results stay comparable across versions.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "robust/core/validation.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/util/error.hpp"

namespace robust::hiperd {
namespace {

NodeRef sensor(std::size_t i) { return NodeRef{NodeKind::Sensor, i}; }
NodeRef app(std::size_t i) { return NodeRef{NodeKind::Application, i}; }
NodeRef actuator(std::size_t i) { return NodeRef{NodeKind::Actuator, i}; }

// --------------------------------------------------------- load function

TEST(LoadFunction, LinearEvaluatesAndDescribes) {
  const auto f = LoadFunction::linear({2.0, 0.0, 3.0});
  EXPECT_DOUBLE_EQ(f.evaluate(num::Vec{1.0, 100.0, 2.0}), 8.0);
  EXPECT_TRUE(f.isLinear());
  EXPECT_FALSE(f.isZero());
  EXPECT_EQ(f.describe(), "2*l1 + 3*l3");
}

TEST(LoadFunction, ZeroIsZero) {
  const auto z = LoadFunction::linear(num::Vec(3, 0.0));
  EXPECT_TRUE(z.isZero());
  EXPECT_DOUBLE_EQ(z.evaluate(num::Vec{5.0, 5.0, 5.0}), 0.0);
  EXPECT_EQ(z.describe(), "0");
}

TEST(LoadFunction, GeneralWrapsCallable) {
  const auto f = LoadFunction::general(
      [](std::span<const double> l) { return l[0] * l[0]; });
  EXPECT_FALSE(f.isLinear());
  EXPECT_FALSE(f.isZero());
  EXPECT_DOUBLE_EQ(f.evaluate(num::Vec{3.0}), 9.0);
  EXPECT_EQ(f.describe(), "<general>");
  EXPECT_THROW((void)f.coeffs(), InvalidArgumentError);
}

TEST(LoadFunction, ImpactAppliesFactor) {
  const auto f = LoadFunction::linear({2.0, 1.0});
  const auto impact = f.impact(2.6);
  EXPECT_TRUE(impact.isAffine());
  EXPECT_DOUBLE_EQ(impact.evaluate(num::Vec{1.0, 1.0}), 7.8);
  const auto g = LoadFunction::general(
      [](std::span<const double> l) { return l[0]; });
  EXPECT_DOUBLE_EQ(g.impact(3.0).evaluate(num::Vec{2.0}), 6.0);
  EXPECT_THROW((void)f.impact(0.0), InvalidArgumentError);
}

TEST(MultitaskFactor, MatchesTableTwoModel) {
  EXPECT_DOUBLE_EQ(multitaskFactor(0), 1.0);
  EXPECT_DOUBLE_EQ(multitaskFactor(1), 1.0);
  EXPECT_DOUBLE_EQ(multitaskFactor(2), 2.6);
  EXPECT_DOUBLE_EQ(multitaskFactor(3), 3.9);
  EXPECT_NEAR(multitaskFactor(4), 5.2, 1e-12);
  EXPECT_DOUBLE_EQ(multitaskFactor(5), 6.5);
  EXPECT_NEAR(multitaskFactor(6), 7.8, 1e-12);
}

// ------------------------------------------------------------- scenario

/// The mini system of test_hiperd_graph with fully hand-computed numbers.
HiperdScenario miniScenario() {
  HiperdScenario scenario;
  SystemGraph& g = scenario.graph;
  g.addSensor("s0", 1.0 / 1000.0);  // throughput bound 1000
  g.addSensor("s1", 1.0 / 2000.0);  // throughput bound 2000
  g.addApplication("a0");
  g.addApplication("a1");
  g.addApplication("a2");
  g.addApplication("a3");
  g.addActuator("act0");
  g.addActuator("act1");
  g.addEdge(sensor(0), app(0));                    // edge 0
  g.addEdge(app(0), app(1), /*trigger=*/true);     // edge 1
  g.addEdge(app(1), actuator(0));                  // edge 2
  g.addEdge(sensor(1), app(2));                    // edge 3
  g.addEdge(app(2), app(1), /*trigger=*/false);    // edge 4 (update)
  g.addEdge(app(2), app(3));                       // edge 5
  g.addEdge(app(3), actuator(1));                  // edge 6
  g.finalize();

  scenario.machines = 2;
  scenario.lambdaOrig = {10.0, 20.0};

  // compute[app][machine]; machine 1 coefficients for apps mapped to m0 (and
  // vice versa) are deliberately "wrong" values that must never be read.
  const num::Vec unused = {999.0, 999.0};
  scenario.compute = {
      {LoadFunction::linear({1.0, 0.0}), LoadFunction::linear(unused)},
      {LoadFunction::linear({2.0, 1.0}), LoadFunction::linear(unused)},
      {LoadFunction::linear(unused), LoadFunction::linear({0.0, 3.0})},
      {LoadFunction::linear(unused), LoadFunction::linear({0.0, 1.0})},
  };
  scenario.comm.assign(g.edgeCount(),
                       LoadFunction::linear(num::Vec(2, 0.0)));
  scenario.comm[4] = LoadFunction::linear({0.0, 0.5});  // a2 -> a1 transfer

  // Latency limits by path content (enumeration order is an implementation
  // detail): {a0,a1} -> 500, {a2,a3} -> 600, update {a2} -> 400.
  const auto& paths = g.paths();
  scenario.latencyLimits.resize(paths.size());
  for (std::size_t k = 0; k < paths.size(); ++k) {
    if (paths[k].kind == PathKind::Update) {
      scenario.latencyLimits[k] = 400.0;
    } else if (paths[k].apps.front() == 0) {
      scenario.latencyLimits[k] = 500.0;
    } else {
      scenario.latencyLimits[k] = 600.0;
    }
  }
  return scenario;
}

sched::Mapping miniMapping() {
  // a0, a1 on m0; a2, a3 on m1: every machine runs 2 apps, factor 2.6.
  return sched::Mapping({0, 0, 1, 1}, 2);
}

std::size_t pathIndexOf(const SystemGraph& g, PathKind kind,
                        std::size_t firstApp) {
  const auto& paths = g.paths();
  for (std::size_t k = 0; k < paths.size(); ++k) {
    if (paths[k].kind == kind && paths[k].apps.front() == firstApp) {
      return k;
    }
  }
  throw std::logic_error("path not found");
}

TEST(ConstraintStatus, FractionAgainstNonPositiveLimit) {
  // A positive value against a zero (or negative) limit is infeasible at any
  // scale: fraction() must report +inf, not 0/0 = NaN or a garbage ratio
  // that would let slack() mask the violation as fully slack.
  ConstraintStatus status;
  status.value = 3.0;
  status.limit = 0.0;
  EXPECT_TRUE(std::isinf(status.fraction()));
  EXPECT_GT(status.fraction(), 0.0);
  status.limit = -1.0;
  EXPECT_TRUE(std::isinf(status.fraction()));

  // A zero value against a zero limit is trivially satisfied.
  status.value = 0.0;
  status.limit = 0.0;
  EXPECT_DOUBLE_EQ(status.fraction(), 0.0);

  // The ordinary ratio is untouched.
  status.value = 1.0;
  status.limit = 4.0;
  EXPECT_DOUBLE_EQ(status.fraction(), 0.25);
}

TEST(HiperdSystem, FactorsAndComputationTimes) {
  const HiperdScenario scenario = miniScenario();
  const CompiledScenario compiled = scenario.compile();
  const sched::Mapping mapping = miniMapping();
  const num::Vec& l = scenario.lambdaOrig;
  // Every machine runs two apps: factor 2.6 on each computation time.
  EXPECT_DOUBLE_EQ(compiled.computationTime(mapping, 0, l), 26.0);   // 2.6*10
  EXPECT_DOUBLE_EQ(compiled.computationTime(mapping, 1, l), 104.0);  // 2.6*40
  EXPECT_DOUBLE_EQ(compiled.computationTime(mapping, 2, l), 156.0);  // 2.6*60
  EXPECT_DOUBLE_EQ(compiled.computationTime(mapping, 3, l), 52.0);   // 2.6*20
  EXPECT_DOUBLE_EQ(compiled.communicationTime(4, l), 10.0);  // 0.5 * 20
  EXPECT_DOUBLE_EQ(compiled.communicationTime(0, l), 0.0);
  EXPECT_THROW((void)compiled.computationTime(mapping, 4, l),
               InvalidArgumentError);
  EXPECT_THROW((void)compiled.communicationTime(7, l), InvalidArgumentError);
}

TEST(HiperdSystem, UnevenMappingFactors) {
  const HiperdScenario scenario = miniScenario();
  const CompiledScenario compiled = scenario.compile();
  // Three apps on m0, one on m1: factors 3.9 and 1.0. Note a2 on m0 uses
  // the machine-0 coefficients (the "unused" 999s).
  const sched::Mapping mapping({0, 0, 0, 1}, 2);
  const num::Vec& l = scenario.lambdaOrig;
  EXPECT_DOUBLE_EQ(compiled.computationTime(mapping, 0, l), 39.0);  // 3.9*10
  EXPECT_DOUBLE_EQ(compiled.computationTime(mapping, 3, l), 20.0);  // 1.0*20
}

TEST(HiperdSystem, ThroughputBounds) {
  const HiperdScenario scenario = miniScenario();
  const CompiledScenario compiled = scenario.compile();
  EXPECT_DOUBLE_EQ(compiled.throughputBound(0), 1000.0);
  EXPECT_DOUBLE_EQ(compiled.throughputBound(1), 1000.0);
  EXPECT_DOUBLE_EQ(compiled.throughputBound(2), 2000.0);
  EXPECT_DOUBLE_EQ(compiled.throughputBound(3), 2000.0);
  EXPECT_THROW((void)compiled.throughputBound(99), InvalidArgumentError);
}

TEST(HiperdSystem, LatenciesMatchHandComputation) {
  const HiperdScenario scenario = miniScenario();
  const CompiledScenario compiled = scenario.compile();
  const sched::Mapping mapping = miniMapping();
  const auto& g = scenario.graph;
  // constraints() lists every path's latency L_k last, in path order.
  const auto constraints = compiled.constraints(mapping);
  const auto latency = [&](PathKind kind, std::size_t terminal) {
    const std::size_t k = pathIndexOf(g, kind, terminal);
    return constraints[constraints.size() - g.paths().size() + k].value;
  };
  EXPECT_DOUBLE_EQ(latency(PathKind::Trigger, 0), 130.0);
  EXPECT_DOUBLE_EQ(latency(PathKind::Trigger, 2), 208.0);
  // Update path: Tc(a2) + Tn(a2->a1) = 156 + 10.
  EXPECT_DOUBLE_EQ(latency(PathKind::Update, 2), 166.0);
}

TEST(HiperdSystem, SlackMatchesHandComputation) {
  const HiperdScenario scenario = miniScenario();
  const CompiledScenario compiled = scenario.compile();
  // Max utilization is the update path: 166 / 400 = 0.415.
  EXPECT_NEAR(compiled.slack(miniMapping()), 1.0 - 0.415, 1e-12);
  ScenarioWorkspace workspace;
  EXPECT_EQ(compiled.slack(miniMapping(), workspace),
            compiled.slack(miniMapping()));
}

TEST(HiperdSystem, ConstraintListContents) {
  const HiperdScenario scenario = miniScenario();
  const CompiledScenario compiled = scenario.compile();
  const auto constraints = compiled.constraints(miniMapping());
  // 4 computation + 1 non-zero communication + 3 latency.
  EXPECT_EQ(constraints.size(), 8u);
  int comp = 0;
  int comm = 0;
  int lat = 0;
  for (const auto& c : constraints) {
    switch (c.kind) {
      case ConstraintKind::Computation: ++comp; break;
      case ConstraintKind::Communication: ++comm; break;
      case ConstraintKind::Latency: ++lat; break;
    }
    EXPECT_GT(c.limit, 0.0);
  }
  EXPECT_EQ(comp, 4);
  EXPECT_EQ(comm, 1);
  EXPECT_EQ(lat, 3);
}

TEST(HiperdSystem, RobustnessMatchesHandComputation) {
  const HiperdScenario scenario = miniScenario();
  const auto report = scenario.compile().analyze(miniMapping());

  // Binding constraint: the update path {a2}, weights (0, 8.3),
  // gap 400 - 166 = 234, radius 234 / 8.3 = 28.1928...
  const double expected = 234.0 / 8.3;
  EXPECT_DOUBLE_EQ(report.metric, std::floor(expected));
  EXPECT_TRUE(report.floored);
  const auto& binding = report.radii[report.bindingFeature];
  const std::size_t updateIdx =
      pathIndexOf(scenario.graph, PathKind::Update, 2);
  EXPECT_EQ(binding.feature, "L_" + std::to_string(updateIdx));
  EXPECT_NEAR(binding.radius, expected, 1e-9);
  // lambda* moves only the second sensor's load.
  EXPECT_NEAR(binding.boundaryPoint[0], 10.0, 1e-9);
  EXPECT_NEAR(binding.boundaryPoint[1], 20.0 + expected, 1e-9);

  // Individual radii: spot-check a computation and the communication one.
  for (const auto& r : report.radii) {
    if (r.feature == "Tc(a0)") {
      EXPECT_NEAR(r.radius, (1000.0 - 26.0) / 2.6, 1e-9);
    } else if (r.feature == "Tn(a2->a1)") {
      EXPECT_NEAR(r.radius, (2000.0 - 10.0) / 0.5, 1e-9);
    }
  }
}

TEST(HiperdSystem, GuaranteeValidatedBySampling) {
  const HiperdScenario scenario = miniScenario();
  const auto problem = core::CompiledProblem::compile(
      scenario.compile().toSpec(miniMapping()));
  const auto report = problem.evaluate();
  const auto validation = core::validateRadius(problem, report.metric);
  EXPECT_EQ(validation.violationsInside, 0);
}

TEST(HiperdSystem, GeneralLoadFunctionUsesIterativeSolver) {
  HiperdScenario scenario = miniScenario();
  // Make a3's computation quadratic in l2: Tc = factor * 0.05 * l2^2.
  scenario.compute[3][1] = LoadFunction::general(
      [](std::span<const double> l) { return 0.05 * l[1] * l[1]; },
      [](std::span<const double> l) {
        return num::Vec{0.0, 0.1 * l[1]};
      });
  const auto report = scenario.compile().analyze(miniMapping());
  // Tc(a3) = 2.6 * 0.05 * l2^2 = 2000 at l2 = sqrt(2000/0.13) = 124.03...;
  // radius = 124.03 - 20 = 104.03. The binding feature is still the update
  // path (28), but the a3 radius must be solved iteratively and correctly.
  for (const auto& r : report.radii) {
    if (r.feature == "Tc(a3)") {
      EXPECT_NEAR(r.radius, std::sqrt(2000.0 / 0.13) - 20.0, 1e-5);
      EXPECT_NE(r.method.find("kkt"), std::string::npos);
    }
  }
}

// The derivation is a free-standing value: a spec built from a temporary
// compiled scenario stays valid while the scenario lives. The general-load
// latency impact must not refer to the compiled scenario, and it sums Eq. 8
// in path order: the apps' computation times, then the edges'
// communication times.
TEST(HiperdSystem, SpecOutlivesTheSystem) {
  HiperdScenario scenario = miniScenario();
  scenario.compute[3][1] = LoadFunction::general(
      [](std::span<const double> l) { return 0.05 * l[1] * l[1]; },
      [](std::span<const double> l) {
        return num::Vec{0.0, 0.1 * l[1]};
      });
  const core::ProblemSpec spec = scenario.compile().toSpec(miniMapping());
  const auto report = core::CompiledProblem::compile(spec).evaluate();

  const CompiledScenario live = scenario.compile();
  const auto expected = live.analyze(miniMapping());
  ASSERT_EQ(report.radii.size(), expected.radii.size());
  for (std::size_t i = 0; i < report.radii.size(); ++i) {
    EXPECT_EQ(report.radii[i].feature, expected.radii[i].feature);
    EXPECT_EQ(report.radii[i].radius, expected.radii[i].radius);
  }
  EXPECT_EQ(report.metric, expected.metric);
  EXPECT_EQ(report.bindingFeature, expected.bindingFeature);

  std::size_t callablePaths = 0;
  for (const auto& f : spec.features) {
    if (f.impact.isAffine() || !f.name.starts_with("L_")) {
      continue;
    }
    ++callablePaths;
    const Path& path = scenario.graph.paths()[std::stoul(f.name.substr(2))];
    for (const num::Vec& l : {num::Vec{10.0, 20.0}, num::Vec{37.5, 123.25}}) {
      double expected = 0.0;
      for (std::size_t app : path.apps) {
        expected += live.computationTime(miniMapping(), app, l);
      }
      for (std::size_t edge : path.edges) {
        expected += live.communicationTime(edge, l);
      }
      EXPECT_EQ(f.impact.evaluate(l), expected) << f.name;
    }
  }
  EXPECT_GT(callablePaths, 0u);
}

TEST(ValidateScenario, CatchesInconsistencies) {
  HiperdScenario s = miniScenario();
  s.lambdaOrig = {1.0};
  EXPECT_THROW(validateScenario(s), InvalidArgumentError);

  s = miniScenario();
  s.latencyLimits.pop_back();
  EXPECT_THROW(validateScenario(s), InvalidArgumentError);

  s = miniScenario();
  s.latencyLimits[0] = 0.0;
  EXPECT_THROW(validateScenario(s), InvalidArgumentError);

  s = miniScenario();
  s.compute.pop_back();
  EXPECT_THROW(validateScenario(s), InvalidArgumentError);

  s = miniScenario();
  s.comm.pop_back();
  EXPECT_THROW(validateScenario(s), InvalidArgumentError);

  s = miniScenario();
  s.machines = 0;
  EXPECT_THROW(validateScenario(s), InvalidArgumentError);

  // A linear load function needs one coefficient per sensor; the
  // diagnostic names the slot.
  const auto expectNamed = [](const HiperdScenario& bad,
                              const std::string& slot) {
    try {
      validateScenario(bad);
      ADD_FAILURE() << slot << " accepted";
    } catch (const InvalidArgumentError& error) {
      EXPECT_NE(std::string(error.what()).find(slot), std::string::npos)
          << error.what();
    }
  };
  s = miniScenario();
  s.compute[0][0] = LoadFunction::linear({1.0});
  expectNamed(s, "compute[0][0]");
  s = miniScenario();
  s.compute[2][1] = LoadFunction::linear({1.0, 2.0, 3.0});
  expectNamed(s, "compute[2][1]");
  s = miniScenario();
  s.comm[4] = LoadFunction::linear({0.5});
  expectNamed(s, "comm[4]");
}

TEST(HiperdSystem, ZeroLoadDependenceYieldsNoFeature) {
  HiperdScenario scenario = miniScenario();
  // Make a0's computation load-independent (zero): its Tc feature vanishes
  // and the remaining analysis still works.
  scenario.compute[0][0] = LoadFunction::linear(num::Vec(2, 0.0));
  const CompiledScenario compiled = scenario.compile();
  for (const auto& f : compiled.toSpec(miniMapping()).features) {
    EXPECT_NE(f.name, "Tc(a0)");
  }
  EXPECT_TRUE(std::isfinite(compiled.analyze(miniMapping()).metric));
}

}  // namespace
}  // namespace robust::hiperd

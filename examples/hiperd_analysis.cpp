// HiPer-D robustness analysis (the paper's Section 3.2 derivation).
//
// Generates a Section 4.3-style scenario (20 applications, 5 machines,
// 3 sensors, 3 actuators, 19 paths), evaluates one mapping's QoS
// constraints, slack and robustness metric, reports the critical sensor
// loads lambda*, and writes the DAG in Graphviz dot format.
//
// Run: ./hiperd_analysis [--seed N] [--dot out.dot] [--save-scenario f.hsc]
#include <fstream>
#include <iostream>

#include "robust/curve/curve.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/hiperd/pipeline_sim.hpp"
#include "robust/hiperd/scenario_io.hpp"
#include "robust/hiperd/slowdown.hpp"
#include "robust/util/args.hpp"
#include "robust/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace robust;
  const ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  const std::string scenarioPath = args.getString("save-scenario", "");
  const std::string dotPath = args.getString("dot", "");
  args.rejectUnknownOptions("hiperd_analysis");

  hiperd::ScenarioOptions options;  // defaults = the paper's Section 4.3
  const auto generated = hiperd::generateScenario(options, seed);
  const hiperd::HiperdScenario& scenario = generated.scenario;

  std::cout << "scenario: " << scenario.graph.applicationCount()
            << " applications, " << scenario.graph.sensorCount()
            << " sensors, " << scenario.graph.actuatorCount()
            << " actuators, " << scenario.graph.paths().size() << " paths ("
            << (generated.exactPathCount ? "exact" : "closest") << " after "
            << generated.dagAttempts << " DAG draws)\n";
  std::cout << "initial sensor loads lambda_orig = (";
  for (std::size_t z = 0; z < scenario.lambdaOrig.size(); ++z) {
    std::cout << scenario.lambdaOrig[z]
              << (z + 1 < scenario.lambdaOrig.size() ? ", " : ")\n\n");
  }

  // Evaluate one mapping (a fixed random draw).
  Pcg32 rng(seed, /*stream=*/99);
  const sched::Mapping mapping = sched::randomMapping(
      scenario.graph.applicationCount(), scenario.machines, rng);
  const hiperd::HiperdSystem system(scenario, mapping);

  // QoS constraints at the operating point.
  TablePrinter table({"constraint", "value", "limit", "utilization"});
  int shown = 0;
  for (const auto& c : system.constraints()) {
    if (++shown > 12) {
      table.addRow({"...", "", "", ""});
      break;
    }
    table.addRow({c.name, formatDouble(c.value), formatDouble(c.limit),
                  formatDouble(c.fraction())});
  }
  table.print(std::cout);

  std::cout << "\nsystem-wide percentage slack = "
            << formatDouble(system.slack()) << "\n";

  const auto report = system.analyze();
  const auto& binding = report.radii[report.bindingFeature];
  std::cout << "robustness metric rho = " << report.metric
            << " objects per data set (floored: "
            << (report.floored ? "yes" : "no") << ")\n";
  std::cout << "binding constraint: " << binding.feature << " via "
            << binding.method << "\n";
  std::cout << "critical sensor loads lambda* = (";
  for (std::size_t z = 0; z < binding.boundaryPoint.size(); ++z) {
    std::cout << formatDouble(binding.boundaryPoint[z])
              << (z + 1 < binding.boundaryPoint.size() ? ", " : ")\n");
  }
  std::cout << "interpretation: any combination of sensor-load increases "
               "with Euclidean norm <= "
            << report.metric
            << " causes no latency or throughput violation.\n";

  // Screening many candidate mappings: compile the scenario once, then
  // analyze each mapping from a reusable workspace (bit-identical to the
  // per-mapping derivation above, ~5x faster — see DESIGN.md 4.7).
  const hiperd::CompiledScenario compiled = scenario.compile();
  std::vector<sched::Mapping> candidates;
  for (int c = 0; c < 8; ++c) {
    candidates.push_back(sched::randomMapping(
        scenario.graph.applicationCount(), scenario.machines, rng));
  }
  const auto screened = compiled.analyzeMappings(candidates);
  std::size_t bestCandidate = 0;
  for (std::size_t c = 1; c < screened.size(); ++c) {
    if (screened[c].metric > screened[bestCandidate].metric) {
      bestCandidate = c;
    }
  }
  std::cout << "\nscreened " << screened.size()
            << " random candidate mappings via the compiled scenario: best "
               "rho = "
            << formatDouble(screened[bestCandidate].metric)
            << " (candidate " << bestCandidate << "), this mapping's rho = "
            << formatDouble(report.metric) << "\n";

  // The multi-parameter extension: the same mapping analyzed against a
  // second perturbation parameter — per-machine slowdown factors — via the
  // machine-slowdown FePIA derivation (see robust/hiperd/slowdown.hpp).
  const auto slowdownReport =
      core::CompiledProblem::compile(hiperd::slowdownSpec(system)).evaluate();
  const auto& slowBinding = slowdownReport.radii[slowdownReport.bindingFeature];
  std::cout << "\nslowdown robustness (perturbation = machine slowdown "
               "factors, origin all-1):\n  rho = "
            << formatDouble(slowdownReport.metric, 4)
            << "x, binding constraint " << slowBinding.feature << "\n";
  std::cout << "  interpretation: any combination of machine slowdowns with "
               "Euclidean norm <= "
            << formatDouble(slowdownReport.metric, 4)
            << " (e.g. one machine running "
            << formatDouble(1.0 + slowdownReport.metric, 4)
            << "x slower) violates no QoS constraint.\n";

  // Empirical violation profile around the sensor-load metric.
  if (report.metric > 0.0) {
    const auto problem = core::CompiledProblem::compile(system.toSpec());
    curve::CurveOptions curveOptions;
    curveOptions.samples = 2000;
    const auto degradation = curve::computeCurve(problem, curveOptions);
    std::cout << "\nviolation probability vs perturbation norm "
                 "(sampled):\n";
    for (const double factor : {0.5, 1.0, 1.5, 2.5}) {
      const double radius = factor * report.metric;
      std::cout << "  ||delta|| = " << formatDouble(radius, 5)
                << "  ->  P(violation) = "
                << formatDouble(degradation.probabilityAt(radius), 3)
                << "\n";
    }
  }

  // Pipeline simulation: observe the constraints empirically at the
  // operating point and at the critical loads lambda*.
  {
    const auto atOrigin = hiperd::simulatePaths(system, scenario.lambdaOrig);
    std::size_t stable = 0;
    std::size_t clean = 0;
    for (const auto& r : atOrigin) {
      stable += r.stable;
      clean += !r.latencyViolated && !r.throughputViolated;
    }
    std::cout << "\npipeline simulation at lambda_orig: " << stable << "/"
              << atOrigin.size() << " paths stable, " << clean << "/"
              << atOrigin.size() << " within QoS\n";
    if (report.metric > 0.0) {
      num::Vec beyond = binding.boundaryPoint;
      for (std::size_t z = 0; z < beyond.size(); ++z) {
        beyond[z] = scenario.lambdaOrig[z] +
                    1.02 * (beyond[z] - scenario.lambdaOrig[z]);
      }
      const auto past = hiperd::simulatePaths(system, beyond);
      std::size_t violated = 0;
      for (const auto& r : past) {
        violated += r.latencyViolated || r.throughputViolated;
      }
      std::cout << "pipeline simulation 2% beyond lambda*: " << violated
                << " path(s) violate QoS (the binding constraint becomes "
                   "observable)\n";
    }
  }

  if (!scenarioPath.empty()) {
    std::ofstream out(scenarioPath);
    hiperd::saveScenario(scenario, out);
    std::cout << "\nwrote scenario to " << scenarioPath
              << " (analyze later with robustness_cli --scenario)\n";
  }

  if (!dotPath.empty()) {
    std::ofstream out(dotPath);
    scenario.graph.writeDot(out);
    std::cout << "\nwrote DAG to " << dotPath << " (render: dot -Tpng)\n";
  }
  return 0;
} catch (...) {
  return robust::harnessFailure("hiperd_analysis");
}

// Regenerates Figure 2 of the paper: the HiPer-D DAG model — sensors
// (diamonds), applications (circles), actuators (rectangles), and the paths
// (trigger and update) formed by the applications. Prints the path
// inventory and emits Graphviz dot for rendering.
//
// Run: ./fig2_dag [--seed S] [--dot]
#include <iostream>

#include "robust/hiperd/generator.hpp"
#include "robust/util/args.hpp"
#include "robust/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace robust;
  const ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  const bool dot = args.has("dot");
  args.rejectUnknownOptions("fig2_dag");

  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, seed);
  const auto& graph = generated.scenario.graph;

  std::cout << "# Figure 2: HiPer-D DAG model (" << graph.sensorCount()
            << " sensors, " << graph.applicationCount() << " applications, "
            << graph.actuatorCount() << " actuators, " << graph.edgeCount()
            << " edges, " << graph.paths().size() << " paths)\n\n";

  TablePrinter table({"path", "driving sensor", "kind", "applications",
                      "terminal"});
  const auto& paths = graph.paths();
  for (std::size_t k = 0; k < paths.size(); ++k) {
    const auto& p = paths[k];
    std::string apps;
    for (std::size_t a : p.apps) {
      if (!apps.empty()) {
        apps += " -> ";
      }
      apps += graph.applicationName(a);
    }
    const std::string terminal =
        p.terminal.kind == hiperd::NodeKind::Actuator
            ? graph.actuatorName(p.terminal.index)
            : graph.applicationName(p.terminal.index) + " (multi-input)";
    table.addRow({"P_" + std::to_string(k), graph.sensorName(p.drivingSensor),
                  p.kind == hiperd::PathKind::Trigger ? "trigger" : "update",
                  apps.empty() ? "-" : apps, terminal});
  }
  table.print(std::cout);

  if (dot) {
    std::cout << "\n";
    graph.writeDot(std::cout);
  } else {
    std::cout << "\n(pass --dot to emit Graphviz source)\n";
  }
  return 0;
} catch (...) {
  return robust::harnessFailure("fig2_dag");
}

// Command-line robustness analyzer: the adoption path for existing data.
//
// Modes:
//   (1) Independent-task analysis from an ETC CSV file:
//       ./robustness_cli --etc matrix.csv --mapping 0,1,2,0,1 --tau 1.2
//       (omit --mapping to analyze every constructive heuristic's mapping)
//   (2) HiPer-D analysis from a saved scenario file:
//       ./robustness_cli --scenario system.hsc [--mapping-seed N]
//   (3) No arguments: generates a demo ETC matrix, writes it to
//       demo_etc.csv, and analyzes it — a template for one's own data.
#include <fstream>
#include <iostream>
#include <sstream>

#include "robust/core/report_io.hpp"
#include "robust/core/sensitivity.hpp"
#include "robust/hiperd/scenario_io.hpp"
#include "robust/scheduling/etc_io.hpp"
#include "robust/scheduling/experiment.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/util/args.hpp"
#include "robust/util/error.hpp"
#include "robust/util/table.hpp"

namespace {

using namespace robust;

/// Parses "0,1,2,0" into an assignment vector.
std::vector<std::size_t> parseMapping(const std::string& text) {
  std::vector<std::size_t> assignment;
  std::stringstream stream(text);
  std::string cell;
  while (std::getline(stream, cell, ',')) {
    ROBUST_REQUIRE(!cell.empty(), "mapping: empty entry");
    char* end = nullptr;
    const long v = std::strtol(cell.c_str(), &end, 10);
    ROBUST_REQUIRE(end != cell.c_str() && *end == '\0' && v >= 0,
                   "mapping: entry '" + cell +
                       "' is not a non-negative integer");
    assignment.push_back(static_cast<std::size_t>(v));
  }
  ROBUST_REQUIRE(!assignment.empty(), "mapping: empty");
  return assignment;
}

void analyzeOne(const sched::EtcMatrix& etc, const sched::Mapping& mapping,
                double tau, const std::string& label) {
  const sched::IndependentTaskSystem system(etc, mapping, tau);
  const auto analysis = system.analyze();
  std::cout << label << ": makespan " << formatDouble(analysis.predictedMakespan)
            << ", load balance "
            << formatDouble(sched::loadBalanceIndex(etc, mapping))
            << ", robustness rho = " << formatDouble(analysis.robustness)
            << " (binding machine m" << analysis.bindingMachine << ")\n";
}

int runEtcMode(const ArgParser& args) {
  const std::string path = args.getString("etc", "");
  const double tau = args.getDouble("tau", 1.2);
  const std::string mappingText = args.getString("mapping", "");
  args.rejectUnknownOptions("robustness_cli");
  std::ifstream file(path);
  ROBUST_REQUIRE(file.good(), "cannot open ETC file '" + path + "'");
  const sched::EtcMatrix etc = sched::loadEtcCsv(file);
  std::cout << "ETC instance: " << etc.apps() << " applications x "
            << etc.machines() << " machines, tau = " << tau << "\n\n";

  if (!mappingText.empty()) {
    const sched::Mapping mapping(parseMapping(mappingText), etc.machines());
    ROBUST_REQUIRE(mapping.apps() == etc.apps(),
                   "mapping length does not match the application count");
    analyzeOne(etc, mapping, tau, "given mapping");
    const sched::IndependentTaskSystem system(etc, mapping, tau);
    const auto cStar = system.criticalPoint();
    std::cout << "critical execution times C* (the smallest-error violation "
                 "direction):\n  ";
    for (std::size_t i = 0; i < cStar.size(); ++i) {
      std::cout << formatDouble(cStar[i], 5)
                << (i + 1 < cStar.size() ? ", " : "\n");
    }
    return 0;
  }
  for (const auto& entry : sched::constructiveHeuristics()) {
    analyzeOne(etc, entry.build(etc), tau, entry.name);
  }
  analyzeOne(etc, sched::greedyRobustMapping(etc, tau), tau, "greedy-robust");
  return 0;
}

int runScenarioMode(const ArgParser& args) {
  const std::string path = args.getString("scenario", "");
  const auto mappingSeed =
      static_cast<std::uint64_t>(args.getInt("mapping-seed", 1));
  args.rejectUnknownOptions("robustness_cli");
  std::ifstream file(path);
  ROBUST_REQUIRE(file.good(), "cannot open scenario file '" + path + "'");
  const hiperd::HiperdScenario scenario = hiperd::loadScenario(file);
  std::cout << "scenario: " << scenario.graph.applicationCount()
            << " applications, " << scenario.graph.sensorCount()
            << " sensors, " << scenario.graph.paths().size() << " paths, "
            << scenario.machines << " machines\n";

  Pcg32 rng(mappingSeed);
  const auto mapping = sched::randomMapping(
      scenario.graph.applicationCount(), scenario.machines, rng);
  const hiperd::HiperdSystem system(scenario, mapping);
  const auto problem = core::CompiledProblem::compile(system.toSpec());
  const auto report = problem.evaluate();
  std::cout << "random mapping (seed " << mappingSeed
            << "): slack " << formatDouble(system.slack()) << "\n\n";
  core::printReport(std::cout, report, problem.parameter());
  const auto sensitivity =
      core::bindingSensitivity(report, problem.parameter());
  std::cout << "most critical sensor: "
            << scenario.graph.sensorName(sensitivity.ranking[0])
            << " (critical direction "
            << formatDouble(sensitivity.direction[sensitivity.ranking[0]], 4)
            << ")\n";
  return 0;
}

int runDemoMode(const ArgParser& args) {
  args.rejectUnknownOptions("robustness_cli");
  sched::EtcOptions options;
  Pcg32 rng(1);
  const sched::EtcMatrix etc = sched::generateEtc(options, rng);
  {
    std::ofstream out("demo_etc.csv");
    sched::saveEtcCsv(etc, out);
  }
  std::cout << "wrote demo_etc.csv (" << options.apps << "x"
            << options.machines << " CVB instance); analyzing it:\n\n";
  for (const auto& entry : sched::constructiveHeuristics()) {
    analyzeOne(etc, entry.build(etc), 1.2, entry.name);
  }
  std::cout << "\nre-run with --etc demo_etc.csv --mapping 0,1,... to "
               "analyze your own mapping.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  if (args.has("etc")) {
    return runEtcMode(args);
  }
  if (args.has("scenario")) {
    return runScenarioMode(args);
  }
  return runDemoMode(args);
} catch (...) {
  return harnessFailure("robustness_cli");
}

// Regenerates Table 2 of the paper: two mappings of the HiPer-D system with
// nearly identical slack but sharply different robustness, printed with the
// same rows the paper reports — robustness, slack, the critical sensor
// loads lambda*, the per-machine application assignments, and the
// computation time functions T_ij^c(lambda) in the paper's
// "factor(inner complexity)" notation.
//
// Run: ./table2_pair [--mappings N] [--seed S] [--slack-tol X]
#include <iostream>
#include <string>

#include "robust/hiperd/experiment.hpp"
#include "robust/util/args.hpp"
#include "robust/util/table.hpp"

namespace {

std::string assignmentsOf(const robust::sched::Mapping& mapping,
                          std::size_t machine,
                          const robust::hiperd::SystemGraph& graph) {
  std::string out;
  for (std::size_t i = 0; i < mapping.apps(); ++i) {
    if (mapping.machineOf(i) == machine) {
      if (!out.empty()) {
        out += ", ";
      }
      out += graph.applicationName(i);
    }
  }
  return out.empty() ? "-" : out;
}

std::string lambdaString(const robust::num::Vec& lambda) {
  std::string out;
  for (std::size_t z = 0; z < lambda.size(); ++z) {
    if (z > 0) {
      out += ", ";
    }
    out += robust::formatDouble(lambda[z], 6);
  }
  return out;
}

std::string computeFunctionOf(const robust::hiperd::HiperdScenario& scenario,
                              const robust::sched::Mapping& mapping,
                              std::size_t app) {
  using robust::hiperd::multitaskFactor;
  const std::size_t machine = mapping.machineOf(app);
  const double factor =
      multitaskFactor(mapping.countPerMachine()[machine]);
  return robust::formatDouble(factor, 3) + "(" +
         scenario.compute[app][machine].describe(3) + ")";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace robust;
  const ArgParser args(argc, argv);

  hiperd::Fig4Options options;
  options.mappings = static_cast<std::size_t>(args.getInt("mappings", 1000));
  options.seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  const double slackTol = args.getDouble("slack-tol", 0.005);
  const double minRho = args.getDouble("min-robustness", 50.0);

  const auto result = hiperd::runFig4(options);
  const auto& scenario = result.generated.scenario;
  const auto [idxA, idxB] = hiperd::findTable2Pair(result.rows, slackTol, minRho);

  std::cout << "# Table 2 analog: two mappings, similar slack, dissimilar "
               "robustness\n";
  std::cout << "# initial sensor loads: lambda_orig = ("
            << lambdaString(scenario.lambdaOrig) << ")\n\n";

  const auto& rowA = result.rows[idxA];
  const auto& rowB = result.rows[idxB];
  TablePrinter head({"", "mapping A", "mapping B"});
  head.addRow({"robustness (objects/data set)",
               formatDouble(rowA.robustness, 6),
               formatDouble(rowB.robustness, 6)});
  head.addRow({"slack", formatDouble(rowA.slack, 4),
               formatDouble(rowB.slack, 4)});
  head.addRow({"robustness ratio B/A",
               formatDouble(rowB.robustness / rowA.robustness, 4), ""});
  head.addRow({"lambda_1*, lambda_2*, lambda_3*",
               lambdaString(rowA.lambdaStar), lambdaString(rowB.lambdaStar)});
  head.addRow({"binding constraint", rowA.bindingFeature,
               rowB.bindingFeature});
  head.print(std::cout);

  std::cout << "\napplication assignments:\n";
  TablePrinter assign({"machine", "mapping A", "mapping B"});
  for (std::size_t j = 0; j < scenario.machines; ++j) {
    std::string machine = "m";  // not `+`: GCC 12 -Wrestrict (bug 105651)
    machine += std::to_string(j + 1);
    assign.addRow({machine,
                   assignmentsOf(result.mappings[idxA], j, scenario.graph),
                   assignmentsOf(result.mappings[idxB], j, scenario.graph)});
  }
  assign.print(std::cout);

  std::cout << "\ncomputation time functions T_ij^c(lambda) "
               "(multitasking factor outside the parentheses):\n";
  TablePrinter fns({"app", "mapping A", "mapping B"});
  for (std::size_t i = 0; i < scenario.graph.applicationCount(); ++i) {
    fns.addRow({scenario.graph.applicationName(i),
                computeFunctionOf(scenario, result.mappings[idxA], i),
                computeFunctionOf(scenario, result.mappings[idxB], i)});
  }
  fns.print(std::cout);

  std::cout << "\npaper's pair for reference: robustness 353 vs 1166 "
               "(ratio 3.3x) at slack 0.5961 vs 0.5914.\n";
  return 0;
}

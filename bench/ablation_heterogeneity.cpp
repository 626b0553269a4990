// Ablation: how instance heterogeneity shapes the Fig. 3 structure. Low
// heterogeneity collapses the scatter onto the cluster lines (every mapping
// with the same max-count is nearly identical); high heterogeneity spreads
// makespans and robustness apart and increases the outlier fraction.
//
// Run: ./ablation_heterogeneity [--mappings N] [--seed S]
#include <iostream>

#include "robust/scheduling/experiment.hpp"
#include "robust/util/args.hpp"
#include "robust/util/stats.hpp"
#include "robust/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace robust;
  const ArgParser args(argc, argv);

  sched::Fig3Options options;
  options.mappings = static_cast<std::size_t>(args.getInt("mappings", 400));
  options.seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  args.rejectUnknownOptions("ablation_heterogeneity");

  std::cout << "# Ablation: Fig. 3 structure vs task/machine heterogeneity ("
            << options.mappings << " mappings per point)\n\n";

  TablePrinter table({"heterogeneity", "makespan CV", "rho CV",
                      "pearson(M, rho)", "outlier fraction"});
  for (double het : {0.1, 0.3, 0.5, 0.7, 0.9, 1.1}) {
    options.etc.taskHeterogeneity = het;
    options.etc.machineHeterogeneity = het;
    const auto rows = sched::runFig3(options);
    std::vector<double> makespans;
    std::vector<double> rhos;
    std::size_t outliers = 0;
    for (const auto& row : rows) {
      makespans.push_back(row.makespan);
      rhos.push_back(row.robustness);
      outliers += !row.inS1;
    }
    table.addRow(
        {formatDouble(het), formatDouble(summarize(makespans).heterogeneity()),
         formatDouble(summarize(rhos).heterogeneity()),
         formatDouble(pearson(makespans, rhos)),
         formatDouble(static_cast<double>(outliers) /
                      static_cast<double>(rows.size()))});
  }
  table.print(std::cout);
  std::cout << "\nhigher heterogeneity -> wider spread and more mappings "
               "whose binding machine\nis not the makespan machine "
               "(outliers below the S1 lines).\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("ablation_heterogeneity");
}

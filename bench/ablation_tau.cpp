// Ablation: how the makespan-robustness metric scales with the tolerance
// tau. Eq. 6 predicts every radius is affine in tau — the binding machine's
// radius is ((tau - 1) M + (M - F_j)) / sqrt(n_j) — so the population mean
// robustness should grow linearly in tau, and rankings should be stable for
// mappings within one S1 cluster.
//
// Run: ./ablation_tau [--mappings N] [--seed S]
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
  args.rejectUnknownOptions("ablation_tau");

  std::cout << "# Ablation: robustness vs tolerance tau (" << options.mappings
            << " mappings per point)\n\n";

  TablePrinter table({"tau", "mean rho", "min rho", "max rho",
                      "mean rho / (tau-1)"});
  std::vector<double> taus = {1.05, 1.1, 1.2, 1.3, 1.4, 1.5};
  std::vector<double> means;
  for (double tau : taus) {
    options.tau = tau;
    const auto rows = sched::runFig3(options);
    std::vector<double> rhos;
    rhos.reserve(rows.size());
    for (const auto& row : rows) {
      rhos.push_back(row.robustness);
    }
    const Summary s = summarize(rhos);
    means.push_back(s.mean);
    table.addRow({formatDouble(tau), formatDouble(s.mean),
                  formatDouble(s.min), formatDouble(s.max),
                  formatDouble(s.mean / (tau - 1.0))});
  }
  table.print(std::cout);

  const LinearFit fit = fitLine(taus, means);
  std::cout << "\nlinear fit of mean robustness vs tau: slope "
            << formatDouble(fit.slope) << ", r^2 = " << formatDouble(fit.r2, 6)
            << " (Eq. 6 predicts r^2 = 1)\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("ablation_tau");
}

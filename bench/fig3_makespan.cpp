// Regenerates Figure 3 of the paper: robustness vs makespan for 1000
// randomly generated mappings of 20 applications on 5 machines (ETC ~
// Gamma, mean 10, task/machine heterogeneity 0.7, tau = 1.2), plus the
// cluster analysis of Section 4.2 (the straight lines S_1(x) and the
// outliers S_2(x) \ S_1(x)).
//
// Run: ./fig3_makespan [--mappings N] [--seed S] [--tau X] [--csv]
#include <cmath>
#include <iostream>
#include <map>

#include "robust/scheduling/experiment.hpp"
#include "robust/util/args.hpp"
#include "robust/util/stats.hpp"
#include "robust/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace robust;
  const ArgParser args(argc, argv);

  sched::Fig3Options options;
  options.mappings = static_cast<std::size_t>(args.getInt("mappings", 1000));
  options.seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  options.tau = args.getDouble("tau", 1.2);
  const bool csvOut = args.has("csv");
  args.rejectUnknownOptions("fig3_makespan");

  const auto rows = sched::runFig3(options);

  std::cout << "# Figure 3: robustness vs makespan, " << options.mappings
            << " random mappings, " << options.etc.apps << " applications, "
            << options.etc.machines << " machines, tau = " << options.tau
            << "\n";

  if (csvOut) {
    CsvWriter csv(std::cout);
    csv.writeRow({"makespan", "robustness", "load_balance",
                  "n_makespan_machine", "max_count", "in_s1"});
    for (const auto& row : rows) {
      csv.writeRow({formatDouble(row.makespan, 8),
                    formatDouble(row.robustness, 8),
                    formatDouble(row.loadBalance, 8),
                    std::to_string(row.makespanMachineCount),
                    std::to_string(row.maxMachineCount),
                    row.inS1 ? "1" : "0"});
    }
  }

  // ---- Series summary (the scatter's shape).
  std::vector<double> makespans;
  std::vector<double> robustness;
  std::vector<double> lbis;
  for (const auto& row : rows) {
    makespans.push_back(row.makespan);
    robustness.push_back(row.robustness);
    lbis.push_back(row.loadBalance);
  }
  const Summary ms = summarize(makespans);
  const Summary rs = summarize(robustness);
  std::cout << "\nmakespan  : mean " << formatDouble(ms.mean) << ", range ["
            << formatDouble(ms.min) << ", " << formatDouble(ms.max) << "]\n";
  std::cout << "robustness: mean " << formatDouble(rs.mean) << ", range ["
            << formatDouble(rs.min) << ", " << formatDouble(rs.max) << "]\n";
  std::cout << "pearson(makespan, robustness)    = "
            << formatDouble(pearson(makespans, robustness)) << "\n";
  std::cout << "pearson(load balance, robustness) = "
            << formatDouble(pearson(lbis, robustness)) << "\n";

  // ---- Paper finding 1: mappings with nearly equal makespan can differ
  // sharply in robustness. Report the largest robustness ratio within a
  // 1%-makespan window.
  {
    std::vector<std::size_t> order(rows.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return rows[a].makespan < rows[b].makespan;
    });
    double bestRatio = 1.0;
    std::size_t bestA = 0;
    std::size_t bestB = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (std::size_t j = i + 1; j < order.size(); ++j) {
        const auto& a = rows[order[i]];
        const auto& b = rows[order[j]];
        if (b.makespan > 1.01 * a.makespan) {
          break;
        }
        const double lo = std::min(a.robustness, b.robustness);
        const double hi = std::max(a.robustness, b.robustness);
        if (lo > 0.0 && hi / lo > bestRatio) {
          bestRatio = hi / lo;
          bestA = order[i];
          bestB = order[j];
        }
      }
    }
    std::cout << "\nsimilar-makespan discrimination: mappings with makespans "
              << formatDouble(rows[bestA].makespan) << " vs "
              << formatDouble(rows[bestB].makespan)
              << " (within 1%) have robustness "
              << formatDouble(rows[bestA].robustness) << " vs "
              << formatDouble(rows[bestB].robustness) << " -> ratio "
              << formatDouble(bestRatio) << "x\n";
  }

  // ---- Paper finding 2: the S_1(x) clusters are straight lines
  // rho = (tau - 1) * makespan / sqrt(x).
  std::map<std::size_t, std::pair<std::vector<double>, std::vector<double>>>
      clusters;
  std::size_t outliers = 0;
  for (const auto& row : rows) {
    if (row.inS1) {
      clusters[row.maxMachineCount].first.push_back(row.makespan);
      clusters[row.maxMachineCount].second.push_back(row.robustness);
    } else {
      ++outliers;
    }
  }
  std::cout << "\nS1 cluster lines (robustness = (tau-1)/sqrt(x) * makespan):"
            << "\n";
  TablePrinter table({"x = n(m(C))", "mappings", "fitted slope",
                      "expected slope", "fit r^2"});
  for (const auto& [x, series] : clusters) {
    if (series.first.size() < 2) {
      continue;
    }
    const LinearFit fit = fitLine(series.first, series.second);
    table.addRow({std::to_string(x), std::to_string(series.first.size()),
                  formatDouble(fit.slope, 6),
                  formatDouble((options.tau - 1.0) / std::sqrt(
                                   static_cast<double>(x)), 6),
                  formatDouble(fit.r2, 6)});
  }
  table.print(std::cout);
  std::cout << "outliers (S2 \\ S1, below their cluster line): " << outliers
            << " of " << rows.size() << "\n";

  // Verify the paper's outlier claim: every outlier lies BELOW the S1 line
  // for its own n(m(C)).
  std::size_t below = 0;
  for (const auto& row : rows) {
    if (!row.inS1) {
      const double line = (options.tau - 1.0) /
                          std::sqrt(static_cast<double>(
                              row.makespanMachineCount)) *
                          row.makespan;
      below += row.robustness <= line + 1e-9;
    }
  }
  std::cout << "outliers on or below their S1(x) line: " << below << "/"
            << outliers << " (paper: all)\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("fig3_makespan");
}

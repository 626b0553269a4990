// Regenerates Figure 4 of the paper: robustness vs slack for 1000 randomly
// generated mappings of the HiPer-D system (20 applications, 5 machines,
// 3 sensors, 19 paths), plus the Section 4.3 findings: the general
// correlation, the sharp robustness differences at similar slack, and the
// plateau of mappings with different slack but identical robustness.
//
// Run: ./fig4_slack [--mappings N] [--seed S] [--csv]
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>

#include "robust/hiperd/experiment.hpp"
#include "robust/util/args.hpp"
#include "robust/util/stats.hpp"
#include "robust/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace robust;
  const ArgParser args(argc, argv);

  hiperd::Fig4Options options;
  options.mappings = static_cast<std::size_t>(args.getInt("mappings", 1000));
  options.seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  const bool csvOut = args.has("csv");
  args.rejectUnknownOptions("fig4_slack");

  const auto result = hiperd::runFig4(options);
  const auto& rows = result.rows;

  std::cout << "# Figure 4: robustness vs slack, " << options.mappings
            << " random mappings; scenario: "
            << result.generated.scenario.graph.applicationCount()
            << " applications, " << result.generated.scenario.machines
            << " machines, " << result.generated.scenario.graph.paths().size()
            << " paths ("
            << (result.generated.exactPathCount ? "exact" : "closest")
            << " path-count match)\n";

  if (csvOut) {
    CsvWriter csv(std::cout);
    csv.writeRow({"slack", "robustness", "binding"});
    for (const auto& row : rows) {
      csv.writeRow({formatDouble(row.slack, 8),
                    formatDouble(row.robustness, 8), row.bindingFeature});
    }
  }

  std::vector<double> slacks;
  std::vector<double> robustness;
  std::size_t feasible = 0;
  for (const auto& row : rows) {
    slacks.push_back(row.slack);
    robustness.push_back(row.robustness);
    feasible += row.slack >= 0.0;
  }
  const Summary ss = summarize(slacks);
  const Summary rs = summarize(robustness);
  std::cout << "\nslack     : mean " << formatDouble(ss.mean) << ", range ["
            << formatDouble(ss.min) << ", " << formatDouble(ss.max) << "]\n";
  std::cout << "robustness: mean " << formatDouble(rs.mean) << ", range ["
            << formatDouble(rs.min) << ", " << formatDouble(rs.max)
            << "] objects/data set\n";
  std::cout << "feasible at lambda_orig: " << feasible << "/" << rows.size()
            << "\n";
  std::cout << "pearson(slack, robustness) = "
            << formatDouble(pearson(slacks, robustness))
            << "  (paper: \"generally correlated\")\n";

  // ---- Finding 1: similar slack, sharply different robustness.
  if (const auto pair = hiperd::findTable2Pair(rows, 0.005)) {
    const auto [lo, hi] = *pair;
    std::cout << "\nsimilar-slack discrimination: slack "
              << formatDouble(rows[lo].slack) << " vs "
              << formatDouble(rows[hi].slack) << " but robustness "
              << formatDouble(rows[lo].robustness) << " vs "
              << formatDouble(rows[hi].robustness) << " -> ratio "
              << formatDouble(rows[hi].robustness / rows[lo].robustness)
              << "x (paper's Table 2 pair: 3.3x)\n";
  } else {
    std::cout << "\nsimilar-slack discrimination: no pair with robustness "
                 ">= 10 within slack 0.005\n";
  }

  // ---- Finding 2: the plateau — mappings spanning a wide slack range with
  // IDENTICAL robustness (the paper reports slack 0.2..0.5 all at rho ~250).
  std::map<double, std::pair<double, double>> plateau;  // rho -> slack range
  std::map<double, std::size_t> plateauCount;
  for (const auto& row : rows) {
    if (row.robustness <= 0.0) {
      continue;
    }
    auto it = plateau.find(row.robustness);
    if (it == plateau.end()) {
      plateau[row.robustness] = {row.slack, row.slack};
    } else {
      it->second.first = std::min(it->second.first, row.slack);
      it->second.second = std::max(it->second.second, row.slack);
    }
    ++plateauCount[row.robustness];
  }
  double bestWidth = 0.0;
  double bestRho = 0.0;
  for (const auto& [rho, range] : plateau) {
    const double width = range.second - range.first;
    if (plateauCount[rho] >= 5 && width > bestWidth) {
      bestWidth = width;
      bestRho = rho;
    }
  }
  if (bestRho > 0.0) {
    std::cout << "plateau: " << plateauCount[bestRho]
              << " mappings with slack spanning ["
              << formatDouble(plateau[bestRho].first) << ", "
              << formatDouble(plateau[bestRho].second)
              << "] all share robustness = " << formatDouble(bestRho)
              << " (slack cannot tell them apart)\n";
  }

  // ---- Binding-constraint census: which QoS constraint limits robustness?
  std::size_t latencyBound = 0;
  std::size_t computeBound = 0;
  std::size_t commBound = 0;
  for (const auto& row : rows) {
    if (row.bindingFeature.rfind("L_", 0) == 0) {
      ++latencyBound;
    } else if (row.bindingFeature.rfind("Tc", 0) == 0) {
      ++computeBound;
    } else if (row.bindingFeature.rfind("Tn", 0) == 0) {
      ++commBound;
    }
  }
  std::cout << "binding constraint census: latency " << latencyBound
            << ", computation " << computeBound << ", communication "
            << commBound << "\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("fig4_slack");
}

// Ablation: robustness-aware mapping search on the HiPer-D system.
// How much robustness does optimization buy over the random mappings the
// paper's experiments evaluate? Compares: the best of N random mappings
// (the Fig. 4 population), and simulated annealing maximizing rho directly
// (with the slack metric reported alongside, showing the two objectives are
// not interchangeable).
//
// A second section runs the same study on the independent-task ETC model,
// where the standard objectives go through the incremental evaluation
// engine (IncrementalEvaluator) instead of a from-scratch analyze() per
// probe — the HiPer-D objective stays generic because its feasibility
// analysis is not expressible as machine-load deltas.
//
// Run: ./ablation_mapping_search [--seed S] [--random N] [--iters N]
//                                 [--report PATH]
//
// --report writes the result rows (plus the obs metrics snapshot when
// ROBUST_OBS is on) as a robust.run_report JSON document.
#include <algorithm>
#include <iostream>
#include <string>

#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/experiment.hpp"
#include "robust/obs/report.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/util/args.hpp"
#include "robust/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace robust;
  const ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  const auto randomCount =
      static_cast<std::size_t>(args.getInt("random", 300));
  const std::string reportPath = args.getString("report", "");
  const auto iterations = static_cast<int>(args.getInt("iters", 3000));
  args.rejectUnknownOptions("ablation_mapping_search");

  obs::RunReport runReport;
  runReport.tool = "ablation_mapping_search";
  runReport.info.emplace_back("seed", std::to_string(seed));
  runReport.info.emplace_back("random_mappings", std::to_string(randomCount));
  const auto record = [&runReport](std::string name, double value,
                                   const char* unit) {
    runReport.benchmarks.push_back(
        obs::BenchResult{std::move(name), value, unit});
  };

  hiperd::Fig4Options options;
  options.mappings = randomCount;
  options.seed = seed;
  const auto population = hiperd::runFig4(options);
  const auto& scenario = population.generated.scenario;

  // Best-of-random baseline.
  std::size_t bestRandom = 0;
  for (std::size_t m = 1; m < population.rows.size(); ++m) {
    if (population.rows[m].robustness >
        population.rows[bestRandom].robustness) {
      bestRandom = m;
    }
  }

  // Simulated annealing directly on the (floored) metric.
  const hiperd::CompiledScenario compiled = scenario.compile();
  hiperd::ScenarioWorkspace workspace;
  const auto objective = [&](const sched::Mapping& mapping) {
    // Minimize the negated metric.
    return -compiled.analyze(mapping, workspace).metric;
  };
  sched::AnnealingOptions annealing;
  annealing.iterations = iterations;
  annealing.seed = seed;
  const sched::Mapping annealed = sched::annealMapping(
      scenario.graph.applicationCount(), scenario.machines,
      population.mappings[bestRandom], objective, annealing);

  auto describe = [&](const sched::Mapping& mapping) {
    return std::pair{compiled.slack(mapping, workspace),
                     compiled.analyze(mapping, workspace).metric};
  };

  std::cout << "# Ablation: robustness-aware HiPer-D mapping search ("
            << randomCount << " random mappings vs annealing, "
            << annealing.iterations << " iterations)\n\n";
  TablePrinter table({"mapping", "slack", "robustness rho"});
  {
    const auto [slack, rho] = describe(population.mappings[0]);
    table.addRow({"first random", formatDouble(slack, 4),
                  formatDouble(rho, 6)});
    record("hiperd/first_random/slack", slack, "seconds");
    record("hiperd/first_random/rho", rho, "objects");
  }
  {
    const auto [slack, rho] = describe(population.mappings[bestRandom]);
    table.addRow({"best of " + std::to_string(randomCount) + " random",
                  formatDouble(slack, 4), formatDouble(rho, 6)});
    record("hiperd/best_random/slack", slack, "seconds");
    record("hiperd/best_random/rho", rho, "objects");
  }
  {
    const auto [slack, rho] = describe(annealed);
    table.addRow({"annealed (max rho)", formatDouble(slack, 4),
                  formatDouble(rho, 6)});
    record("hiperd/annealed/slack", slack, "seconds");
    record("hiperd/annealed/rho", rho, "objects");
  }
  table.print(std::cout);
  std::cout << "\nannealing on the metric finds mappings beyond the random "
               "population's reach —\nthe optimization use case the metric "
               "enables (compare the slack column: the\nmost robust mapping "
               "is not the slackest one).\n";

  // --- Independent-task ETC section: incremental evaluation engine ---
  const double tau = 1.2;
  sched::EtcOptions etcOptions;
  etcOptions.apps = 64;
  etcOptions.machines = 8;
  Pcg32 etcRng(seed);
  const auto etc = sched::generateEtc(etcOptions, etcRng);
  const auto rho = [&](const sched::Mapping& mapping) {
    return sched::IndependentTaskSystem(etc, mapping, tau)
        .analyze()
        .robustness;
  };

  Pcg32 popRng(seed, /*stream=*/3);
  sched::Mapping bestEtc =
      sched::randomMapping(etc.apps(), etc.machines(), popRng);
  for (std::size_t m = 1; m < randomCount; ++m) {
    sched::Mapping candidate =
        sched::randomMapping(etc.apps(), etc.machines(), popRng);
    if (rho(candidate) > rho(bestEtc)) {
      bestEtc = std::move(candidate);
    }
  }

  const auto etcObjective = sched::EtcObjective::negatedRobustness(tau);
  sched::AnnealingOptions etcAnnealing = annealing;
  const sched::Mapping etcAnnealed =
      sched::simulatedAnnealing(etc, bestEtc, etcObjective, etcAnnealing);
  const sched::Mapping etcPolished =
      sched::localSearch(etc, etcAnnealed, etcObjective);

  std::cout << "\n# Independent-task ETC search (" << etcOptions.apps << " x "
            << etcOptions.machines
            << ", incremental evaluation engine, tau = " << tau << ")\n\n";
  TablePrinter etcTable({"mapping", "robustness rho"});
  etcTable.addRow({"best of " + std::to_string(randomCount) + " random",
                   formatDouble(rho(bestEtc), 6)});
  etcTable.addRow({"annealed (max rho)", formatDouble(rho(etcAnnealed), 6)});
  etcTable.addRow(
      {"annealed + local search", formatDouble(rho(etcPolished), 6)});
  record("etc/best_random/rho", rho(bestEtc), "time units");
  record("etc/annealed/rho", rho(etcAnnealed), "time units");
  record("etc/annealed_local/rho", rho(etcPolished), "time units");
  etcTable.print(std::cout);
  std::cout << "\nthe standard objectives run through IncrementalEvaluator: "
               "each probe costs a\ntwo-machine re-sum instead of a full "
               "analyze(), so the same budget explores\nfar more of the "
               "neighborhood.\n";
  if (!reportPath.empty()) {
    obs::writeRunReport(reportPath, runReport);
    std::cout << "\nwrote run report to " << reportPath << "\n";
  }
  return 0;
} catch (...) {
  return robust::harnessFailure("ablation_mapping_search");
}

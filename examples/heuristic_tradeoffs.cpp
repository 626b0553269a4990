// Mapping-heuristic comparison on the Section 3.1 system: do mappings that
// look equally good under makespan differ in robustness?
//
// Generates the paper's ETC instance family (Gamma, mean 10, heterogeneity
// 0.7/0.7), runs the classic constructive heuristics (OLB, MET, MCT,
// Min-Min, Max-Min, Sufferage, ...), then optimizes mappings directly for
// the robustness metric with local search / simulated annealing / a genetic
// algorithm — demonstrating robustness-aware resource allocation, the use
// case the paper's metric enables.
//
// Run: ./heuristic_tradeoffs [--seed N] [--apps N] [--machines N] [--tau X]
#include <iostream>

#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/util/args.hpp"
#include "robust/util/table.hpp"

namespace {

void report(robust::TablePrinter& table, const std::string& name,
            const robust::sched::EtcMatrix& etc,
            const robust::sched::Mapping& mapping, double tau) {
  using namespace robust;
  const sched::IndependentTaskSystem system(etc, mapping, tau);
  const auto analysis = system.analyze();
  table.addRow({name, formatDouble(analysis.predictedMakespan),
                formatDouble(sched::loadBalanceIndex(etc, mapping)),
                formatDouble(analysis.robustness)});
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace robust;
  const ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
  const double tau = args.getDouble("tau", 1.2);

  sched::EtcOptions etcOptions;
  etcOptions.apps = static_cast<std::size_t>(args.getInt("apps", 20));
  etcOptions.machines = static_cast<std::size_t>(args.getInt("machines", 5));
  args.rejectUnknownOptions("heuristic_tradeoffs");
  Pcg32 rng(seed);
  const sched::EtcMatrix etc = sched::generateEtc(etcOptions, rng);

  std::cout << "instance: " << etcOptions.apps << " applications, "
            << etcOptions.machines << " machines, tau = " << tau << "\n\n";

  TablePrinter table(
      {"heuristic", "makespan", "load balance", "robustness rho"});

  for (const auto& entry : sched::constructiveHeuristics()) {
    report(table, entry.name, etc, entry.build(etc), tau);
  }
  report(table, "greedy-robust", etc, sched::greedyRobustMapping(etc, tau),
         tau);

  // Iterative improvement: classic makespan minimization vs robustness
  // maximization under a 15% makespan cap (unconstrained robustness
  // maximization degenerates — see cappedRobustnessObjective's docs).
  // The EtcObjective forms route local search / annealing / the GA through
  // the incremental evaluation engine; results are bit-identical to the
  // generic-closure path, just cheaper per candidate.
  const auto makespanObj = sched::EtcObjective::makespan();
  const sched::Mapping seedMapping = sched::mctMapping(etc);
  const double cap =
      1.15 * sched::makespan(etc, sched::minMinMapping(etc));
  const auto robustObj = sched::EtcObjective::cappedRobustness(tau, cap);

  report(table, "local-search(makespan)", etc,
         sched::localSearch(etc, seedMapping, makespanObj), tau);
  report(table, "local-search(robust|cap)", etc,
         sched::localSearch(etc, seedMapping, robustObj), tau);

  sched::AnnealingOptions annealing;
  annealing.seed = seed;
  report(table, "annealing(makespan)", etc,
         sched::simulatedAnnealing(etc, seedMapping, makespanObj, annealing),
         tau);
  report(table, "annealing(robust|cap)", etc,
         sched::simulatedAnnealing(etc, seedMapping, robustObj, annealing),
         tau);

  report(table, "tabu(makespan)", etc,
         sched::tabuSearch(etc, seedMapping, makespanObj.generic(etc)), tau);
  report(table, "tabu(robust|cap)", etc,
         sched::tabuSearch(etc, seedMapping, robustObj.generic(etc)), tau);

  sched::GeneticOptions genetic;
  genetic.seed = seed;
  report(table, "genetic(makespan)", etc,
         sched::geneticAlgorithm(etc, seedMapping, makespanObj, genetic), tau);
  report(table, "genetic(robust|cap)", etc,
         sched::geneticAlgorithm(etc, seedMapping, robustObj, genetic), tau);

  table.print(std::cout);
  std::cout << "\nmakespan cap for the robust|cap rows: " << formatDouble(cap)
            << " (1.15x the min-min makespan).\nRobustness-aware search finds "
               "mappings meeting the cap with a larger robustness\nradius "
               "than any makespan-optimized mapping — the paper's point that "
               "makespan\nalone cannot distinguish robust mappings from "
               "fragile ones.\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("heuristic_tradeoffs");
}

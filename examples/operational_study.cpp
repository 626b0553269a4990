// Operational robustness study: from geometric guarantee to realized
// schedules.
//
// Takes one mapping, computes its robustness radius, then (a) replays the
// adversarial worst-case perturbation at, below, and beyond the radius, and
// (b) Monte-Carlo executes the mapping under a stochastic error model,
// reporting how often reality violates the makespan requirement at each
// error magnitude. Demonstrates the sim:: substrate.
//
// Run: ./operational_study [--seed N] [--tau X] [--trials N]
#include <iostream>

#include "robust/scheduling/heuristics.hpp"
#include "robust/sim/study.hpp"
#include "robust/util/args.hpp"
#include "robust/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace robust;
  const ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 7));
  const double tau = args.getDouble("tau", 1.2);
  const auto trials = static_cast<int>(args.getInt("trials", 2000));
  args.rejectUnknownOptions("operational_study");

  sched::EtcOptions etcOptions;
  Pcg32 rng(seed);
  const auto etc = sched::generateEtc(etcOptions, rng);
  const auto mapping = sched::sufferageMapping(etc);
  const sched::IndependentTaskSystem system(etc, mapping, tau);
  const auto analysis = system.analyze();
  const double bound = tau * analysis.predictedMakespan;

  std::cout << "mapping: sufferage on a " << etcOptions.apps << "x"
            << etcOptions.machines << " instance\n";
  std::cout << "predicted makespan " << formatDouble(analysis.predictedMakespan)
            << ", requirement M <= " << formatDouble(bound)
            << ", rho = " << formatDouble(analysis.robustness) << "\n\n";

  // (a) Adversarial replay around the radius.
  std::cout << "adversarial worst-case replay (errors aimed at the binding "
               "machine):\n";
  TablePrinter adversarial({"||error||", "realized makespan", "violated?"});
  for (double scale : {0.5, 0.9, 1.0, 1.1, 2.0}) {
    sim::ExecutionInput input;
    input.actualTimes =
        sim::worstCasePerturbation(system, scale * analysis.robustness);
    const auto run = sim::execute(mapping, input);
    adversarial.addRow({formatDouble(scale * analysis.robustness, 5),
                        formatDouble(run.makespan, 6),
                        run.makespan > bound + 1e-12 ? "VIOLATED" : "ok"});
  }
  adversarial.print(std::cout);

  // (b) Stochastic study.
  sim::StudyOptions options;
  options.trials = trials;
  options.seed = seed;
  options.model = sim::ErrorModel::GaussianRelative;
  const auto points = sim::runMakespanStudy(system, options);
  std::cout << "\nstochastic study (" << sim::toString(options.model) << ", "
            << options.trials << " trials per magnitude):\n";
  TablePrinter stochastic({"rel. error", "mean ||err||/rho",
                           "violation rate", "p95 M/M_orig",
                           "covered violations"});
  for (const auto& p : points) {
    stochastic.addRow({formatDouble(p.magnitude),
                       formatDouble(p.meanErrorNorm, 3),
                       formatDouble(p.violationRate, 3),
                       formatDouble(p.p95MakespanRatio, 4),
                       std::to_string(p.coveredViolations)});
  }
  stochastic.print(std::cout);
  std::cout << "\nthe worst case trips the requirement exactly at rho; "
               "random errors of the same\nsize almost never do — the gap "
               "is what a worst-case metric buys: certainty.\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("operational_study");
}

// Quickstart: the paper's Section 3.1 makespan example on a toy instance.
//
// Builds a 4-application / 2-machine system, computes every robustness
// radius with the Eq. 6 closed form, cross-checks against the generic FePIA
// analyzer, and empirically validates the metric's guarantee by sampling.
//
// Run: ./quickstart
#include <iostream>

#include "robust/core/validation.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/util/table.hpp"

int main() {
  using namespace robust;

  // ETC matrix: estimated time of each application on each machine.
  sched::EtcMatrix etc(/*apps=*/4, /*machines=*/2);
  etc(0, 0) = 4.0;  etc(0, 1) = 8.0;
  etc(1, 0) = 3.0;  etc(1, 1) = 5.0;
  etc(2, 0) = 6.0;  etc(2, 1) = 2.0;
  etc(3, 0) = 5.0;  etc(3, 1) = 4.0;

  // A mapping: applications 0 and 1 on machine 0, applications 2 and 3 on
  // machine 1. Finishing times: F_0 = 4 + 3 = 7, F_1 = 2 + 4 = 6, so the
  // predicted makespan M_orig = 7.
  sched::Mapping mapping({0, 0, 1, 1}, /*machines=*/2);

  // Robustness requirement: the actual makespan may exceed the predicted
  // one by at most 20% (tau = 1.2), whatever the ETC estimation errors.
  const double tau = 1.2;
  sched::IndependentTaskSystem system(etc, mapping, tau);

  const auto analysis = system.analyze();
  std::cout << "predicted makespan : " << analysis.predictedMakespan << "\n";
  std::cout << "tolerated makespan : " << tau * analysis.predictedMakespan
            << "\n\n";

  TablePrinter radiiTable({"machine", "finish time", "radius (Eq. 6)"});
  const auto finish = system.finishing();
  for (std::size_t j = 0; j < finish.size(); ++j) {
    radiiTable.addRow({std::to_string(j), formatDouble(finish[j]),
                       formatDouble(analysis.radii[j])});
  }
  radiiTable.print(std::cout);

  std::cout << "\nrobustness metric rho = " << analysis.robustness
            << " seconds (binding machine: m" << analysis.bindingMachine
            << ")\n";
  std::cout << "interpretation: any vector of ETC errors with Euclidean norm"
            << " <= " << formatDouble(analysis.robustness)
            << " keeps the makespan within " << 100.0 * tau
            << "% of its prediction.\n\n";

  // The same derivation through the generic FePIA engine: compile once,
  // then evaluate (what repeated analysis should use).
  const auto problem = system.compile();
  const auto report = problem.evaluate();
  std::cout << "generic FePIA analyzer metric = " << report.metric
            << " (binding feature: "
            << report.radii[report.bindingFeature].feature << ")\n";
  std::cout << "compiled engine metric        = "
            << problem.evaluate().metric << " (identical by construction)\n";

  // Empirical check of the guarantee: sample ETC error vectors inside the
  // radius (expect zero violations) and just beyond it (expect some).
  const auto validation = core::validateRadius(problem, report.metric);
  std::cout << "sampled " << validation.samplesInside
            << " error vectors inside the radius: "
            << validation.violationsInside << " violations\n";
  std::cout << "sampled " << validation.samplesAtBoundary
            << " error vectors 5% beyond the radius: "
            << validation.violationsAtBoundary << " violations\n";
  return 0;
}

// Ablation: handling the discrete sensor-load parameter. Section 3.2 floors
// the continuous metric; the thesis (ref [1]) brackets the boundary with
// the closest lattice values. This harness compares, on Section 4.3
// scenarios, the floor rule against certified lattice bounds
// (discreteRadiusBounds): how often and by how much the floor rule is
// pessimistic.
//
// Run: ./ablation_discrete [--mappings N] [--seed S]
#include <cmath>
#include <iostream>

#include "robust/core/discrete.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/experiment.hpp"
#include "robust/util/args.hpp"
#include "robust/util/stats.hpp"
#include "robust/util/table.hpp"

int main(int argc, char** argv) try {
  using namespace robust;
  const ArgParser args(argc, argv);

  hiperd::Fig4Options options;
  options.mappings = static_cast<std::size_t>(args.getInt("mappings", 40));
  options.seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  args.rejectUnknownOptions("ablation_discrete");

  const auto result = hiperd::runFig4(options);
  const auto& scenario = result.generated.scenario;

  std::cout << "# Ablation: floor rule vs certified lattice bounds, "
            << options.mappings << " mappings\n\n";

  TablePrinter table({"mapping", "continuous rho", "floor rule",
                      "lattice upper bound", "certificate gap"});
  std::vector<double> gaps;
  int shown = 0;
  const hiperd::CompiledScenario compiled = scenario.compile();
  for (std::size_t m = 0; m < result.mappings.size(); ++m) {
    if (result.rows[m].slack < 0.0) {
      continue;  // violated at the origin: both rules give 0
    }
    core::DiscreteOptions dopts;
    dopts.exhaustiveLimit = 0.0;  // radii are in the hundreds: certificate
                                  // search only (exhaustive would be huge)
    const auto bounds = core::discreteRadiusBounds(
        core::CompiledProblem::compile(compiled.toSpec(result.mappings[m])),
        dopts);
    const double floorRule = std::floor(bounds.lower);
    const double gap = bounds.upper - floorRule;
    gaps.push_back(gap);
    if (shown++ < 12) {
      table.addRow({std::to_string(m), formatDouble(bounds.lower, 6),
                    formatDouble(floorRule, 6),
                    formatDouble(bounds.upper, 6), formatDouble(gap, 4)});
    }
  }
  table.print(std::cout);

  const Summary s = summarize(gaps);
  std::cout << "\ncertificate gap (violating-lattice-distance - floor rule) "
               "over "
            << gaps.size() << " feasible mappings:\n  mean "
            << formatDouble(s.mean) << ", min " << formatDouble(s.min)
            << ", max " << formatDouble(s.max) << "\n";
  std::cout << "\nreading: the floor rule under-reports the certified safe "
               "range by up to the gap\nshown; with 3 integer sensor loads "
               "the nearest violating lattice point sits\nwithin about one "
               "step of the continuous boundary, so the floor rule loses at "
               "most\n~2 objects per data set here — cheap insurance, as the "
               "paper chose.\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("ablation_discrete");
}

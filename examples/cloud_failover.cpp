// Replicated cloud allocation under the generalized FePIA model: memory
// constraints reject an overcommitted greedy placement, and replication-aware
// local search trades a little makespan for machine-failure tolerance, whose
// combinatorial radius is checked against the floored metric of the same
// model as a FePIA derivation (exit 1 if they differ). Writes a robust::obs
// run report (counters + the failure-radius gauge) to stdout.
//
// Usage: cloud_failover [tasks machines replication seed]
#include <cstdlib>
#include <iostream>

#include "robust/core/compiled.hpp"
#include "robust/core/failure.hpp"
#include "robust/core/report_io.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/report.hpp"
#include "robust/scheduling/cloud_system.hpp"
#include "robust/util/rng.hpp"

int main(int argc, char** argv) {
  using namespace robust;

  const std::size_t tasks = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8;
  const std::size_t machines =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 5;
  const std::size_t replication =
      argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 2;
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 42;

  obs::setEnabled(true);

  // Inconsistent-heterogeneity ETC, memory sized so the greedy placement
  // (which ignores memory entirely) overcommits the fastest machines.
  Pcg32 rng(seed, 1);
  sched::EtcMatrix etc(tasks, machines);
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t j = 0; j < machines; ++j) {
      etc(t, j) = rng.uniform(5.0, 50.0);
    }
  }
  num::Vec memDemand(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    memDemand[t] = rng.uniform(1.0, 4.0);
  }
  // Tight: total capacity only modestly exceeds total replicated demand.
  double totalDemand = 0.0;
  for (double d : memDemand) {
    totalDemand += d * static_cast<double>(replication);
  }
  num::Vec memCapacity(machines, 1.2 * totalDemand /
                                     static_cast<double>(machines));

  sched::CloudSystem cloud(sched::CloudScenario{
      std::move(etc), std::move(memDemand), std::move(memCapacity),
      replication, /*tau=*/1.3});

  const sched::Mapping greedy = cloud.greedyMapping();
  std::cout << "greedy (memory-oblivious): feasible="
            << (cloud.isFeasible(greedy) ? "yes" : "no")
            << " overcommit=" << cloud.memoryViolation(greedy)
            << " failure radius=" << cloud.failureRadius(greedy) << "\n";
  const core::RobustnessReport greedyReport = cloud.analyze(greedy);
  if (greedyReport.infeasibleOrigin) {
    std::cout << "greedy rejected: origin violates a memory constraint "
                 "(rho = 0)\n";
  }

  const sched::Mapping improved = cloud.improve(greedy);
  const std::size_t radius = cloud.failureRadius(improved);
  // The same radius from the general engine: failureSpec's L1 metric over
  // the discrete failure indicators, floored by the Section 3.2 rule.
  const double flooredMetric =
      core::CompiledProblem::compile(
          core::failureSpec(cloud.failureModel(improved)))
          .evaluate()
          .metric;
  const core::RobustnessReport report = cloud.analyze(improved);
  std::cout << "\nafter replication-aware local search: feasible="
            << (cloud.isFeasible(improved) ? "yes" : "no")
            << " failure radius=" << radius
            << " (FePIA floored metric " << flooredMetric << ")"
            << " makespan=" << cloud.predictedMakespan(improved) << "\n";
  if (flooredMetric != static_cast<double>(radius)) {
    std::cerr << "cloud_failover: failureSpec's floored metric disagrees "
                 "with failureRadius\n";
    return 1;
  }
  std::cout << "constrained robustness metric rho = " << report.metric
            << "\n\n";

  obs::RunReport run;
  run.tool = "cloud_failover";
  run.info.emplace_back("tasks", std::to_string(tasks));
  run.info.emplace_back("machines", std::to_string(machines));
  run.info.emplace_back("replication", std::to_string(replication));
  run.benchmarks.push_back(obs::BenchResult{
      "failure_radius", static_cast<double>(radius),
      "machines"});
  run.benchmarks.push_back(
      obs::BenchResult{"rho_constrained", report.metric, "seconds"});
  obs::writeRunReport(std::cout, run);
  return 0;
}

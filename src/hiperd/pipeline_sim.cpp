#include "robust/hiperd/pipeline_sim.hpp"

#include <algorithm>

#include "robust/util/error.hpp"

namespace robust::hiperd {

std::vector<PathSimResult> simulatePaths(const CompiledScenario& compiled,
                                         const sched::Mapping& mapping,
                                         std::span<const double> lambda,
                                         const PipelineSimOptions& options) {
  ROBUST_REQUIRE(options.dataSets >= 2,
                 "simulatePaths: need at least two data sets");
  const HiperdScenario& scenario = compiled.scenario();
  ROBUST_REQUIRE(lambda.size() == scenario.lambdaOrig.size(),
                 "simulatePaths: lambda dimension mismatch");

  std::vector<PathSimResult> results;
  const auto& paths = scenario.graph.paths();
  results.reserve(paths.size());

  for (std::size_t k = 0; k < paths.size(); ++k) {
    const Path& path = paths[k];
    PathSimResult result;
    result.path = k;

    const double period =
        1.0 / scenario.graph.sensorRate(path.drivingSensor);

    // Stage service times (applications) and inter-stage transfer delays
    // (every traversed edge, including the sensor and terminal hops).
    std::vector<double> service;
    service.reserve(path.apps.size());
    for (std::size_t app : path.apps) {
      const double s = compiled.computationTime(mapping, app, lambda);
      service.push_back(s);
      result.throughputViolated |= s > period;
    }
    double transferTotal = 0.0;
    for (std::size_t eid : path.edges) {
      transferTotal += compiled.communicationTime(eid, lambda);
    }

    // Tandem queue with deterministic arrivals (period) and FIFO stages.
    // completion[j] = completion time of the previous data set at stage j.
    std::vector<double> completion(service.size(), 0.0);
    result.latencies.reserve(options.dataSets);
    for (std::size_t n = 0; n < options.dataSets; ++n) {
      const double emitted = static_cast<double>(n) * period;
      double t = emitted;
      for (std::size_t j = 0; j < service.size(); ++j) {
        // Stage j starts when the data set arrives AND the stage is free.
        const double start = std::max(t, completion[j]);
        completion[j] = start + service[j];
        t = completion[j];
      }
      // Transfers are pure delays (links are not modeled as queues here;
      // the experiments' communication times are zero anyway).
      result.latencies.push_back(t + transferTotal - emitted);
    }

    result.steadyLatency = result.latencies.back();
    result.stable = !result.throughputViolated;
    // Linear growth estimate over the second half (past warm-up).
    const std::size_t n = options.dataSets;
    const double half = result.latencies[n / 2];
    result.growthRate = (result.latencies[n - 1] - half) /
                        static_cast<double>(n - 1 - n / 2);
    if (result.growthRate < 1e-12) {
      result.growthRate = 0.0;
    }
    result.latencyViolated =
        result.steadyLatency > scenario.latencyLimits[k] + 1e-12;
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace robust::hiperd

#include "robust/hiperd/slowdown.hpp"

#include <cmath>

#include "robust/util/error.hpp"

namespace robust::hiperd {

core::ProblemSpec slowdownSpec(const CompiledScenario& compiled,
                               const sched::Mapping& mapping,
                               core::AnalyzerOptions options) {
  const HiperdScenario& scenario = compiled.scenario();
  const auto& graph = scenario.graph;
  const auto& lambda = scenario.lambdaOrig;
  const std::size_t machines = scenario.machines;

  std::vector<core::PerformanceFeature> features;

  // Throughput features: T_i^c(s) = s_{m(i)} * Tc_i(lambda_orig).
  for (std::size_t i = 0; i < mapping.apps(); ++i) {
    const double bound = compiled.throughputBound(i);
    if (!std::isfinite(bound)) {
      continue;
    }
    const double tc = compiled.computationTime(mapping, i, lambda);
    if (tc <= 0.0) {
      continue;  // no load dependence: speed cannot make it violate
    }
    num::Vec weights(machines, 0.0);
    weights[mapping.machineOf(i)] = tc;
    features.push_back(core::PerformanceFeature{
        "Tc(" + graph.applicationName(i) + ")",
        core::ImpactFunction::affine(std::move(weights), 0.0),
        core::ToleranceBounds::atMost(bound)});
  }

  // Latency features: sum of per-machine computation mass plus the constant
  // communication time of the traversed edges.
  for (std::size_t k = 0; k < graph.paths().size(); ++k) {
    const Path& path = graph.paths()[k];
    num::Vec weights(machines, 0.0);
    for (std::size_t app : path.apps) {
      weights[mapping.machineOf(app)] +=
          compiled.computationTime(mapping, app, lambda);
    }
    double commConstant = 0.0;
    for (std::size_t eid : path.edges) {
      commConstant += compiled.communicationTime(eid, lambda);
    }
    if (num::norm2(weights) == 0.0) {
      continue;  // latency independent of machine speeds
    }
    features.push_back(core::PerformanceFeature{
        "L_" + std::to_string(k),
        core::ImpactFunction::affine(std::move(weights), commConstant),
        core::ToleranceBounds::atMost(scenario.latencyLimits[k])});
  }

  ROBUST_REQUIRE(!features.empty(),
                 "slowdownSpec: no feature depends on machine speed");

  core::PerturbationSubspace s;
  s.name = "s (machine slowdown factors)";
  s.origin = num::Vec(machines, 1.0);
  s.norm = static_cast<int>(options.norm);
  s.normWeights = options.normWeights;
  s.units = "x (multiple of assumed speed)";

  core::ProblemSpec spec;
  spec.features = std::move(features);
  spec.options = std::move(options);
  spec.subspaces.push_back(std::move(s));
  return spec;
}

}  // namespace robust::hiperd

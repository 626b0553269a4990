#include "robust/core/failure.hpp"

#include <algorithm>
#include <string>

#include "robust/obs/metrics.hpp"
#include "robust/util/error.hpp"

namespace robust::core {

namespace {

void validateModel(const FailureModel& model) {
  ROBUST_REQUIRE(model.machines > 0, "FailureModel: no machines");
  for (std::size_t t = 0; t < model.replicaHosts.size(); ++t) {
    const auto& hosts = model.replicaHosts[t];
    ROBUST_REQUIRE(!hosts.empty(), "FailureModel: task " + std::to_string(t) +
                                       " has no replica host");
    for (std::size_t h : hosts) {
      ROBUST_REQUIRE(h < model.machines,
                     "FailureModel: host index out of range for task " +
                         std::to_string(t));
    }
  }
}

}  // namespace

std::size_t distinctHostCount(std::span<const std::size_t> hosts) {
  std::vector<std::size_t> sorted(hosts.begin(), hosts.end());
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}


std::size_t failureRadius(const FailureModel& model) {
  validateModel(model);
  std::size_t radius = model.machines;
  for (const auto& hosts : model.replicaHosts) {
    radius = std::min(radius, distinctHostCount(hosts) - 1);
  }
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kRadius = obs::gaugeId("core.failure.radius");
    obs::setGauge(kRadius, static_cast<std::int64_t>(radius));
  }
  return radius;
}

ProblemSpec failureSpec(const FailureModel& model) {
  validateModel(model);
  ROBUST_REQUIRE(!model.replicaHosts.empty(),
                 "failureSpec: a derivation needs at least one task");
  ProblemSpec spec;
  for (std::size_t t = 0; t < model.replicaHosts.size(); ++t) {
    // live_t(pi) = k_t - sum of pi_h over the task's distinct hosts: the
    // number of replicas still up under the failure indicator vector pi.
    num::Vec weights(model.machines, 0.0);
    std::size_t distinct = 0;
    for (std::size_t h : model.replicaHosts[t]) {
      if (weights[h] == 0.0) {
        weights[h] = -1.0;
        ++distinct;
      }
    }
    spec.features.push_back(PerformanceFeature{
        "live_" + std::to_string(t),
        ImpactFunction::affine(std::move(weights),
                               static_cast<double>(distinct)),
        ToleranceBounds::atLeast(1.0)});
  }
  PerturbationSubspace failures;
  failures.name = "machine failures";
  failures.origin = num::Vec(model.machines, 0.0);
  failures.norm = static_cast<int>(NormKind::L1);
  failures.discrete = true;
  failures.units = "failed machines";
  spec.subspaces.push_back(std::move(failures));
  return spec;
}

}  // namespace robust::core

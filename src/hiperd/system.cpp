#include "robust/hiperd/system.hpp"

#include <initializer_list>
#include <string>

#include "robust/util/error.hpp"

namespace robust::hiperd {

namespace {
/// The diagnostic for a linear load function without one coefficient per
/// sensor, naming its slot: `kind` then `indices`, e.g. "compute[2][0]".
std::string coefficientCountError(const char* kind,
                                  std::initializer_list<std::size_t> indices) {
  std::string message = "HiperdScenario: ";
  message += kind;
  for (const std::size_t index : indices) {
    message += '[';
    message += std::to_string(index);
    message += ']';
  }
  message += " needs one linear coefficient per sensor";
  return message;
}
}  // namespace

void validateScenario(const HiperdScenario& scenario) {
  ROBUST_REQUIRE(scenario.graph.finalized(),
                 "HiperdScenario: graph must be finalized");
  ROBUST_REQUIRE(scenario.machines > 0, "HiperdScenario: no machines");
  const std::size_t sensors = scenario.graph.sensorCount();
  ROBUST_REQUIRE(scenario.lambdaOrig.size() == sensors,
                 "HiperdScenario: lambdaOrig size != sensor count");
  ROBUST_REQUIRE(
      scenario.latencyLimits.size() == scenario.graph.paths().size(),
      "HiperdScenario: latencyLimits size != path count");
  for (double limit : scenario.latencyLimits) {
    ROBUST_REQUIRE(limit > 0.0, "HiperdScenario: non-positive latency limit");
  }
  ROBUST_REQUIRE(
      scenario.compute.size() == scenario.graph.applicationCount(),
      "HiperdScenario: compute size != application count");
  for (std::size_t a = 0; a < scenario.compute.size(); ++a) {
    ROBUST_REQUIRE(scenario.compute[a].size() == scenario.machines,
                   "HiperdScenario: compute row size != machine count");
    for (std::size_t m = 0; m < scenario.machines; ++m) {
      const LoadFunction& fn = scenario.compute[a][m];
      ROBUST_REQUIRE(!fn.isLinear() || fn.coeffs().size() == sensors,
                     coefficientCountError("compute", {a, m}));
    }
  }
  ROBUST_REQUIRE(scenario.comm.size() == scenario.graph.edgeCount(),
                 "HiperdScenario: comm size != edge count");
  for (std::size_t e = 0; e < scenario.comm.size(); ++e) {
    const LoadFunction& fn = scenario.comm[e];
    ROBUST_REQUIRE(!fn.isLinear() || fn.coeffs().size() == sensors,
                   coefficientCountError("comm", {e}));
  }
}

}  // namespace robust::hiperd

#include "robust/hiperd/system.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "robust/util/error.hpp"

namespace robust::hiperd {

void validateScenario(const HiperdScenario& scenario) {
  ROBUST_REQUIRE(scenario.graph.finalized(),
                 "HiperdScenario: graph must be finalized");
  ROBUST_REQUIRE(scenario.machines > 0, "HiperdScenario: no machines");
  ROBUST_REQUIRE(scenario.lambdaOrig.size() == scenario.graph.sensorCount(),
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
  for (const auto& row : scenario.compute) {
    ROBUST_REQUIRE(row.size() == scenario.machines,
                   "HiperdScenario: compute row size != machine count");
  }
  ROBUST_REQUIRE(scenario.comm.size() == scenario.graph.edgeCount(),
                 "HiperdScenario: comm size != edge count");
}

HiperdSystem::HiperdSystem(const HiperdScenario& scenario,
                           sched::Mapping mapping)
    : scenario_(scenario), mapping_(std::move(mapping)) {
  validateScenario(scenario_);
  ROBUST_REQUIRE(mapping_.apps() == scenario_.graph.applicationCount() &&
                     mapping_.machines() == scenario_.machines,
                 "HiperdSystem: mapping does not match the scenario");

  const auto counts = mapping_.countPerMachine();
  factors_.resize(mapping_.apps());
  for (std::size_t i = 0; i < mapping_.apps(); ++i) {
    factors_[i] = multitaskFactor(counts[mapping_.machineOf(i)]);
  }

  // 1/R(a_i): tightest throughput bound over the paths containing the app.
  throughputBound_.assign(mapping_.apps(), 0.0);
  std::vector<double> maxRate(mapping_.apps(), 0.0);
  for (const Path& path : scenario_.graph.paths()) {
    const double rate = scenario_.graph.sensorRate(path.drivingSensor);
    for (std::size_t app : path.apps) {
      maxRate[app] = std::max(maxRate[app], rate);
    }
  }
  for (std::size_t i = 0; i < mapping_.apps(); ++i) {
    // Applications on no path (possible only in degenerate graphs) carry no
    // throughput constraint; encode as +inf bound.
    throughputBound_[i] = maxRate[i] > 0.0
                              ? 1.0 / maxRate[i]
                              : std::numeric_limits<double>::infinity();
  }
}

double HiperdSystem::factorOf(std::size_t app) const {
  ROBUST_REQUIRE(app < factors_.size(), "factorOf: app index out of range");
  return factors_[app];
}

double HiperdSystem::computationTime(std::size_t app,
                                     std::span<const double> lambda) const {
  ROBUST_REQUIRE(app < mapping_.apps(),
                 "computationTime: app index out of range");
  return factors_[app] *
         scenario_.compute[app][mapping_.machineOf(app)].evaluate(lambda);
}

double HiperdSystem::communicationTime(std::size_t edgeId,
                                       std::span<const double> lambda) const {
  ROBUST_REQUIRE(edgeId < scenario_.comm.size(),
                 "communicationTime: edge id out of range");
  return scenario_.comm[edgeId].evaluate(lambda);
}

double HiperdSystem::latency(std::size_t k,
                             std::span<const double> lambda) const {
  const auto& paths = scenario_.graph.paths();
  ROBUST_REQUIRE(k < paths.size(), "latency: path index out of range");
  const Path& path = paths[k];
  double total = 0.0;
  for (std::size_t app : path.apps) {
    total += computationTime(app, lambda);
  }
  for (std::size_t eid : path.edges) {
    total += communicationTime(eid, lambda);
  }
  return total;
}

double HiperdSystem::throughputBound(std::size_t app) const {
  ROBUST_REQUIRE(app < throughputBound_.size(),
                 "throughputBound: app index out of range");
  return throughputBound_[app];
}

std::vector<ConstraintStatus> HiperdSystem::constraints() const {
  std::vector<ConstraintStatus> result;
  const auto& graph = scenario_.graph;
  const auto& lambda = scenario_.lambdaOrig;

  for (std::size_t i = 0; i < mapping_.apps(); ++i) {
    if (!std::isfinite(throughputBound_[i])) {
      continue;
    }
    result.push_back(ConstraintStatus{
        ConstraintKind::Computation, "Tc(" + graph.applicationName(i) + ")",
        computationTime(i, lambda), throughputBound_[i]});
    for (std::size_t eid : graph.outEdgesOfApp(i)) {
      if (scenario_.comm[eid].isZero()) {
        continue;
      }
      const Edge& e = graph.edge(eid);
      const std::string toName = e.to.kind == NodeKind::Application
                                     ? graph.applicationName(e.to.index)
                                     : graph.actuatorName(e.to.index);
      result.push_back(ConstraintStatus{
          ConstraintKind::Communication,
          "Tn(" + graph.applicationName(i) + "->" + toName + ")",
          communicationTime(eid, lambda), throughputBound_[i]});
    }
  }
  for (std::size_t k = 0; k < graph.paths().size(); ++k) {
    result.push_back(ConstraintStatus{ConstraintKind::Latency,
                                      "L_" + std::to_string(k),
                                      latency(k, lambda),
                                      scenario_.latencyLimits[k]});
  }
  return result;
}

double HiperdSystem::slack() const {
  double slackValue = 1.0;
  for (const ConstraintStatus& c : constraints()) {
    slackValue = std::min(slackValue, 1.0 - c.fraction());
  }
  return slackValue;
}

core::ProblemSpec HiperdSystem::toSpec(core::AnalyzerOptions options) const {
  const auto& graph = scenario_.graph;
  std::vector<core::PerformanceFeature> features;

  // Computation-time throughput features (Eq. 10a).
  for (std::size_t i = 0; i < mapping_.apps(); ++i) {
    if (!std::isfinite(throughputBound_[i])) {
      continue;
    }
    const LoadFunction& fn = scenario_.compute[i][mapping_.machineOf(i)];
    if (fn.isZero()) {
      continue;  // no dependence on lambda: boundary unreachable
    }
    features.push_back(core::PerformanceFeature{
        "Tc(" + graph.applicationName(i) + ")", fn.impact(factors_[i]),
        core::ToleranceBounds::atMost(throughputBound_[i])});
  }
  // Communication-time throughput features (Eq. 10b).
  for (std::size_t i = 0; i < mapping_.apps(); ++i) {
    if (!std::isfinite(throughputBound_[i])) {
      continue;
    }
    for (std::size_t eid : graph.outEdgesOfApp(i)) {
      const LoadFunction& fn = scenario_.comm[eid];
      if (fn.isZero()) {
        continue;
      }
      const Edge& e = graph.edge(eid);
      const std::string toName = e.to.kind == NodeKind::Application
                                     ? graph.applicationName(e.to.index)
                                     : graph.actuatorName(e.to.index);
      features.push_back(core::PerformanceFeature{
          "Tn(" + graph.applicationName(i) + "->" + toName + ")",
          fn.impact(1.0),
          core::ToleranceBounds::atMost(throughputBound_[i])});
    }
  }
  // Path latency features (Eq. 10c). Linear members sum into one affine
  // impact; any general member makes the path impact a callable sum.
  for (std::size_t k = 0; k < graph.paths().size(); ++k) {
    const Path& path = graph.paths()[k];
    bool allLinear = true;
    for (std::size_t app : path.apps) {
      allLinear &=
          scenario_.compute[app][mapping_.machineOf(app)].isLinear();
    }
    for (std::size_t eid : path.edges) {
      allLinear &= scenario_.comm[eid].isLinear();
    }
    core::ImpactFunction impact = [&]() -> core::ImpactFunction {
      if (allLinear) {
        num::Vec weights(scenario_.lambdaOrig.size(), 0.0);
        for (std::size_t app : path.apps) {
          num::axpy(factors_[app],
                    scenario_.compute[app][mapping_.machineOf(app)].coeffs(),
                    weights);
        }
        for (std::size_t eid : path.edges) {
          num::axpy(1.0, scenario_.comm[eid].coeffs(), weights);
        }
        return core::ImpactFunction::affine(std::move(weights), 0.0);
      }
      // General case: a callable over a copy of this system, which holds
      // the scenario by reference and the mapping and multitasking factors
      // by value, so the spec outlives the system but not the scenario.
      return core::ImpactFunction::callable(
          [system = *this, k](std::span<const double> lambda) {
            return system.latency(k, lambda);
          });
    }();
    if (impact.isAffine() && num::norm2(impact.weights()) == 0.0) {
      continue;  // path latency does not depend on lambda
    }
    features.push_back(core::PerformanceFeature{
        "L_" + std::to_string(k), std::move(impact),
        core::ToleranceBounds::atMost(scenario_.latencyLimits[k])});
  }

  // Trivial single-subspace instance of the general perturbation model:
  // one discrete block, lambda (the sensor loads), Section 3.2 flooring.
  core::PerturbationSubspace lambda;
  lambda.name = "lambda (sensor loads)";
  lambda.origin = scenario_.lambdaOrig;
  lambda.norm = static_cast<int>(options.norm);
  lambda.normWeights = options.normWeights;
  lambda.discrete = true;
  lambda.units = "objects per data set";

  core::ProblemSpec spec;
  spec.features = std::move(features);
  spec.options = options;
  spec.subspaces.push_back(std::move(lambda));
  return spec;
}

core::RobustnessReport HiperdSystem::analyze(
    core::AnalyzerOptions options) const {
  return core::CompiledProblem::compile(toSpec(std::move(options))).evaluate();
}

}  // namespace robust::hiperd

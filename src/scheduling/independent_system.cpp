#include "robust/scheduling/independent_system.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "robust/util/error.hpp"

namespace robust::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

IndependentTaskSystem::IndependentTaskSystem(const EtcMatrix& etc,
                                             Mapping mapping, double tau)
    : etc_(etc), mapping_(std::move(mapping)), tau_(tau) {
  ROBUST_REQUIRE(etc_.apps() == mapping_.apps() &&
                     etc_.machines() == mapping_.machines(),
                 "IndependentTaskSystem: ETC and mapping dimensions disagree");
  ROBUST_REQUIRE(tau_ >= 1.0,
                 "IndependentTaskSystem: tau < 1 would declare the predicted "
                 "makespan itself a violation");
}

std::vector<double> IndependentTaskSystem::estimatedTimes() const {
  std::vector<double> c(etc_.apps());
  for (std::size_t i = 0; i < etc_.apps(); ++i) {
    c[i] = etc_(i, mapping_.machineOf(i));
  }
  return c;
}

std::vector<double> IndependentTaskSystem::finishing() const {
  return finishingTimes(etc_, mapping_);
}

double IndependentTaskSystem::predictedMakespan() const {
  return makespan(etc_, mapping_);
}

MakespanRobustness IndependentTaskSystem::analyze() const {
  MakespanRobustness result;
  const auto finish = finishing();
  const auto counts = mapping_.countPerMachine();
  result.predictedMakespan =
      *std::max_element(finish.begin(), finish.end());
  result.radii.resize(etc_.machines(), kInf);
  result.robustness = kInf;
  for (std::size_t j = 0; j < etc_.machines(); ++j) {
    if (counts[j] == 0) {
      continue;
    }
    result.radii[j] = (tau_ * result.predictedMakespan - finish[j]) /
                      std::sqrt(static_cast<double>(counts[j]));
    if (result.radii[j] < result.robustness) {
      result.robustness = result.radii[j];
      result.bindingMachine = j;
    }
  }
  return result;
}

std::vector<double> IndependentTaskSystem::criticalPoint() const {
  const MakespanRobustness analysis = analyze();
  const std::size_t jStar = analysis.bindingMachine;
  const auto finish = finishing();
  const auto counts = mapping_.countPerMachine();
  ROBUST_REQUIRE(counts[jStar] > 0,
                 "criticalPoint: binding machine has no applications");

  // Observation (2): every application on the binding machine receives the
  // same error; the shared error makes F_{j*} reach tau * M_orig exactly.
  const double perAppError =
      (tau_ * analysis.predictedMakespan - finish[jStar]) /
      static_cast<double>(counts[jStar]);

  std::vector<double> cStar = estimatedTimes();
  for (std::size_t i = 0; i < etc_.apps(); ++i) {
    if (mapping_.machineOf(i) == jStar) {
      cStar[i] += perAppError;
    }
  }
  return cStar;
}

core::ProblemSpec IndependentTaskSystem::toSpec(
    core::AnalyzerOptions options) const {
  const double bound = tau_ * predictedMakespan();
  const auto counts = mapping_.countPerMachine();

  std::vector<core::PerformanceFeature> features;
  for (std::size_t j = 0; j < etc_.machines(); ++j) {
    if (counts[j] == 0) {
      continue;  // identically-zero finishing time; no boundary exists
    }
    num::Vec weights(etc_.apps(), 0.0);
    for (std::size_t i = 0; i < etc_.apps(); ++i) {
      if (mapping_.machineOf(i) == j) {
        weights[i] = 1.0;  // Eq. 4: F_j = sum of C_i over apps on m_j
      }
    }
    features.push_back(core::PerformanceFeature{
        "F_" + std::to_string(j),
        core::ImpactFunction::affine(std::move(weights), 0.0),
        core::ToleranceBounds::atMost(bound)});
  }

  // Trivial single-subspace instance of the general perturbation model:
  // one continuous block, C (the actual execution times), measured by the
  // caller's norm. Bit-identical to the legacy parameter formulation.
  core::PerturbationSubspace c;
  c.name = "C (actual execution times)";
  c.origin = estimatedTimes();
  c.norm = static_cast<int>(options.norm);
  c.normWeights = options.normWeights;
  c.units = "seconds";

  core::ProblemSpec spec;
  spec.features = std::move(features);
  spec.options = std::move(options);
  spec.subspaces.push_back(std::move(c));
  return spec;
}

core::CompiledProblem IndependentTaskSystem::compile(
    core::AnalyzerOptions options) const {
  return core::CompiledProblem::compile(toSpec(std::move(options)));
}

}  // namespace robust::sched

#include "robust/core/fepia.hpp"

#include "robust/util/error.hpp"

namespace robust::core {

FepiaBuilder::FepiaBuilder(std::string requirement)
    : requirement_(std::move(requirement)) {}

FepiaBuilder& FepiaBuilder::perturbation(std::string name, num::Vec origin,
                                         bool discrete, std::string units) {
  ROBUST_REQUIRE(!haveParameter_,
                 "FepiaBuilder: perturbation parameter already set (the "
                 "single-parameter analyzer handles one pi_j; analyze each "
                 "parameter separately and combine with combinedRobustness, "
                 "or describe a joint space with subspace())");
  ROBUST_REQUIRE(subspaces_.empty(),
                 "FepiaBuilder: perturbation() and subspace() are mutually "
                 "exclusive");
  parameter_ =
      PerturbationParameter{std::move(name), std::move(origin), discrete,
                            std::move(units)};
  haveParameter_ = true;
  return *this;
}

FepiaBuilder& FepiaBuilder::subspace(PerturbationSubspace sub) {
  ROBUST_REQUIRE(!haveParameter_,
                 "FepiaBuilder: perturbation() and subspace() are mutually "
                 "exclusive");
  subspaces_.push_back(std::move(sub));
  return *this;
}

FepiaBuilder& FepiaBuilder::constraint(LinearConstraint constraint) {
  constraints_.push_back(std::move(constraint));
  return *this;
}

FepiaBuilder& FepiaBuilder::feature(std::string name, ImpactFunction impact,
                                    ToleranceBounds bounds) {
  features_.push_back(
      PerformanceFeature{std::move(name), std::move(impact), bounds});
  return *this;
}

FepiaBuilder& FepiaBuilder::affineFeature(std::string name, num::Vec weights,
                                          double constant,
                                          ToleranceBounds bounds) {
  return feature(std::move(name),
                 ImpactFunction::affine(std::move(weights), constant), bounds);
}

FepiaBuilder& FepiaBuilder::options(AnalyzerOptions options) {
  options_ = options;
  return *this;
}

ProblemSpec FepiaBuilder::spec() {
  ROBUST_REQUIRE(!built_, "FepiaBuilder: derivation already released");
  ROBUST_REQUIRE(haveParameter_ || !subspaces_.empty(),
                 "FepiaBuilder: step 2 (perturbation parameter) missing");
  ROBUST_REQUIRE(!features_.empty(),
                 "FepiaBuilder: steps 1/3 (performance features) missing");
  built_ = true;
  ProblemSpec spec;
  spec.features = std::move(features_);
  spec.parameter = std::move(parameter_);
  spec.options = options_;
  spec.subspaces = std::move(subspaces_);
  spec.constraints = std::move(constraints_);
  return spec;
}

CompiledProblem FepiaBuilder::compile() {
  return CompiledProblem::compile(spec());
}

}  // namespace robust::core

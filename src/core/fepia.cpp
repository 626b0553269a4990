#include "robust/core/fepia.hpp"

#include "robust/util/error.hpp"

namespace robust::core {

FepiaBuilder::FepiaBuilder(std::string requirement)
    : requirement_(std::move(requirement)) {}

FepiaBuilder& FepiaBuilder::perturbation(std::string name, num::Vec origin,
                                         bool discrete, std::string units) {
  ROBUST_REQUIRE(!haveParameter_,
                 "FepiaBuilder: perturbation parameter already set (the "
                 "builder handles one pi_j; describe a joint space with "
                 "ProblemSpec::subspaces)");
  parameter_ =
      PerturbationParameter{std::move(name), std::move(origin), discrete,
                            std::move(units)};
  haveParameter_ = true;
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

ProblemSpec FepiaBuilder::spec() {
  ROBUST_REQUIRE(!built_, "FepiaBuilder: derivation already released");
  ROBUST_REQUIRE(haveParameter_,
                 "FepiaBuilder: step 2 (perturbation parameter) missing");
  ROBUST_REQUIRE(!features_.empty(),
                 "FepiaBuilder: steps 1/3 (performance features) missing");
  built_ = true;
  ProblemSpec spec;
  spec.features = std::move(features_);
  spec.parameter = std::move(parameter_);
  return spec;
}

CompiledProblem FepiaBuilder::compile() {
  return CompiledProblem::compile(spec());
}

}  // namespace robust::core

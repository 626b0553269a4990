// A fluent builder that mirrors the four FePIA steps, so that a derivation
// for a new system reads like Section 2 of the paper:
//
//   auto problem = FepiaBuilder("makespan within 120% of predicted")
//       .perturbation("C", cOrig, /*discrete=*/false, "seconds")   // step 2
//       .feature("F_1", impactOfMachine1, ToleranceBounds::atMost(tauM))
//       .feature("F_2", impactOfMachine2, ToleranceBounds::atMost(tauM))
//       ...                                                        // steps 1+3
//       .compile();                                                // step 4
//   auto report = problem.evaluate();
#pragma once

#include <string>
#include <vector>

#include "robust/core/compiled.hpp"

namespace robust::core {

/// Accumulates the FePIA derivation for one system and produces a
/// ProblemSpec or a CompiledProblem. Single-shot: spec() or compile() may be
/// called once. It covers one perturbation parameter at the default
/// analyzer options; a spec with subspaces, constraints or other options is
/// written as a ProblemSpec directly.
class FepiaBuilder {
 public:
  /// `requirement` is the step-1 narrative (kept for reporting/diagnostics).
  explicit FepiaBuilder(std::string requirement);

  /// Step 2: declares the perturbation parameter.
  FepiaBuilder& perturbation(std::string name, num::Vec origin,
                             bool discrete = false, std::string units = {});

  /// Steps 1+3: adds a performance feature with its impact function and
  /// tolerable-variation bounds.
  FepiaBuilder& feature(std::string name, ImpactFunction impact,
                        ToleranceBounds bounds);

  /// Convenience for affine impacts.
  FepiaBuilder& affineFeature(std::string name, num::Vec weights,
                              double constant, ToleranceBounds bounds);

  /// The step-1 robustness requirement text.
  [[nodiscard]] const std::string& requirement() const noexcept {
    return requirement_;
  }

  /// Step 4, structure only: releases the accumulated derivation as a
  /// ProblemSpec (for CompiledProblem::compile or deferred analysis).
  /// Throws InvalidArgumentError when steps are missing. Single-shot,
  /// shared with compile().
  [[nodiscard]] ProblemSpec spec();

  /// Step 4, compiled: validates and compiles the derivation for repeated /
  /// batched evaluation. Single-shot, shared with spec().
  [[nodiscard]] CompiledProblem compile();

 private:
  std::string requirement_;
  std::vector<PerformanceFeature> features_;
  PerturbationParameter parameter_;
  bool haveParameter_ = false;
  bool built_ = false;
};

}  // namespace robust::core

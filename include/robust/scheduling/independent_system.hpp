// The Section 3.1 derivation: makespan robustness of an independent-task
// allocation against ETC estimation errors.
//
// Performance features: machine finishing times F_j (Eq. 3).
// Perturbation parameter: C, the vector of actual execution times of every
// application on its assigned machine (one component per application).
// Impact: F_j(C) = sum of C_i over applications on m_j (Eq. 4), affine in C,
// so every radius has the closed form of Eq. 6 and the metric is Eq. 7.
#pragma once

#include <cstddef>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/scheduling/etc.hpp"
#include "robust/scheduling/mapping.hpp"

namespace robust::sched {

/// Result of the makespan-robustness analysis of one mapping.
struct MakespanRobustness {
  double predictedMakespan = 0.0;  ///< M_orig
  double robustness = 0.0;         ///< rho_mu(Phi, C), Eq. 7 (seconds)
  std::size_t bindingMachine = 0;  ///< machine whose radius attains the min
  std::vector<double> radii;       ///< r_mu(F_j, C) per machine, Eq. 6;
                                   ///< +inf for machines with no application
};

/// Binds an ETC matrix, a mapping, and the tolerance tau (the actual makespan
/// may be at most tau * predicted makespan; Section 4.2 uses tau = 1.2).
class IndependentTaskSystem {
 public:
  /// `tau` must exceed 1 (a tolerance of exactly 1 admits no error at all —
  /// permitted, but then every radius is 0).
  IndependentTaskSystem(const EtcMatrix& etc, Mapping mapping, double tau);

  [[nodiscard]] const Mapping& mapping() const noexcept { return mapping_; }
  [[nodiscard]] double tau() const noexcept { return tau_; }

  /// C_orig: estimated execution time of each application on its assigned
  /// machine — the perturbation parameter's operating point.
  [[nodiscard]] std::vector<double> estimatedTimes() const;

  /// Finishing times F_j(C_orig) per machine.
  [[nodiscard]] std::vector<double> finishing() const;

  /// Predicted makespan M_orig.
  [[nodiscard]] double predictedMakespan() const;

  /// Full analysis: every machine's radius via Eq. 6,
  /// (tau * M_orig - F_j(C_orig)) / sqrt(n(m_j)), or +inf when n(m_j) = 0
  /// (an empty machine's finishing time is identically 0 and can never
  /// violate the requirement); the metric (Eq. 7); the binding machine.
  [[nodiscard]] MakespanRobustness analyze() const;

  /// The critical perturbation C* attaining the metric. Per the paper's
  /// observations (1)-(2): it differs from C_orig only on applications mapped
  /// to the binding machine, all of which receive the *same* ETC error.
  [[nodiscard]] std::vector<double> criticalPoint() const;

  /// The equivalent generic FePIA derivation (one affine feature per
  /// non-empty machine). Used to cross-validate Eq. 6 against the generic
  /// solvers, and as the worked example of deriving a system with the core
  /// API.
  [[nodiscard]] core::ProblemSpec toSpec(
      core::AnalyzerOptions options = {}) const;

  /// Compiles the derivation for repeated / batched evaluation.
  [[nodiscard]] core::CompiledProblem compile(
      core::AnalyzerOptions options = {}) const;

 private:
  const EtcMatrix& etc_;
  Mapping mapping_;
  double tau_;
};

}  // namespace robust::sched

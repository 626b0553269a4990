// The Section 3.2 derivation: QoS robustness of a HiPer-D mapping against
// sensor-load increases.
//
// Performance features (Eq. 9): per-application computation times T_i^c,
// per-transfer communication times T_ip^n (throughput constraints, bound
// 1/R(a_i)) and per-path end-to-end latencies L_k (bound L_k^max).
// Perturbation parameter: the sensor-load vector lambda (discrete — the
// metric is floored, Section 3.2's "objects per data set" rule).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/hiperd/graph.hpp"
#include "robust/hiperd/load_function.hpp"
#include "robust/scheduling/mapping.hpp"

namespace robust::hiperd {

class CompiledScenario;

/// A complete problem instance: the DAG, machines, loads, limits, and
/// load-dependent time functions. Mappings vary; the scenario is fixed.
struct HiperdScenario {
  SystemGraph graph;                 ///< finalized DAG
  std::size_t machines = 0;          ///< |M|
  num::Vec lambdaOrig;               ///< assumed sensor loads (lambda_orig)
  std::vector<double> latencyLimits; ///< L_k^max, one per graph.paths() entry
  /// Inner computation complexity per application and machine (the
  /// parenthesized part of Table 2; multitasking factor applied on top).
  std::vector<std::vector<LoadFunction>> compute;  ///< [app][machine]
  /// Communication time per edge (sensor edges carry no cost in the model
  /// but slots exist for uniform indexing).
  std::vector<LoadFunction> comm;                  ///< [edge id]

  /// Compiles the mapping-independent part of the Section 3.2 derivation for
  /// repeated per-mapping analysis (robust/hiperd/compiled_scenario.hpp).
  /// The scenario must outlive the returned object.
  [[nodiscard]] CompiledScenario compile(
      core::AnalyzerOptions options = {}) const;
};

/// Validates cross-field consistency of a scenario (dimensions, counts).
void validateScenario(const HiperdScenario& scenario);

/// One QoS constraint's identity, for reporting.
enum class ConstraintKind { Computation, Communication, Latency };

/// A QoS constraint evaluated at lambda_orig (used by the slack metric and
/// the experiment tables).
struct ConstraintStatus {
  ConstraintKind kind = ConstraintKind::Computation;
  std::string name;       ///< e.g. "Tc(a_3)", "Tn(a_3->a_7)", "L_4"
  double value = 0.0;     ///< attribute value at lambda_orig
  double limit = 0.0;     ///< maximum allowed value
  /// Fractional utilization value/limit; percentage slack is 1 - fraction.
  /// A positive value against a non-positive limit is infeasible at any
  /// scale and reports +inf (so slack() cannot mask a violated zero-limit
  /// constraint as fully slack).
  [[nodiscard]] double fraction() const {
    if (limit > 0.0) {
      return value / limit;
    }
    return value > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
};

/// Binds a scenario and a mapping; evaluates QoS, slack (Section 4.3) and
/// the robustness metric (Eq. 10a-c, Eq. 11).
class HiperdSystem {
 public:
  /// `mapping` assigns every application of the scenario's graph to one of
  /// the scenario's machines. The scenario must outlive this object.
  HiperdSystem(const HiperdScenario& scenario, sched::Mapping mapping);

  [[nodiscard]] const HiperdScenario& scenario() const noexcept {
    return scenario_;
  }
  [[nodiscard]] const sched::Mapping& mapping() const noexcept {
    return mapping_;
  }

  /// Multitasking factor of the machine hosting `app` under this mapping.
  [[nodiscard]] double factorOf(std::size_t app) const;

  /// Computation time T_i^c(lambda) of `app` on its assigned machine.
  [[nodiscard]] double computationTime(std::size_t app,
                                       std::span<const double> lambda) const;

  /// Communication time T_ip^n(lambda) of edge `edgeId`.
  [[nodiscard]] double communicationTime(std::size_t edgeId,
                                         std::span<const double> lambda) const;

  /// End-to-end latency L_k(lambda) of path `k`: computation times of every
  /// application in the path plus communication times of every traversed
  /// edge, including the sensor and terminal transfers (Eq. 8, with the
  /// "including any sensor or actuator communications" reading).
  [[nodiscard]] double latency(std::size_t k,
                               std::span<const double> lambda) const;

  /// 1/R(a_i): the throughput bound of `app` — the reciprocal of the highest
  /// output rate among the driving sensors of the paths containing the app
  /// (the tightest constraint when an application lies on several paths).
  [[nodiscard]] double throughputBound(std::size_t app) const;

  /// Every QoS constraint evaluated at lambda_orig.
  [[nodiscard]] std::vector<ConstraintStatus> constraints() const;

  /// System-wide percentage slack of Section 4.3: the minimum over all QoS
  /// constraints of (1 - fractional value).
  [[nodiscard]] double slack() const;

  /// The FePIA derivation of this mapping: one feature per non-trivial
  /// computation / communication / latency constraint, perturbation lambda
  /// (discrete). Features whose impact does not depend on lambda carry no
  /// boundary and are omitted. The spec does not refer to this system, so
  /// it may outlive it; it refers to the scenario, which must stay alive
  /// while the spec (or the problem compiled from it) is evaluated.
  [[nodiscard]] core::ProblemSpec toSpec(
      core::AnalyzerOptions options = {}) const;

  /// Full robustness analysis (Eq. 11, floored):
  /// CompiledProblem::compile(toSpec(options)).evaluate().
  [[nodiscard]] core::RobustnessReport analyze(
      core::AnalyzerOptions options = {}) const;

 private:
  const HiperdScenario& scenario_;
  sched::Mapping mapping_;
  std::vector<double> factors_;          ///< per app
  std::vector<double> throughputBound_;  ///< per app, 1/R(a_i)
};

}  // namespace robust::hiperd

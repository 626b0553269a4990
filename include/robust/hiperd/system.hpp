// A HiPer-D problem instance (Section 3.2): the DAG, machines, sensor
// loads, QoS limits and load-dependent time functions, plus the QoS
// constraint record the slack metric and the experiment tables report. The
// derivation itself — features, slack and robustness per mapping — lives
// in robust/hiperd/compiled_scenario.hpp.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "robust/core/report.hpp"
#include "robust/hiperd/graph.hpp"
#include "robust/hiperd/load_function.hpp"

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

/// Validates cross-field consistency of a scenario (dimensions, counts,
/// one linear coefficient per sensor).
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
  [[nodiscard]] double fraction() const { return fractionOf(value, limit); }

  /// fraction() of a (value, limit) pair.
  [[nodiscard]] static double fractionOf(double value, double limit) {
    if (limit > 0.0) {
      return value / limit;
    }
    return value > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
};

}  // namespace robust::hiperd

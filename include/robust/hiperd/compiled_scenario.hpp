// The Section 3.2 derivation, compiled once per scenario and evaluated per
// mapping: QoS robustness of HiPer-D mappings against sensor-load increases.
// This is the only place that maps a mapping to its features.
//
// Features (Eq. 9): per-app computation times T_i^c and per-transfer
// communication times T_ip^n (throughput bound 1/R(a_i)), and per-path
// latencies L_k (bound L_k^max). Perturbation: the sensor loads lambda,
// discrete (the metric is floored, Section 3.2).
//
// A mapping changes only each computation time's multitasking factor, which
// machine's compute row an app contributes, and the latency rows built from
// those. The constructor does the rest once: it validates the scenario and
// options, computes the throughput bounds and every feature name, records
// which load functions are zero, and on the fast path pre-solves the Tn
// radius reports.
//
// The fast path (every load function linear, solver Auto or Analytic, as in
// the generated scenarios and Table 2) assembles only the mapping's rows in
// a caller-owned workspace and runs core::evaluateAffineRadius. Every other
// case compiles and evaluates toSpec(mapping); the fast path is
// bit-identical to that.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/core/report.hpp"
#include "robust/hiperd/system.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/mapping.hpp"

namespace robust::hiperd {

/// Caller-owned scratch state for repeated per-mapping analysis. Reusing one
/// workspace keeps every buffer (report radii with their strings and
/// boundary points, machine counts, factors, the assembled weight row), so
/// steady-state re-analysis and slack perform no heap allocation on the
/// fast path.
class ScenarioWorkspace {
  friend class CompiledScenario;
  core::RobustnessReport report_;
  std::vector<std::size_t> counts_;  ///< apps per machine
  std::vector<double> factors_;      ///< multitask factor per app
  num::Vec row_;                     ///< assembled feature weights
};

/// Phase 1 of the HiPer-D analysis: everything derivable from the scenario
/// alone. Immutable once built; every member is const and reentrant, so one
/// compiled scenario serves many threads as long as each uses its own
/// workspace. The scenario must outlive this object. A mapping must assign
/// each of the scenario's apps to one of its machines.
class CompiledScenario {
 public:
  explicit CompiledScenario(const HiperdScenario& scenario,
                            core::AnalyzerOptions options = {});

  [[nodiscard]] const HiperdScenario& scenario() const noexcept {
    return *scenario_;
  }
  /// True when analyze() runs the allocation-free kernel path (see above).
  [[nodiscard]] bool fastPath() const noexcept { return fast_; }
  /// 1/R(a_i) of `app`: the reciprocal of the highest driving-sensor rate
  /// over the paths containing it (+inf for an app on no path).
  [[nodiscard]] double throughputBound(std::size_t app) const;

  /// T_i^c(lambda) of `app` under `mapping`, multitasking factor included.
  [[nodiscard]] double computationTime(const sched::Mapping& mapping,
                                       std::size_t app,
                                       std::span<const double> lambda) const;

  /// T_ip^n(lambda) of edge `edgeId` (independent of the mapping).
  [[nodiscard]] double communicationTime(std::size_t edgeId,
                                         std::span<const double> lambda) const;

  /// Every QoS constraint of `mapping` at lambda_orig: per app with a finite
  /// throughput bound its Tc, then its non-zero Tn; then every path's L.
  [[nodiscard]] std::vector<ConstraintStatus> constraints(
      const sched::Mapping& mapping) const;

  /// Section 4.3's system-wide percentage slack: the minimum over
  /// constraints() of 1 - fraction(). Allocates nothing once warm.
  [[nodiscard]] double slack(const sched::Mapping& mapping,
                             ScenarioWorkspace& workspace) const;

  /// Convenience: slack with a throwaway workspace.
  [[nodiscard]] double slack(const sched::Mapping& mapping) const {
    ScenarioWorkspace workspace;
    return slack(mapping, workspace);
  }

  /// The FePIA derivation of `mapping`: a feature per constraint whose
  /// impact depends on lambda, in constraints() kind order (all Tc, all Tn,
  /// all L). A latency with a non-linear member is a callable summing Eq. 8
  /// in path order: the computation times of its apps, then the
  /// communication times of every traversed edge. The spec may outlive this
  /// object but refers to the scenario, which must stay alive while the
  /// spec is evaluated.
  [[nodiscard]] core::ProblemSpec toSpec(const sched::Mapping& mapping) const;

  /// Phase 2: full robustness analysis of one mapping (Eq. 11, floored).
  /// Returns a reference to the workspace-owned report (valid until the next
  /// analyze through the same workspace). Bit-identical to
  /// CompiledProblem::compile(toSpec(mapping)).evaluate().
  const core::RobustnessReport& analyze(const sched::Mapping& mapping,
                                        ScenarioWorkspace& workspace) const;

  /// Convenience: analyze with a throwaway workspace.
  [[nodiscard]] core::RobustnessReport analyze(
      const sched::Mapping& mapping) const {
    ScenarioWorkspace workspace;
    return analyze(mapping, workspace);
  }

  /// Analyzes every mapping with a static block partition over
  /// util::thread_pool (threads = 0 means defaultThreadCount()); each block
  /// reuses a dedicated workspace and results are bit-identical for every
  /// thread count.
  [[nodiscard]] std::vector<core::RobustnessReport> analyzeMappings(
      std::span<const sched::Mapping> mappings, std::size_t threads = 0) const;

  /// Metric-only lane: rho (Eq. 11, floored) and its argmin slot without
  /// materializing per-feature reports. Dots and dual norms of the
  /// scenario-fixed parts are precomputed at compile time and combined per
  /// mapping with the blocked kernels (robust/numeric/simd.hpp); the Tn
  /// lane's contribution collapses to one precomputed (min, argmin) pair.
  /// The result is within 1e-12 relative of analyze().metric, with the same
  /// bindingFeature, and deterministic across runs and dispatch targets.
  ///
  /// With `prune` (the default), latency rows whose triangle-inequality
  /// lower bound (nearest-level gap over the sum of part dual norms)
  /// provably exceeds the incumbent are skipped without ever assembling
  /// the row; pruning never changes the returned bits (`prune = false`
  /// pins that equality in tests). Falls back to the full analyze() when
  /// !fastPath().
  [[nodiscard]] core::MetricResult analyzeMetric(const sched::Mapping& mapping,
                                                 ScenarioWorkspace& workspace,
                                                 bool prune = true) const;

  /// Convenience: metric lane with a throwaway workspace.
  [[nodiscard]] core::MetricResult analyzeMetric(
      const sched::Mapping& mapping) const {
    ScenarioWorkspace workspace;
    return analyzeMetric(mapping, workspace);
  }

 private:
  /// Each app's multitasking factor under `mapping` into
  /// workspace.factors_, which it returns. The one mapping check: throws
  /// unless `mapping` matches the scenario's apps and machines.
  std::span<const double> fillFactors(const sched::Mapping& mapping,
                                      ScenarioWorkspace& workspace) const;

  /// The weights of `path`'s latency feature under `mapping` into
  /// workspace.row_ (needs fillFactors first; every member linear).
  void assembleLatencyRow(const Path& path, const sched::Mapping& mapping,
                          ScenarioWorkspace& workspace) const;

  /// Calls visit(kind, name, value, limit) for every QoS constraint at
  /// lambda_orig, in constraints() order (needs fillFactors first).
  template <class Visit>
  void forEachConstraint(const sched::Mapping& mapping,
                         std::span<const double> factors, Visit&& visit) const;

  const HiperdScenario* scenario_ = nullptr;
  core::AnalyzerOptions options_;
  bool fast_ = false;
  std::size_t sensors_ = 0;
  std::vector<double> throughputBound_;  ///< per app, 1/R(a_i)

  /// Computation (Tc) lane: applications with a finite throughput bound, in
  /// ascending order, with their interned feature names and a per-(app,
  /// machine) zero flag (a zero compute function contributes no feature).
  std::vector<std::size_t> tcApps_;
  std::vector<std::string> tcNames_;   ///< parallel to tcApps_
  std::vector<char> computeZero_;      ///< [app * machines + machine]
  std::vector<char> commZero_;         ///< [edge id]

  /// Communication (Tn) lane: every non-zero transfer out of an app with a
  /// finite throughput bound, in app then out-edge order. Fully
  /// mapping-independent, so on the fast path the complete radius reports
  /// are pre-solved at compile time and copied per mapping.
  struct Transfer {
    std::size_t app;   ///< sender, whose throughput bound applies
    std::size_t edge;  ///< edge id
    std::string name;  ///< interned "Tn(sender->receiver)"
  };
  std::vector<Transfer> tn_;
  std::vector<core::RadiusReport> tnReports_;  ///< parallel; fast path only

  /// Latency (L) lane: interned names, one per path.
  std::vector<std::string> latencyNames_;

  /// Metric-lane precompute (fast path only): per-(app, machine) compute
  /// dots against lambdaOrig and dual norms, per-edge comm dots and duals,
  /// the Tn lane's pre-reduced (min, earliest argmin), and whether the
  /// latency triangle-inequality prune is sound (all coefficients and
  /// origin loads non-negative, so no cancellation: a zero part-dual sum
  /// proves the assembled row is zero, and the decomposed dot's rounding
  /// is bounded by the magnitude sum).
  std::vector<double> computeDot_;   ///< [app * machines + machine]
  std::vector<double> computeDual_;  ///< [app * machines + machine]
  std::vector<double> commDot_;      ///< [edge id]
  std::vector<double> commDual_;     ///< [edge id]
  double tnMinRadius_ = std::numeric_limits<double>::infinity();
  std::size_t tnArgmin_ = 0;
  bool latencyPruneSafe_ = false;
};

/// Mapping objective for the iterative optimizers (annealMapping and the
/// shape-generic localSearch / geneticAlgorithm overloads): the negated
/// analyzeMetric metric, so minimizing it maximizes HiPer-D robustness.
/// The returned closure owns a reusable workspace shared by its copies; use
/// it from one thread at a time. `compiled` must outlive the closure.
[[nodiscard]] sched::MappingObjective robustnessObjective(
    const CompiledScenario& compiled);

}  // namespace robust::hiperd

// The compiled HiPer-D analysis: one scenario, many mappings.
//
// The Section 3.2 derivation is mapping-dependent in only three ways: the
// multitasking factor scaling each computation time, WHICH compute row an
// application contributes (its assigned machine), and the per-path latency
// weights assembled from those rows. Everything else — the feature names,
// the throughput bounds 1/R(a_i), the communication features (which do not
// depend on the mapping at all), the latency limits, and the perturbation
// parameter — is fixed by the scenario.
//
// CompiledScenario performs all scenario-fixed work once:
//   * validates the scenario and the analysis options,
//   * precomputes the throughput bounds and every feature name,
//   * fully pre-solves the communication (Tn) radius reports, and
//   * records which compute/comm functions are zero or non-linear.
// analyze(mapping, workspace) then materializes only the mapping-dependent
// weight rows into a caller-owned workspace and runs the shared core kernel
// (core::evaluateAffineRadius), producing a RobustnessReport bit-identical
// to HiperdSystem(scenario, mapping).analyze(options).
//
// The all-affine fast path applies when every compute and comm function is
// linear and the solver is Auto or Analytic (the generated scenarios and the
// paper's Table 2 are all-linear). Otherwise analyze() transparently falls
// back to the per-mapping derivation (HiperdSystem::analyze), so results are
// identical either way.
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
/// steady-state re-analysis performs no heap allocation on the fast path.
class ScenarioWorkspace {
 public:
  ScenarioWorkspace() = default;

 private:
  friend class CompiledScenario;
  core::RobustnessReport report_;
  std::vector<std::size_t> counts_;  ///< apps per machine
  std::vector<double> factors_;      ///< multitask factor per app
  num::Vec row_;                     ///< assembled feature weights
};

/// Phase 1 of the HiPer-D analysis: everything derivable from the scenario
/// alone. Immutable once built; analyze() is const and reentrant, so one
/// compiled scenario serves many threads as long as each uses its own
/// workspace. The scenario must outlive this object.
class CompiledScenario {
 public:
  explicit CompiledScenario(const HiperdScenario& scenario,
                            core::AnalyzerOptions options = {});

  [[nodiscard]] const HiperdScenario& scenario() const noexcept {
    return *scenario_;
  }
  [[nodiscard]] const core::AnalyzerOptions& options() const noexcept {
    return options_;
  }
  /// The perturbation parameter (lambda, discrete) shared by every mapping.
  [[nodiscard]] const core::PerturbationParameter& parameter() const noexcept {
    return parameter_;
  }
  /// True when every load function is linear and the solver is analytic, so
  /// analyze() runs the allocation-free kernel path. Otherwise analyze()
  /// falls back to HiperdSystem::analyze (identical results, per-mapping
  /// derivation cost).
  [[nodiscard]] bool fastPath() const noexcept { return fast_; }
  /// 1/R(a_i), the scenario-fixed throughput bound of `app`.
  [[nodiscard]] double throughputBound(std::size_t app) const;

  /// Phase 2: full robustness analysis of one mapping (Eq. 11, floored).
  /// Returns a reference to the workspace-owned report (valid until the next
  /// analyze through the same workspace). Bit-identical to
  /// HiperdSystem(scenario, mapping).analyze(options).
  const core::RobustnessReport& analyze(const sched::Mapping& mapping,
                                        ScenarioWorkspace& workspace) const;

  /// Convenience: analyze with a throwaway workspace.
  [[nodiscard]] core::RobustnessReport analyze(
      const sched::Mapping& mapping) const;

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
      const sched::Mapping& mapping) const;

 private:
  [[nodiscard]] const num::Vec& computeCoeffs(std::size_t app,
                                              std::size_t machine) const;

  /// Each app's multitasking factor under `mapping` into
  /// workspace.factors_.
  void fillFactors(const sched::Mapping& mapping,
                   ScenarioWorkspace& workspace) const;

  /// The weights of `path`'s latency feature under `mapping` into
  /// workspace.row_ (needs fillFactors first).
  void assembleLatencyRow(const Path& path, const sched::Mapping& mapping,
                          ScenarioWorkspace& workspace) const;

  const HiperdScenario* scenario_ = nullptr;
  core::AnalyzerOptions options_;
  core::PerturbationParameter parameter_;
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

  /// Communication (Tn) lane: fully mapping-independent, so the complete
  /// radius reports are pre-solved at compile time and copied per mapping.
  std::vector<core::RadiusReport> tnReports_;

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

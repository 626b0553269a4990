// The compiled FePIA analysis engine: compile the problem structure once,
// evaluate many per-query states against it.
//
// The paper's experiments (and any heuristic mapping search) evaluate the
// metric for thousands of mappings against ONE fixed scenario. Deriving the
// problem afresh per mapping pays the full derivation cost each time:
// feature-name strings, optional-wrapped affine payloads and type-erased
// closures are re-allocated on every construction. The engine splits that
// work in two:
//
//   Phase 1 — CompiledProblem::compile(ProblemSpec): validate once and pack
//   the immutable structure. Affine feature rows land in one dense
//   row-major weight matrix, the dual norm of every row is precomputed for
//   each NormKind, bounds and constants become flat arrays, and the opaque
//   callable features are kept in a separate indexed lane for the iterative
//   solvers. The solver/norm configuration is baked in.
//
//   Phase 2 — CompiledProblem::evaluate(AnalysisInstance, EvalWorkspace):
//   per-query state only (perturbation origin, per-feature constants, an
//   optional per-feature weight scale such as HiPer-D's multitasking
//   factor). Results are written into a caller-owned reusable workspace; the
//   steady state performs no heap allocation on the affine fast path. At
//   the compiled defaults, evaluate() is the one-shot analysis of the
//   derivation (Eq. 1 radii and the Eq. 2 metric).
//
// analyzeBatchMetric() fans a span of instances across util::thread_pool
// with a static block partition: results are bit-identical for every thread
// count.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "robust/core/feature.hpp"
#include "robust/core/report.hpp"

namespace robust::curve {
class CurveEngine;
class DriftTracker;
}  // namespace robust::curve

namespace robust::core {

/// Phase-1 input: the complete FePIA derivation (steps 1-3) plus the
/// analysis configuration. The parameter's origin doubles as the default
/// evaluation origin for instances that do not override it.
///
/// The perturbation space may be described two equivalent ways:
///
///   * legacy: `parameter` + `options.norm` — one unconstrained continuous
///     (or discrete) vector measured by one norm. `subspaces` stays empty;
///     compile() synthesizes the single equivalent subspace.
///   * general: `subspaces` — one or more named blocks, each with its own
///     origin, norm, and discreteness; the full perturbation vector is
///     their concatenation and a displacement's size is the MAXIMUM of the
///     per-block norms (a product of balls). With a single subspace this
///     reduces exactly — bit for bit — to the legacy form. When subspaces
///     are given they are authoritative: `parameter` and `options.norm` /
///     `options.normWeights` are derived from them.
///
/// `constraints` carve a hard feasibility region (capacity limits) out of
/// the perturbation space: the radius search only counts violating
/// perturbations that are feasible, and an infeasible operating point is
/// reported as RobustnessReport::infeasibleOrigin instead of a radius.
/// Constrained problems require affine features, an Auto/Analytic solver,
/// and L2/Weighted subspace norms (the projection solvers are Euclidean).
///
/// Every member defaults to empty, so a designated initializer names only
/// what it sets: `{.features = f, .parameter = p, .options = o}`.
struct ProblemSpec {
  std::vector<PerformanceFeature> features{};
  PerturbationParameter parameter{};
  AnalyzerOptions options{};
  std::vector<PerturbationSubspace> subspaces{};
  std::vector<LinearConstraint> constraints{};
};

/// Phase-2 input: the per-query state overlaying a CompiledProblem. All
/// spans may be empty, meaning "use the compiled defaults". Entries of
/// `constants` and `scales` are indexed by feature and apply to affine
/// features only (callable features carry their state inside the closure);
/// scales must be positive.
struct AnalysisInstance {
  std::span<const double> origin;     ///< perturbation origin (empty = spec's)
  std::span<const double> constants;  ///< affine constant override per feature
  std::span<const double> scales;     ///< affine weight scale per feature
};

/// Caller-owned scratch state for repeated evaluation. Reusing one
/// workspace across evaluations retains every buffer (report radii,
/// boundary points, name/method strings, the scaled-weights row), so the
/// affine fast path settles into a zero-allocation steady state.
class EvalWorkspace {
 public:
  EvalWorkspace() = default;

 private:
  friend class CompiledProblem;
  RobustnessReport report_;
  num::Vec scaledRow_;
};

/// The scalar outcome of the metric-only lane: rho and its argmin feature,
/// without per-row radii, boundary points, or method strings. The metric
/// and bindingFeature match what evaluate() reports (the lane is
/// differentially pinned at <= 1e-12 relative; the argmin is identical).
struct MetricResult {
  double metric = 0.0;
  std::size_t bindingFeature = 0;
  bool floored = false;
};

/// Caller-owned scratch for the metric-only lane: the per-row dot buffer
/// fed by the blocked kernels, the batch-mode tile buffer, the constrained
/// screen's per-row bounds and visit order, and a full workspace for the
/// callable/iterative fallback rows.
class MetricWorkspace {
 public:
  MetricWorkspace() = default;

 private:
  friend class CompiledProblem;
  num::Vec dots_;       ///< per-row w.origin for one instance
  num::Vec batchDots_;  ///< instance-tile x rows, batch mode
  num::Vec screenBounds_;                ///< per feature, constrained screen
  std::vector<std::size_t> screenOrder_; ///< feature heap, constrained screen
  RadiusReport scratch_;
  EvalWorkspace full_;
};

/// Caller-owned scratch for the ray form of the violation predicate
/// (CompiledProblem::violatesOnRay): every affine feature's value at the
/// ray's origin and its slope along the direction, the same for every
/// constraint, and the point buffer callable features are evaluated at.
/// Reusing one across rays allocates nothing.
class RayForm {
 public:
  RayForm() = default;

  /// Largest r for which origin + r * u satisfies every constraint
  /// exactly: min over constraints with g . u > 0 of (b - g . origin) /
  /// (g . u), +inf when no constraint rises along u.
  [[nodiscard]] double feasibleExtent() const noexcept { return extent_; }

 private:
  friend class CompiledProblem;
  std::span<const double> origin_;
  std::span<const double> direction_;
  num::Vec rowValue_;         ///< per affine row: row . origin + constant
  num::Vec rowSlope_;         ///< per affine row: row . u
  num::Vec constraintValue_;  ///< per constraint: g . origin
  num::Vec constraintSlope_;  ///< per constraint: g . u
  num::Vec point_;            ///< origin + r * u, for callable features
  double extent_ = 0.0;
};

/// One affine performance feature expressed as raw spans: the input to
/// evaluateAffineRadius() for derivation layers (e.g. HiPer-D's compiled
/// scenario) that materialize per-query weight rows into their own
/// workspaces. At least one bound must be present.
struct AffineFeatureView {
  std::span<const double> weights;
  double constant = 0.0;
  std::optional<double> boundMin;
  std::optional<double> boundMax;
};

/// The exact analytic-path arithmetic of the engine for one affine
/// feature: at-origin violation check, Eq. 6 dual-norm radius per present
/// bound, binding-bound selection, nearest boundary point. Writes into
/// `out`, reusing its buffers; `name` is copied into out.feature.
/// `dualNormHint`, when positive, must equal the dual norm of the weights
/// under options.norm (pass a precomputed value to skip recomputation).
/// `weightedDenomHint`, when positive, must equal sum(a_i^2 / w_i) for the
/// weighted norm (the un-squared-rooted dual norm); it skips the per-call
/// recomputation inside the boundary-point solve.
void evaluateAffineRadius(const AffineFeatureView& feature,
                          std::span<const double> origin,
                          const AnalyzerOptions& options,
                          std::string_view name, RadiusReport& out,
                          double dualNormHint = 0.0,
                          double weightedDenomHint = 0.0);

/// Phase 1 + phase 2 of the engine. Immutable once compiled; evaluate() is
/// const and reentrant, so one compiled problem may serve many threads as
/// long as each uses its own workspace.
class CompiledProblem {
 public:
  /// Validates the derivation (dimensions, bounds, norm weights) and packs
  /// it. Throws InvalidArgumentError on an inconsistent derivation.
  [[nodiscard]] static CompiledProblem compile(ProblemSpec spec);

  [[nodiscard]] std::size_t featureCount() const noexcept {
    return features_.size();
  }
  /// Perturbation dimension (size of every origin).
  [[nodiscard]] std::size_t dimension() const noexcept { return dim_; }
  [[nodiscard]] const std::vector<PerformanceFeature>& features()
      const noexcept {
    return features_;
  }
  [[nodiscard]] const PerturbationParameter& parameter() const noexcept {
    return parameter_;
  }
  [[nodiscard]] const AnalyzerOptions& options() const noexcept {
    return options_;
  }

  /// The perturbation subspaces, post-normalization: never empty (a legacy
  /// spec compiles to the single equivalent subspace). Block `s` covers
  /// components [subspaceOffset(s), subspaceOffset(s + 1)).
  [[nodiscard]] const std::vector<PerturbationSubspace>& subspaces()
      const noexcept {
    return subspaces_;
  }
  [[nodiscard]] std::size_t subspaceOffset(std::size_t s) const {
    return subOffsets_.at(s);
  }

  /// The hard feasibility constraints (empty for unconstrained problems).
  [[nodiscard]] const std::vector<LinearConstraint>& constraints()
      const noexcept {
    return constraints_;
  }

  /// True when `origin` satisfies every compiled constraint.
  [[nodiscard]] bool originFeasible(std::span<const double> origin) const;

  /// The violation predicate every sampler shares: true when some feature
  /// leaves its tolerance bounds at the perturbation point `x`. A point
  /// that breaks a hard constraint lies outside the perturbation space the
  /// radius search counts, so it never violates.
  [[nodiscard]] bool violates(std::span<const double> x) const;

  /// The same predicate on the ray x(r) = origin + r * u, in line form:
  /// setRayOrigin resolves every affine row's value at `origin` (one
  /// blocked kernel pass) and every constraint's, setRayDirection their
  /// slopes along `u`. violatesOnRay(ray, r) is then O(rows) scalar work:
  /// a constraint breaks when g . origin + r (g . u) exceeds its bound by
  /// originFeasible's slack, an affine feature is out when
  /// bounds.contains(value + r * slope) fails, and callable features are
  /// evaluated at the materialized point. It agrees with
  /// violates(origin + r * u) except within rounding of a boundary. Both
  /// spans must outlive the ray's use.
  void setRayOrigin(std::span<const double> origin, RayForm& ray) const;
  void setRayDirection(std::span<const double> u, RayForm& ray) const;
  [[nodiscard]] bool violatesOnRay(RayForm& ray, double r) const;

  /// Size of a displacement from the origin under the problem's norm: the
  /// maximum over subspaces of the block norm (L1/L2/LInf on the
  /// fixed-order blocked kernels, so bit-identical across SIMD targets;
  /// the weighted norm as a plain element-order loop).
  [[nodiscard]] double displacementNorm(
      std::span<const double> displacement) const;


  /// Evaluates one instance into `workspace` and returns a reference to the
  /// workspace-owned report (valid until the next evaluation through the
  /// same workspace).
  const RobustnessReport& evaluate(const AnalysisInstance& instance,
                                   EvalWorkspace& workspace) const;

  /// Convenience: evaluates with a throwaway workspace.
  [[nodiscard]] RobustnessReport evaluate(
      const AnalysisInstance& instance) const;

  /// Convenience: evaluates the compiled defaults (the spec's origin and
  /// constants): all radii and rho = min radius (Eq. 2), floored when the
  /// parameter is discrete (Section 3.2's "objects per data set" rule).
  [[nodiscard]] RobustnessReport evaluate() const;

  /// Robustness radius of feature `index` at the compiled defaults (Eq. 1).
  [[nodiscard]] RadiusReport radiusOf(std::size_t index) const;


  /// True when the metric-only lane runs on the blocked kernels (the
  /// compiled solver resolves to Analytic for affine rows and no
  /// constraint clips the search). Constrained specs take the screened
  /// lane (see evaluateMetric); iterative solver configurations fall back
  /// to the full evaluate() arithmetic.
  [[nodiscard]] bool metricKernelLane() const noexcept { return fastSolver_; }

  /// The metric-only lane: computes rho and its argmin feature without
  /// materializing per-row boundary points or report strings. Affine rows
  /// run on the blocked SIMD kernels (robust/numeric/simd.hpp), so the
  /// result is deterministic across runs, thread counts, and dispatch
  /// targets, and is within 1e-12 relative of evaluate() (same argmin).
  ///
  /// With `prune` (the default), once an incumbent min radius rho-hat is
  /// held, a row whose bound |f(origin) - nearest level| / dualNorm
  /// provably exceeds rho-hat (by kPruneMargin of robust/core/row_radius.hpp,
  /// which absorbs the comparison rounding) is skipped: pruning never
  /// changes the returned bits, only skips provable losers. `prune = false`
  /// exists to pin that equality in tests.
  ///
  /// Constrained specs return evaluate()'s metric, binding feature and
  /// floor bit for bit, but solve only the rows that can bind: each row's
  /// unconstrained radius from the kernel dots is a lower bound on its
  /// constrained radius (a constraint can only raise it), so rows are
  /// solved in ascending bound and the rest skipped once a bound exceeds
  /// the incumbent by the prune margin.
  MetricResult evaluateMetric(const AnalysisInstance& instance,
                              MetricWorkspace& workspace,
                              bool prune = true) const;

  /// Convenience: metric lane with a throwaway workspace.
  [[nodiscard]] MetricResult evaluateMetric(
      const AnalysisInstance& instance) const;

  /// Convenience: metric lane at the compiled defaults (cached per-row
  /// origin dots make this O(rows) with no kernel pass).
  [[nodiscard]] MetricResult evaluateMetric() const;

  /// Metric lane over a batch, cache-blocked over (instances x rows):
  /// instances are processed in small tiles and the weight matrix is
  /// streamed in row chunks across each tile, so a stripe of rows stays
  /// cached while every instance in the tile consumes it. Work is divided
  /// into one contiguous block per worker (threads = 0 means
  /// defaultThreadCount()), each with a dedicated workspace: results are
  /// bit-identical for every thread count.
  void analyzeBatchMetric(std::span<const AnalysisInstance> instances,
                          std::span<MetricResult> out,
                          std::size_t threads = 0, bool prune = true) const;

  /// One worker's analyzeBatchMetric on a caller-owned workspace: serial,
  /// the same cache-blocked walk and result bits (a stream shard is one
  /// such call). On the kernel lane a warm workspace makes this
  /// allocation-free.
  void analyzeBatchMetric(std::span<const AnalysisInstance> instances,
                          std::span<MetricResult> out,
                          MetricWorkspace& workspace, bool prune = true) const;

  /// analyzeBatchMetric into a freshly allocated result vector.
  [[nodiscard]] std::vector<MetricResult> analyzeBatchMetric(
      std::span<const AnalysisInstance> instances, std::size_t threads = 0,
      bool prune = true) const;

 private:
  CompiledProblem() = default;

  // The streaming driver (src/core/stream.cpp) applies the metric lane's
  // row rule (robust/core/row_radius.hpp) to shards it pulls off disk,
  // and screens rows with the compiled default-origin dots; it needs the
  // packed internals, not a widened public surface.
  friend class StreamEngine;
  // The degradation-curve engine (src/curve/curve.cpp) derives per-sample
  // closed-form violation radii from the packed rows and the
  // compile-cached default-origin dots; the drift tracker
  // (src/curve/drift.cpp) maintains those dots incrementally under
  // perturbation-side deltas. Same rationale as StreamEngine: packed
  // internals, not a widened public surface.
  friend class robust::curve::CurveEngine;
  friend class robust::curve::DriftTracker;

  /// One feature's radius report. An affine row scaled by `scale` != 1 is
  /// built once in the workspace; every lane below reads the row `w` it is
  /// handed (empty for a callable feature).
  void radiusOfInto(std::size_t index, std::span<const double> origin,
                    double constant, double scale, RadiusReport& out,
                    EvalWorkspace& workspace) const;
  void radiusSlowPath(std::size_t index, std::span<const double> w,
                      std::span<const double> origin, double constant,
                      double scale, SolverKind solver,
                      RadiusReport& out) const;

  /// Analytic radius of one affine feature under the multi-subspace
  /// combined norm (max of per-block norms): effective dual = sum of
  /// per-block duals, boundary point assembled block by block.
  void radiusOfMulti(std::size_t index, std::span<const double> w,
                     std::span<const double> origin, double constant,
                     double scale, RadiusReport& out) const;

  /// Feasibility clip: replaces `out` (the unconstrained analytic radius of
  /// feature `index`, row `w`, at `origin`) with the constrained radius
  /// when the unconstrained boundary point violates a compiled constraint.
  /// Single (weighted-)L2 subspace -> Dykstra projection; multiple
  /// subspaces -> bisection on the radius with a POCS membership oracle.
  void clipToFeasible(std::size_t index, std::span<const double> w,
                      std::span<const double> origin, double constant,
                      double scale, RadiusReport& out) const;

  /// Fills `report` for an operating point that violates a constraint:
  /// metric 0, infeasibleOrigin set, every radius zeroed.
  void reportInfeasibleOrigin(std::span<const double> origin,
                              RobustnessReport& report) const;

  /// Validates an instance's origin/constants/scales sizes and resolves the
  /// effective origin (shared by the full and metric lanes).
  [[nodiscard]] std::span<const double> resolveOrigin(
      const AnalysisInstance& instance) const;

  /// Number of packed affine rows.
  [[nodiscard]] std::size_t rowCount() const noexcept {
    return dim_ == 0 ? 0 : weights_.size() / dim_;
  }

  /// The metric-lane core: per-feature radii from precomputed row dots
  /// (dots[r] = row_r . origin), incumbent pruning, discrete floor, obs.
  MetricResult metricFromDots(const AnalysisInstance& instance,
                              std::span<const double> origin,
                              const double* dots, bool prune,
                              MetricWorkspace& workspace) const;

  /// The constrained metric lane at a feasible origin: rows solved by
  /// radiusOfInto in ascending order of a rounding-safe lower bound on
  /// their radius, stopping once the bound exceeds the incumbent.
  MetricResult screenedConstrainedMetric(const AnalysisInstance& instance,
                                         std::span<const double> origin,
                                         const double* dots, bool prune,
                                         MetricWorkspace& workspace) const;

  /// One worker's serial slice of analyzeBatchMetric: the cache-blocked
  /// (instances x rows) tile walk over instances [lo, hi) into the same
  /// output slots, reusing a caller-owned workspace. The batch entry
  /// points and the streaming driver's shard scans share this so a shard
  /// is exactly one block — zero steady-state allocation with an arena
  /// workspace, and bit-identical results by construction.
  void metricBlock(std::span<const AnalysisInstance> instances,
                   std::span<MetricResult> out, std::size_t lo,
                   std::size_t hi, MetricWorkspace& workspace,
                   bool prune) const;

  /// True when every feature is an analytic affine row over one
  /// continuous subspace (fastSolver_ already excludes constraints): each
  /// row's radius along any ray has a closed form. The curve fast lane and
  /// the drift tracker run exactly on these problems.
  [[nodiscard]] bool closedFormLane() const noexcept {
    return fastSolver_ && !multi_ && callables_.empty() &&
           !parameter_.discrete;
  }

  [[nodiscard]] std::span<const double> rowOf(std::size_t feature) const {
    return {weights_.data() + rowIndex_[feature] * dim_, dim_};
  }

  std::vector<PerformanceFeature> features_;  ///< retained for introspection
  PerturbationParameter parameter_;
  AnalyzerOptions options_;

  std::size_t dim_ = 0;
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);
  std::vector<std::size_t> rowIndex_;  ///< affine row per feature, kNoRow
                                       ///< for the callable lane
  std::vector<double> weights_;        ///< row-major [affine rows x dim_]
  std::vector<double> constants_;      ///< per feature (0 for callables)
  /// Per affine row, the dual norm under each NormKind (indexed by the enum
  /// value; the Weighted entry is NaN without compiled norm weights).
  std::vector<double> dualNorms_[4];
  /// Per affine row, sum(a_i^2 / w_i) (the weighted dual norm before the
  /// sqrt) when norm weights are compiled in, NaN otherwise. Hoists the
  /// per-evaluate recomputation out of the weighted boundary-point solve.
  std::vector<double> weightedDenom_;
  /// Per affine row, row . defaultOrigin computed once with the blocked
  /// kernels: the metric lane at the compiled defaults needs no dot pass.
  std::vector<double> dotOrigin_;
  /// Per affine row, sum(|a_k * origin_k|) at the compiled default
  /// origin: the magnitude scale the streaming screen uses to bound the
  /// rounding of a kernel dot product when deciding that a row provably
  /// cannot bind.
  std::vector<double> absDotOrigin_;
  /// True when the compiled solver resolves to Analytic for affine rows
  /// AND no constraints clip the radius search, i.e. the metric lane may
  /// use the kernel fast path.
  bool fastSolver_ = false;
  std::vector<std::size_t> callables_;  ///< feature indices, input order

  /// Perturbation subspaces, normalized (never empty) and their component
  /// offsets (subOffsets_[s] .. subOffsets_[s + 1] is block s;
  /// subOffsets_.back() == dim_).
  std::vector<PerturbationSubspace> subspaces_;
  std::vector<std::size_t> subOffsets_;
  bool multi_ = false;  ///< more than one subspace
  /// Per affine row, the dual of the COMBINED norm: the sum over blocks of
  /// the block-restricted dual norm. With a single subspace this is the
  /// same dualNorm() call that fills dualNorms_, so the trivial case is
  /// bit-identical to the legacy engine.
  std::vector<double> effDual_;
  /// Per affine row x subspace, the block-restricted dual norm (row-major,
  /// rows x subspaces); sized only for multi-subspace problems.
  std::vector<double> blockDuals_;
  std::vector<LinearConstraint> constraints_;
};

}  // namespace robust::core

#include "robust/core/compiled.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "robust/core/row_radius.hpp"
#include "robust/numeric/projection.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"
#include "robust/util/error.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dual norm of the hyperplane normal for the closed-form distance
/// |a.x0 - c| / ||a||_dual (dual of L2 is L2, of L1 is LInf, of LInf is L1;
/// the dual of the w-weighted Euclidean norm is the 1/w-weighted one).
double dualNorm(std::span<const double> a, NormKind norm,
                std::span<const double> weights) {
  switch (norm) {
    case NormKind::L1:
      return num::normInf(a);
    case NormKind::L2:
      return num::norm2(a);
    case NormKind::LInf:
      return num::norm1(a);
    case NormKind::Weighted: {
      double s = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        s += a[i] * a[i] / weights[i];
      }
      return std::sqrt(s);
    }
  }
  return 0.0;  // unreachable
}

/// Adds to `out` (which already holds the origin) the minimal-norm
/// displacement d with a . d = gap under `norm`: the nearest point of the
/// hyperplane {x : a . x = a . x0 + gap} (Fig. 1's pi*). A single-subspace
/// boundary point applies it over the whole vector, a multi-subspace one
/// block by block with each block's share of the gap. `weightedDenom`, when
/// positive, must equal sum(a_i^2 / w_i); the recomputation it replaces
/// accumulates in the identical order, so the hint changes no bit.
void addBlockDisplacement(std::span<const double> a, double gap,
                          NormKind norm, std::span<const double> weights,
                          std::span<double> out, double weightedDenom = 0.0) {
  switch (norm) {
    case NormKind::L2: {
      const double n2 = num::dot(a, a);
      const double t = gap / n2;
      for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] += t * a[i];
      }
      break;
    }
    case NormKind::L1: {
      // Move only the coordinate with the largest |a_k|.
      std::size_t k = 0;
      for (std::size_t i = 1; i < a.size(); ++i) {
        if (std::fabs(a[i]) > std::fabs(a[k])) {
          k = i;
        }
      }
      out[k] += gap / a[k];
      break;
    }
    case NormKind::LInf: {
      // Move every coordinate by the same magnitude, signed with a_i.
      const double t = gap / num::norm1(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] += (a[i] > 0.0 ? 1.0 : (a[i] < 0.0 ? -1.0 : 0.0)) * t;
      }
      break;
    }
    case NormKind::Weighted: {
      // Lagrange: d_i = nu * a_i / w_i with nu = gap / sum(a_i^2 / w_i).
      double denom = weightedDenom;
      if (denom <= 0.0) {
        denom = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i) {
          denom += a[i] * a[i] / weights[i];
        }
      }
      const double nu = gap / denom;
      for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] += nu * a[i] / weights[i];
      }
      break;
    }
  }
}

/// True when a constraint value `v` exceeds its `bound` beyond the
/// feasibility slack every feasibility test shares.
bool breaksConstraint(double v, double bound) {
  return v > bound + 1e-12 * (1.0 + std::fabs(bound));
}

const std::string kInfeasibleOrigin = "infeasible-origin";

/// Interned solver-method labels ("analytic-l2", ...), so evaluation never
/// concatenates strings.
const std::string& analyticMethodName(NormKind norm) {
  static const std::string names[4] = {"analytic-l1", "analytic-l2",
                                       "analytic-linf", "analytic-weighted"};
  return names[static_cast<std::size_t>(norm)];
}

const std::string kViolatedAtOrigin = "violated-at-origin";

/// A row already violated at the operating point: zero robustness, the
/// origin itself is the boundary point.
void fillViolatedAtOrigin(std::span<const double> origin, double atOrigin,
                          RadiusReport& out) {
  out.radius = 0.0;
  out.boundaryPoint.assign(origin.begin(), origin.end());
  out.boundaryLevel = atOrigin;
  out.boundReachable = true;
  out.method = kViolatedAtOrigin;
}

/// A row whose bound no admissible perturbation reaches.
void fillUnreachable(std::string_view method, RadiusReport& out) {
  out.radius = kInf;
  out.boundaryPoint.clear();
  out.boundaryLevel = 0.0;
  out.boundReachable = false;
  out.method = method;
}

/// The report shell of every analytic row: the at-origin violation check,
/// then Eq. 6 per present bound with `denom`, the row's dual norm under
/// the lane's norm, and the binding bound chosen by the legacy analyzer's
/// strict <. Returns false once `out` is complete (violated at the origin,
/// or no bound). Otherwise fills the radius, level and method, sets the
/// boundary point to the origin and returns true with `gap` = the signed
/// a . d the caller's displacement must reach.
bool bindAffineRow(const AffineFeatureView& row, double dotOrigin,
                   double denom, std::span<const double> origin,
                   const std::string& method, RadiusReport& out,
                   double& gap) {
  const double atOrigin = dotOrigin + row.constant;
  const bool withinMin = !row.boundMin || atOrigin >= *row.boundMin;
  const bool withinMax = !row.boundMax || atOrigin <= *row.boundMax;
  if (!withinMin || !withinMax) {
    fillViolatedAtOrigin(origin, atOrigin, out);
    return false;
  }
  ROBUST_REQUIRE(denom > 0.0,
                 "analytic radius: impact does not depend on the parameter");

  double bestRadius = kInf;
  double bestLevel = 0.0;
  bool haveBest = false;
  for (const auto& level : {row.boundMin, row.boundMax}) {
    if (!level) {
      continue;
    }
    const double radius =
        std::fabs(dotOrigin - (*level - row.constant)) / denom;
    if (radius < bestRadius) {
      bestRadius = radius;
      bestLevel = *level;
      haveBest = true;
    }
  }
  if (!haveBest) {
    fillUnreachable({}, out);
    return false;
  }
  out.radius = bestRadius;
  out.boundaryLevel = bestLevel;
  out.boundReachable = true;
  out.method = method;
  out.boundaryPoint.assign(origin.begin(), origin.end());
  gap = (bestLevel - row.constant) - dotOrigin;
  return true;
}

/// The iterative radius path for one callable (or explicitly KKT-solved)
/// feature and one boundary level: KKT-Newton with its ray-search
/// cross-check. Kept verbatim from the pre-compiled analyzer so reports
/// stay bit-identical. Affine rows under the Analytic solver never get
/// here, so an Analytic request on this path names a callable feature.
RadiusReport radiusAgainstLevelIterative(const ImpactFunction& impact,
                                         const std::string& name,
                                         double level,
                                         std::span<const double> origin,
                                         SolverKind solver,
                                         const AnalyzerOptions& options) {
  ROBUST_REQUIRE(solver != SolverKind::Analytic,
                 "analytic radius requires an affine impact function");
  RadiusReport report;
  report.feature = name;
  report.boundaryLevel = level;

  ROBUST_REQUIRE(options.norm == NormKind::L2,
                 "iterative radius solvers support the l2 norm only");
  num::NearestPointProblem problem;
  problem.g = impact.field();
  problem.gradient = impact.gradientField();
  problem.level = level;
  problem.origin.assign(origin.begin(), origin.end());
  try {
    num::NearestPointResult solved =
        num::solveNearestPoint(problem, options.solverOptions);
    report.radius = solved.distance;
    report.boundaryPoint = std::move(solved.point);
    report.method = std::move(solved.method);
  } catch (const ConvergenceError&) {
    report.radius = kInf;
    report.boundReachable = false;
    report.method = "unreachable";
  }
  return report;
}

}  // namespace

void evaluateAffineRadius(const AffineFeatureView& feature,
                          std::span<const double> origin,
                          const AnalyzerOptions& options,
                          std::string_view name, RadiusReport& out,
                          double dualNormHint, double weightedDenomHint) {
  out.feature.assign(name.data(), name.size());
  const double denom =
      dualNormHint > 0.0
          ? dualNormHint
          : dualNorm(feature.weights, options.norm, options.normWeights);
  double gap = 0.0;
  if (bindAffineRow(feature, num::dot(feature.weights, origin), denom, origin,
                    analyticMethodName(options.norm), out, gap)) {
    addBlockDisplacement(feature.weights, gap, options.norm,
                         options.normWeights, out.boundaryPoint,
                         weightedDenomHint);
  }
}

CompiledProblem CompiledProblem::compile(ProblemSpec spec) {
  CompiledProblem p;
  p.features_ = std::move(spec.features);
  p.options_ = std::move(spec.options);

  ROBUST_REQUIRE(!p.features_.empty(),
                 "CompiledProblem: at least one feature required");

  // Normalize the perturbation space to the subspace table. A legacy spec
  // (parameter + options.norm) becomes the single equivalent subspace; an
  // explicit subspace list is authoritative and the legacy parameter view
  // is derived from it (concatenated origin, discrete iff every block is).
  if (spec.subspaces.empty()) {
    p.parameter_ = std::move(spec.parameter);
    ROBUST_REQUIRE(!p.parameter_.origin.empty(),
                   "CompiledProblem: empty perturbation origin");
    PerturbationSubspace sub;
    sub.name = p.parameter_.name;
    sub.origin = p.parameter_.origin;
    sub.norm = static_cast<int>(p.options_.norm);
    sub.normWeights = p.options_.normWeights;
    sub.discrete = p.parameter_.discrete;
    sub.units = p.parameter_.units;
    p.subspaces_.push_back(std::move(sub));
  } else {
    p.subspaces_ = std::move(spec.subspaces);
    num::Vec origin;
    bool allDiscrete = true;
    std::string name;
    for (const PerturbationSubspace& sub : p.subspaces_) {
      ROBUST_REQUIRE(!sub.origin.empty(),
                     "CompiledProblem: subspace '" + sub.name +
                         "' has an empty origin");
      origin.insert(origin.end(), sub.origin.begin(), sub.origin.end());
      allDiscrete = allDiscrete && sub.discrete;
      if (!name.empty()) {
        name += " + ";
      }
      name += sub.name;
    }
    p.parameter_.name = std::move(name);
    p.parameter_.origin = std::move(origin);
    p.parameter_.discrete = allDiscrete;
    p.parameter_.units =
        p.subspaces_.size() == 1 ? p.subspaces_[0].units : std::string{};
    if (p.subspaces_.size() == 1) {
      // A single explicit subspace IS the legacy formulation: route it
      // through the identical options-driven arithmetic.
      p.options_.norm = static_cast<NormKind>(p.subspaces_[0].norm);
      p.options_.normWeights = p.subspaces_[0].normWeights;
    }
  }
  p.multi_ = p.subspaces_.size() > 1;
  p.dim_ = p.parameter_.origin.size();

  p.subOffsets_.resize(p.subspaces_.size() + 1);
  p.subOffsets_[0] = 0;
  for (std::size_t s = 0; s < p.subspaces_.size(); ++s) {
    const PerturbationSubspace& sub = p.subspaces_[s];
    ROBUST_REQUIRE(sub.norm >= 0 && sub.norm <= 3,
                   "CompiledProblem: subspace '" + sub.name +
                       "' has an invalid norm kind");
    if (static_cast<NormKind>(sub.norm) == NormKind::Weighted) {
      ROBUST_REQUIRE(sub.normWeights.size() == sub.origin.size(),
                     "CompiledProblem: weighted subspace '" + sub.name +
                         "' requires one weight per component");
      for (double w : sub.normWeights) {
        ROBUST_REQUIRE(w > 0.0,
                       "CompiledProblem: norm weights must be positive");
      }
    }
    p.subOffsets_[s + 1] = p.subOffsets_[s] + sub.origin.size();
  }
  if (!p.multi_ && p.options_.norm == NormKind::Weighted) {
    ROBUST_REQUIRE(p.options_.normWeights.size() == p.dim_,
                   "CompiledProblem: weighted norm requires one weight "
                   "per perturbation component");
    for (double w : p.options_.normWeights) {
      ROBUST_REQUIRE(w > 0.0,
                     "CompiledProblem: norm weights must be positive");
    }
  }

  const std::size_t n = p.features_.size();
  p.rowIndex_.assign(n, kNoRow);
  p.constants_.assign(n, 0.0);
  std::size_t rows = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& f = p.features_[i];
    const auto dim = f.impact.dimension();
    ROBUST_REQUIRE(!dim || *dim == p.dim_,
                   "CompiledProblem: impact dimension of '" + f.name +
                       "' does not match the perturbation parameter");
    ROBUST_REQUIRE(f.bounds.min || f.bounds.max,
                   "CompiledProblem: feature '" + f.name +
                       "' has no tolerable-variation bound");
    if (f.impact.isAffine()) {
      p.rowIndex_[i] = rows++;
      p.constants_[i] = f.impact.constant();
    } else {
      p.callables_.push_back(i);
    }
  }

  // Pack the affine lane: one dense row-major matrix plus, per row, the
  // dual norm under every NormKind (the Weighted entry needs compiled norm
  // weights of the right size; otherwise it is NaN).
  p.weights_.resize(rows * p.dim_);
  for (int k = 0; k < 4; ++k) {
    p.dualNorms_[k].assign(rows, std::numeric_limits<double>::quiet_NaN());
  }
  p.weightedDenom_.assign(rows, std::numeric_limits<double>::quiet_NaN());
  p.absDotOrigin_.assign(rows, 0.0);
  const bool haveWeighted = p.options_.normWeights.size() == p.dim_;
  for (std::size_t i = 0; i < n; ++i) {
    if (p.rowIndex_[i] == kNoRow) {
      continue;
    }
    const num::Vec& w = p.features_[i].impact.weights();
    std::copy(w.begin(), w.end(),
              p.weights_.begin() +
                  static_cast<std::ptrdiff_t>(p.rowIndex_[i] * p.dim_));
    const std::span<const double> row = p.rowOf(i);
    const std::size_t r = p.rowIndex_[i];
    p.dualNorms_[static_cast<int>(NormKind::L1)][r] =
        dualNorm(row, NormKind::L1, {});
    p.dualNorms_[static_cast<int>(NormKind::L2)][r] =
        dualNorm(row, NormKind::L2, {});
    p.dualNorms_[static_cast<int>(NormKind::LInf)][r] =
        dualNorm(row, NormKind::LInf, {});
    // Magnitude scale for the streaming screen's rounding bound: the
    // absolute-value dot at the default origin majorizes every partial
    // sum the kernel dot of a nearby instance can form.
    double absDot = 0.0;
    for (std::size_t k = 0; k < p.dim_; ++k) {
      absDot += std::fabs(row[k] * p.parameter_.origin[k]);
    }
    p.absDotOrigin_[r] = absDot;
    if (haveWeighted) {
      p.dualNorms_[static_cast<int>(NormKind::Weighted)][r] =
          dualNorm(row, NormKind::Weighted, p.options_.normWeights);
      // The un-sqrted dual norm, accumulated in the exact order the
      // per-evaluate recomputation used: passing it as a hint later
      // changes no bits.
      double s = 0.0;
      for (std::size_t k = 0; k < p.dim_; ++k) {
        s += row[k] * row[k] / p.options_.normWeights[k];
      }
      p.weightedDenom_[r] = s;
    }
  }

  // Effective dual of the COMBINED displacement norm (max over subspaces
  // of the block norm): the sum over blocks of the block-restricted dual.
  // With one subspace this is the very dualNorm() call that filled
  // dualNorms_, so the legacy lane's bits are reused unchanged.
  const std::size_t nSub = p.subspaces_.size();
  if (!p.multi_) {
    p.effDual_ = p.dualNorms_[static_cast<int>(p.options_.norm)];
  } else {
    p.blockDuals_.assign(rows * nSub, 0.0);
    p.effDual_.assign(rows, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = p.rowIndex_[i];
      if (r == kNoRow) {
        continue;
      }
      const std::span<const double> row = p.rowOf(i);
      double sum = 0.0;
      for (std::size_t s = 0; s < nSub; ++s) {
        const PerturbationSubspace& sub = p.subspaces_[s];
        const double d = dualNorm(
            row.subspan(p.subOffsets_[s], sub.origin.size()),
            static_cast<NormKind>(sub.norm), sub.normWeights);
        p.blockDuals_[r * nSub + s] = d;
        sum += d;
      }
      p.effDual_[r] = sum;
    }
  }

  const bool analyticConfig = p.options_.solver == SolverKind::Auto ||
                              p.options_.solver == SolverKind::Analytic;
  if (p.multi_) {
    // The iterative solver measures plain L2 distance; under the combined
    // block norm only the analytic affine lane is defined.
    ROBUST_REQUIRE(p.callables_.empty(),
                   "CompiledProblem: multiple subspaces require affine "
                   "features");
    ROBUST_REQUIRE(analyticConfig,
                   "CompiledProblem: multiple subspaces require the "
                   "Auto/Analytic solver");
  }

  p.constraints_ = std::move(spec.constraints);
  for (const LinearConstraint& c : p.constraints_) {
    ROBUST_REQUIRE(c.coeffs.size() == p.dim_,
                   "CompiledProblem: constraint '" + c.name +
                       "' dimension does not match the perturbation space");
    ROBUST_REQUIRE(num::norm2(c.coeffs) > 0.0,
                   "CompiledProblem: constraint '" + c.name +
                       "' has a zero coefficient row");
  }
  if (!p.constraints_.empty()) {
    ROBUST_REQUIRE(p.callables_.empty(),
                   "CompiledProblem: constraints require affine features");
    ROBUST_REQUIRE(analyticConfig,
                   "CompiledProblem: constraints require the Auto/Analytic "
                   "solver");
    for (const PerturbationSubspace& sub : p.subspaces_) {
      const auto kind = static_cast<NormKind>(sub.norm);
      ROBUST_REQUIRE(kind == NormKind::L2 || kind == NormKind::Weighted,
                     "CompiledProblem: constraints require Euclidean "
                     "(L2/Weighted) subspace norms");
    }
  }

  // The metric lane's kernel fast path applies when affine rows resolve to
  // the analytic solver AND no feasibility region clips the radius search;
  // cache their default-origin dots (blocked kernel order — the lane's own
  // arithmetic, not the legacy element order).
  p.fastSolver_ = analyticConfig && p.constraints_.empty();
  p.dotOrigin_.resize(rows);
  num::simd::dotRowsBlocked(p.weights_.data(), rows, p.parameter_.origin,
                            p.dotOrigin_.data());
  return p;
}


void CompiledProblem::radiusOfInto(std::size_t index,
                                   std::span<const double> origin,
                                   double constant, double scale,
                                   RadiusReport& out,
                                   EvalWorkspace& workspace) const {
  const PerformanceFeature& f = features_[index];
  const std::size_t row = rowIndex_[index];
  const bool affine = row != kNoRow;
  // Every lane below reads the instance's row s * a through this span.
  std::span<const double> w;
  if (affine) {
    w = rowOf(index);
    if (scale != 1.0) {
      ROBUST_REQUIRE(scale > 0.0,
                     "CompiledProblem: instance scales must be positive");
      workspace.scaledRow_.resize(dim_);
      for (std::size_t k = 0; k < dim_; ++k) {
        workspace.scaledRow_[k] = w[k] * scale;
      }
      w = workspace.scaledRow_;
    }
  }

  SolverKind solver = options_.solver;
  if (solver == SolverKind::Auto) {
    solver = affine ? SolverKind::Analytic : SolverKind::KktNewton;
  }

  if (affine && solver == SolverKind::Analytic) {
    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kAnalytic =
          obs::counterId("core.radius_analytic");
      obs::addCounter(kAnalytic);
    }
    if (multi_) {
      radiusOfMulti(index, w, origin, constant, scale, out);
    } else {
      // The compiled dual norm and weighted denominator belong to the
      // unscaled row; a scaled row recomputes both.
      const bool unscaled = scale == 1.0;
      evaluateAffineRadius(
          AffineFeatureView{w, constant, f.bounds.min, f.bounds.max}, origin,
          options_, f.name, out,
          unscaled ? dualNorms_[static_cast<int>(options_.norm)][row] : 0.0,
          unscaled && options_.norm == NormKind::Weighted
              ? weightedDenom_[row]
              : 0.0);
    }
    if (!constraints_.empty()) {
      clipToFeasible(index, w, origin, constant, scale, out);
    }
    return;
  }

  // Iterative lane (and explicit-analytic on a callable, which must keep
  // throwing exactly as the legacy analyzer did — but only after the
  // at-origin check).
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kSlow = obs::counterId("core.radius_slow");
    obs::addCounter(kSlow);
  }
  radiusSlowPath(index, w, origin, constant, scale, solver, out);
}

void CompiledProblem::radiusSlowPath(std::size_t index,
                                     std::span<const double> w,
                                     std::span<const double> origin,
                                     double constant, double scale,
                                     SolverKind solver,
                                     RadiusReport& out) const {
  const PerformanceFeature& f = features_[index];

  // Materialize the effective impact when the instance overrides the
  // compiled constants or scales (affine lane only).
  const ImpactFunction* impact = &f.impact;
  std::optional<ImpactFunction> materialized;
  if (!w.empty() && (scale != 1.0 || constant != constants_[index])) {
    materialized.emplace(
        ImpactFunction::affine(num::Vec(w.begin(), w.end()), constant));
    impact = &*materialized;
  }

  const double atOrigin = impact->evaluate(origin);
  if (!f.bounds.contains(atOrigin)) {
    out.feature = f.name;
    fillViolatedAtOrigin(origin, atOrigin, out);
    return;
  }

  RadiusReport best;
  best.feature = f.name;
  best.radius = kInf;
  best.boundReachable = false;
  for (const auto& level : {f.bounds.min, f.bounds.max}) {
    if (!level) {
      continue;
    }
    RadiusReport candidate = radiusAgainstLevelIterative(
        *impact, f.name, *level, origin, solver, options_);
    if (candidate.radius < best.radius) {
      best = std::move(candidate);
    }
  }
  out = std::move(best);
}

void CompiledProblem::radiusOfMulti(std::size_t index,
                                    std::span<const double> w,
                                    std::span<const double> origin,
                                    double constant, double scale,
                                    RadiusReport& out) const {
  const PerformanceFeature& f = features_[index];
  const std::size_t nSub = subspaces_.size();
  const double* rowDuals = blockDuals_.data() + rowIndex_[index] * nSub;
  // Dual norms are positively homogeneous: dual(s * a) = s * dual(a).
  double denom = 0.0;
  for (std::size_t s = 0; s < nSub; ++s) {
    denom += rowDuals[s] * scale;
  }

  out.feature = f.name;
  static const std::string kMulti = "analytic-multi";
  double gap = 0.0;
  if (!bindAffineRow(AffineFeatureView{w, constant, f.bounds.min,
                                       f.bounds.max},
                     num::dot(w, origin), denom, origin, kMulti, out, gap)) {
    return;
  }

  // Boundary point: the displacement that reaches the hyperplane with the
  // smallest combined (max-over-blocks) norm spreads the gap across blocks
  // proportionally to their dual norms — every contributing block then sits
  // at the same block-norm distance, the radius.
  for (std::size_t s = 0; s < nSub; ++s) {
    const double blockDual = rowDuals[s] * scale;
    if (!(blockDual > 0.0)) {
      continue;  // the row does not touch this block; it stays at origin
    }
    const PerturbationSubspace& sub = subspaces_[s];
    const std::size_t off = subOffsets_[s];
    const std::size_t len = sub.origin.size();
    addBlockDisplacement(w.subspan(off, len), gap * blockDual / denom,
                         static_cast<NormKind>(sub.norm), sub.normWeights,
                         std::span<double>(out.boundaryPoint).subspan(off,
                                                                      len));
  }
}

bool CompiledProblem::originFeasible(std::span<const double> origin) const {
  for (const LinearConstraint& c : constraints_) {
    if (breaksConstraint(num::dot(c.coeffs, origin), c.bound)) {
      return false;
    }
  }
  return true;
}

bool CompiledProblem::violates(std::span<const double> x) const {
  if (!constraints_.empty() && !originFeasible(x)) {
    return false;
  }
  for (const auto& f : features_) {
    if (!f.bounds.contains(f.impact.evaluate(x))) {
      return true;
    }
  }
  return false;
}

void CompiledProblem::setRayOrigin(std::span<const double> origin,
                                   RayForm& ray) const {
  ROBUST_REQUIRE(origin.size() == dim_,
                 "setRayOrigin: origin dimension mismatch");
  const std::size_t rows = rowCount();
  ray.origin_ = origin;
  ray.rowValue_.resize(rows);
  num::simd::dotRowsBlocked(weights_.data(), rows, origin,
                            ray.rowValue_.data());
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (rowIndex_[i] != kNoRow) {
      ray.rowValue_[rowIndex_[i]] += constants_[i];
    }
  }
  ray.constraintValue_.resize(constraints_.size());
  for (std::size_t j = 0; j < constraints_.size(); ++j) {
    ray.constraintValue_[j] = num::dot(constraints_[j].coeffs, origin);
  }
  ray.point_.resize(dim_);
}

void CompiledProblem::setRayDirection(std::span<const double> u,
                                      RayForm& ray) const {
  ROBUST_REQUIRE(u.size() == dim_ && ray.origin_.size() == dim_,
                 "setRayDirection: direction dimension mismatch or no "
                 "ray origin");
  const std::size_t rows = rowCount();
  ray.direction_ = u;
  ray.rowSlope_.resize(rows);
  num::simd::dotRowsBlocked(weights_.data(), rows, u, ray.rowSlope_.data());
  ray.constraintSlope_.resize(constraints_.size());
  ray.extent_ = kInf;
  for (std::size_t j = 0; j < constraints_.size(); ++j) {
    const double slope = num::dot(constraints_[j].coeffs, u);
    ray.constraintSlope_[j] = slope;
    if (slope > 0.0) {
      ray.extent_ = std::min(
          ray.extent_,
          (constraints_[j].bound - ray.constraintValue_[j]) / slope);
    }
  }
}

bool CompiledProblem::violatesOnRay(RayForm& ray, double r) const {
  for (std::size_t j = 0; j < constraints_.size(); ++j) {
    if (breaksConstraint(
            ray.constraintValue_[j] + r * ray.constraintSlope_[j],
            constraints_[j].bound)) {
      return false;
    }
  }
  bool pointReady = false;
  for (std::size_t i = 0; i < features_.size(); ++i) {
    const std::size_t row = rowIndex_[i];
    double value;
    if (row != kNoRow) {
      value = ray.rowValue_[row] + r * ray.rowSlope_[row];
    } else {
      if (!pointReady) {
        for (std::size_t k = 0; k < dim_; ++k) {
          ray.point_[k] = ray.origin_[k] + r * ray.direction_[k];
        }
        pointReady = true;
      }
      value = features_[i].impact.evaluate(ray.point_);
    }
    if (!features_[i].bounds.contains(value)) {
      return true;
    }
  }
  return false;
}

double CompiledProblem::displacementNorm(
    std::span<const double> displacement) const {
  ROBUST_REQUIRE(displacement.size() == dim_,
                 "displacementNorm: displacement dimension mismatch");
  double combined = 0.0;
  for (std::size_t s = 0; s < subspaces_.size(); ++s) {
    const std::size_t lo = subOffsets_[s];
    const std::span<const double> x =
        displacement.subspan(lo, subOffsets_[s + 1] - lo);
    double block = 0.0;
    switch (static_cast<NormKind>(subspaces_[s].norm)) {
      case NormKind::L1:
        block = num::simd::norm1Blocked(x);
        break;
      case NormKind::L2:
        block = num::simd::norm2Blocked(x);
        break;
      case NormKind::LInf:
        block = num::simd::normInfBlocked(x);
        break;
      case NormKind::Weighted: {
        // compile() gives every weighted block one weight per component.
        const std::vector<double>& w = subspaces_[s].normWeights;
        double acc = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
          acc += w[i] * x[i] * x[i];
        }
        block = std::sqrt(acc);
        break;
      }
    }
    combined = std::max(combined, block);
  }
  return combined;
}

void CompiledProblem::reportInfeasibleOrigin(std::span<const double> origin,
                                             RobustnessReport& report) const {
  const std::size_t n = features_.size();
  report.radii.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    RadiusReport& r = report.radii[i];
    r.feature = features_[i].name;
    r.radius = 0.0;
    r.boundaryPoint.assign(origin.begin(), origin.end());
    r.boundaryLevel = 0.0;
    r.boundReachable = true;
    r.method = kInfeasibleOrigin;
  }
  report.metric = 0.0;
  report.bindingFeature = 0;
  report.floored = false;
  report.infeasibleOrigin = true;
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kInfeasible =
        obs::counterId("core.feasibility.infeasible_origin");
    obs::addCounter(kInfeasible);
  }
}

void CompiledProblem::clipToFeasible(std::size_t index,
                                     std::span<const double> w,
                                     std::span<const double> origin,
                                     double constant, double scale,
                                     RadiusReport& out) const {
  if (out.radius == 0.0 || !out.boundReachable) {
    return;  // violated at origin / no boundary: nothing to clip
  }
  bool pointFeasible = true;
  for (const LinearConstraint& c : constraints_) {
    const double v = num::dot(c.coeffs, out.boundaryPoint);
    if (v > c.bound + 1e-9 * (1.0 + std::fabs(c.bound))) {
      pointFeasible = false;
      break;
    }
  }
  if (pointFeasible) {
    return;  // the unconstrained nearest violation is admissible as-is
  }
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kClipped =
        obs::counterId("core.feasibility.clipped");
    obs::addCounter(kClipped);
  }

  const PerformanceFeature& f = features_[index];

  // Rescale coordinates so every (L2/Weighted) subspace norm becomes plain
  // L2: x~_k = t_k x_k with t_k = sqrt(w_k). Halfspace normals transform
  // contravariantly (n~_k = n_k / t_k); block balls become Euclidean.
  const std::size_t nSub = subspaces_.size();
  num::Vec t(dim_, 1.0);
  for (std::size_t s = 0; s < nSub; ++s) {
    const PerturbationSubspace& sub = subspaces_[s];
    if (static_cast<NormKind>(sub.norm) == NormKind::Weighted) {
      for (std::size_t i = 0; i < sub.origin.size(); ++i) {
        t[subOffsets_[s] + i] = std::sqrt(sub.normWeights[i]);
      }
    }
  }
  num::Vec tx0(dim_);
  for (std::size_t k = 0; k < dim_; ++k) {
    tx0[k] = origin[k] * t[k];
  }
  std::vector<num::Halfspace> sets(1 + constraints_.size());
  for (std::size_t j = 0; j < constraints_.size(); ++j) {
    num::Halfspace& h = sets[1 + j];
    h.normal.resize(dim_);
    for (std::size_t k = 0; k < dim_; ++k) {
      h.normal[k] = constraints_[j].coeffs[k] / t[k];
    }
    h.offset = constraints_[j].bound;
    h.geq = false;
  }
  num::Vec an(dim_);
  for (std::size_t k = 0; k < dim_; ++k) {
    an[k] = w[k] / t[k];
  }

  double bestRadius = kInf;
  double bestLevel = 0.0;
  num::Vec bestPoint;
  const std::string* method = nullptr;
  static const std::string kDykstra = "dykstra-clip";
  static const std::string kPocs = "pocs-bisect";
  static const std::string kInfeasibleRegion = "infeasible-region";

  const double dot0 = num::dot(w, origin);
  double effD = 0.0;
  if (multi_) {
    const double* blockDual =
        blockDuals_.data() + rowIndex_[index] * nSub;
    for (std::size_t s = 0; s < nSub; ++s) {
      effD += blockDual[s] * scale;
    }
  }

  auto untransform = [&](const num::Vec& p) {
    num::Vec x(dim_);
    for (std::size_t k = 0; k < dim_; ++k) {
      x[k] = p[k] / t[k];
    }
    return x;
  };

  auto solveBound = [&](double level, bool geq) {
    num::Halfspace& viol = sets[0];
    viol.normal = an;
    viol.offset = level - constant;
    viol.geq = geq;
    if (nSub == 1) {
      // One Euclidean subspace: the constrained nearest violation is the
      // exact Dykstra projection of the origin onto {violation halfspace}
      // intersected with the capacity polytope.
      const num::ProjectionResult res =
          num::projectOntoIntersection(sets, tx0);
      if (!res.converged) {
        return;  // empty intersection: this bound is unreachable
      }
      double sumSq = 0.0;
      for (std::size_t k = 0; k < dim_; ++k) {
        const double d = res.point[k] - tx0[k];
        sumSq += d * d;
      }
      const double dist = std::sqrt(sumSq);
      if (dist < bestRadius) {
        bestRadius = dist;
        bestLevel = level;
        bestPoint = untransform(res.point);
        method = &kDykstra;
      }
      return;
    }
    // Several subspaces: the combined norm (max over block L2 norms) is
    // not Euclidean, so bisect on the radius with a POCS membership
    // oracle over {halfspaces} + {per-block balls of radius r}.
    std::vector<num::BlockBall> balls(nSub);
    for (std::size_t s = 0; s < nSub; ++s) {
      balls[s].offset = subOffsets_[s];
      balls[s].center.assign(
          tx0.begin() + static_cast<std::ptrdiff_t>(subOffsets_[s]),
          tx0.begin() + static_cast<std::ptrdiff_t>(subOffsets_[s + 1]));
    }
    num::Vec pt;
    auto member = [&](double r) {
      for (num::BlockBall& b : balls) {
        b.radius = r;
      }
      num::ProjectionResult res = num::feasiblePoint(sets, balls, tx0);
      if (res.converged) {
        pt = std::move(res.point);
      }
      return res.converged;
    };
    double lo = std::fabs(dot0 - (level - constant)) / effD;
    double candidate;
    if (member(lo)) {
      candidate = lo;  // the unconstrained radius is already achievable
    } else {
      double hi = std::max(lo, 1e-6);
      bool found = false;
      for (int d = 0; d < 64 && !found; ++d) {
        hi *= 2.0;
        found = member(hi);
      }
      if (!found) {
        return;  // no feasible violation at any radius: unreachable
      }
      for (int it = 0; it < 100 && hi - lo > 1e-9 * std::max(1.0, hi);
           ++it) {
        const double mid = 0.5 * (lo + hi);
        if (member(mid)) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      candidate = hi;  // pt holds the POCS point of the last feasible r
    }
    if (candidate < bestRadius) {
      bestRadius = candidate;
      bestLevel = level;
      bestPoint = untransform(pt);
      method = &kPocs;
    }
  };
  if (f.bounds.min) {
    solveBound(*f.bounds.min, /*geq=*/false);
  }
  if (f.bounds.max) {
    solveBound(*f.bounds.max, /*geq=*/true);
  }

  if (method == nullptr) {
    fillUnreachable(kInfeasibleRegion, out);
    return;
  }
  out.radius = bestRadius;
  out.boundaryLevel = bestLevel;
  out.boundaryPoint = std::move(bestPoint);
  out.boundReachable = true;
  out.method = *method;
}

std::span<const double> CompiledProblem::resolveOrigin(
    const AnalysisInstance& instance) const {
  const std::span<const double> origin =
      instance.origin.empty() ? std::span<const double>(parameter_.origin)
                              : instance.origin;
  ROBUST_REQUIRE(origin.size() == dim_,
                 "CompiledProblem: instance origin size does not match the "
                 "perturbation dimension");
  const std::size_t n = features_.size();
  ROBUST_REQUIRE(instance.constants.empty() || instance.constants.size() == n,
                 "CompiledProblem: instance constants must have one entry "
                 "per feature");
  ROBUST_REQUIRE(instance.scales.empty() || instance.scales.size() == n,
                 "CompiledProblem: instance scales must have one entry per "
                 "feature");
  return origin;
}

const RobustnessReport& CompiledProblem::evaluate(
    const AnalysisInstance& instance, EvalWorkspace& workspace) const {
  const std::span<const double> origin = resolveOrigin(instance);
  const std::size_t n = features_.size();

  RobustnessReport& report = workspace.report_;
  if (!constraints_.empty() && !originFeasible(origin)) {
    // The operating point itself breaks a hard constraint: the mapping is
    // inadmissible, reported as a first-class outcome rather than radii.
    reportInfeasibleOrigin(origin, report);
    return report;
  }
  report.radii.resize(n);
  report.metric = kInf;
  report.bindingFeature = 0;
  report.floored = false;
  report.infeasibleOrigin = false;
  for (std::size_t i = 0; i < n; ++i) {
    const bool affine = rowIndex_[i] != kNoRow;
    const double constant =
        affine && !instance.constants.empty() ? instance.constants[i]
                                              : constants_[i];
    const double scale =
        affine && !instance.scales.empty() ? instance.scales[i] : 1.0;
    radiusOfInto(i, origin, constant, scale, report.radii[i], workspace);
    if (report.radii[i].radius < report.metric) {
      report.metric = report.radii[i].radius;
      report.bindingFeature = i;
    }
  }
  if (parameter_.discrete && std::isfinite(report.metric)) {
    // Section 3.2: a discrete parameter's metric should not be fractional.
    report.metric = std::floor(report.metric);
    report.floored = true;
  }
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kEvals = obs::counterId("core.evaluations");
    static const obs::MetricId kRows = obs::counterId("core.rows_evaluated");
    static const obs::MetricId kBinding = obs::gaugeId("core.binding_feature");
    obs::addCounter(kEvals);
    obs::addCounter(kRows, n);
    obs::setGauge(kBinding,
                  static_cast<std::int64_t>(report.bindingFeature));
  }
  return report;
}

RobustnessReport CompiledProblem::evaluate(
    const AnalysisInstance& instance) const {
  EvalWorkspace workspace;
  return evaluate(instance, workspace);
}

RobustnessReport CompiledProblem::evaluate() const {
  return evaluate(AnalysisInstance{});
}

RadiusReport CompiledProblem::radiusOf(std::size_t index) const {
  ROBUST_REQUIRE(index < features_.size(),
                 "CompiledProblem: feature index out of range");
  if (!constraints_.empty() && !originFeasible(parameter_.origin)) {
    RobustnessReport report;
    reportInfeasibleOrigin(parameter_.origin, report);
    return std::move(report.radii[index]);
  }
  EvalWorkspace workspace;
  RadiusReport out;
  radiusOfInto(index, parameter_.origin, constants_[index], 1.0, out,
               workspace);
  return out;
}


MetricResult CompiledProblem::metricFromDots(const AnalysisInstance& instance,
                                             std::span<const double> origin,
                                             const double* dots, bool prune,
                                             MetricWorkspace& workspace) const {
  const std::size_t n = features_.size();

  MetricResult result;
  result.metric = kInf;
  result.bindingFeature = 0;
  result.floored = false;
  std::size_t pruned = 0;
  std::size_t affineRows = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = rowIndex_[i];
    double radius;
    if (row == kNoRow) {
      // Callable lane: same per-feature fallback the full path runs.
      radiusOfInto(i, origin, constants_[i], 1.0, workspace.scratch_,
                   workspace.full_);
      radius = workspace.scratch_.radius;
    } else {
      ++affineRows;
      const double constant =
          !instance.constants.empty() ? instance.constants[i] : constants_[i];
      const double scale =
          !instance.scales.empty() ? instance.scales[i] : 1.0;
      double atOrigin;
      double deff;
      if (scale == 1.0) {
        atOrigin = dots[row] + constant;
        deff = effDual_[row];
      } else {
        ROBUST_REQUIRE(scale > 0.0,
                       "CompiledProblem: instance scales must be positive");
        // f(pi) = s*(w.pi) + c and ||s*w||_dual = s*||w||_dual: the lane
        // rescales the two scalars instead of the whole row.
        atOrigin = scale * dots[row] + constant;
        deff = scale * effDual_[row];
      }
      if (!affineRowRadius(atOrigin, deff, features_[i].bounds, radius,
                           prune ? result.metric : kInf)) {
        ++pruned;
        continue;
      }
    }
    if (radius < result.metric) {
      result.metric = radius;
      result.bindingFeature = i;
    }
  }
  if (parameter_.discrete && std::isfinite(result.metric)) {
    result.metric = std::floor(result.metric);
    result.floored = true;
  }
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kScalar =
        obs::counterId("core.kernel.dispatch.scalar");
    static const obs::MetricId kAvx2 =
        obs::counterId("core.kernel.dispatch.avx2");
    static const obs::MetricId kSkipped =
        obs::counterId("core.prune.rows_skipped");
    static const obs::MetricId kEffectiveness =
        obs::gaugeId("core.prune.effectiveness");
    obs::addCounter(num::simd::activeTarget() == num::simd::Target::Avx2
                        ? kAvx2
                        : kScalar);
    obs::addCounter(kSkipped, pruned);
    if (affineRows > 0) {
      obs::setGauge(kEffectiveness,
                    static_cast<std::int64_t>(pruned * 100 / affineRows));
    }
  }
  return result;
}

MetricResult CompiledProblem::screenedConstrainedMetric(
    const AnalysisInstance& instance, std::span<const double> origin,
    const double* dots, bool prune, MetricWorkspace& ws) const {
  // Constrained specs have no callable features: every feature is a row.
  const std::size_t n = features_.size();
  auto constantOf = [&](std::size_t i) {
    return instance.constants.empty() ? constants_[i] : instance.constants[i];
  };
  auto scaleOf = [&](std::size_t i) {
    return instance.scales.empty() ? 1.0 : instance.scales[i];
  };

  // Each row's unconstrained radius from the kernel dots is, up to
  // rounding, a lower bound on the radius radiusOfInto reports: a
  // constraint can only raise it. The bound subtracts that rounding so
  // it is rigorous. The kernel dot and evaluate()'s element-order dot
  // each err by at most (dim + 1) eps * sum_k |s a_k x_k|, which
  // s * ||a||_1 * ||x||_inf majorizes, and the constant and level add a
  // few roundings more. A Dykstra clip may land up to its residual
  // tolerance short of the true constrained distance.
  double xInf = 0.0;
  for (const double v : origin) {
    const double a = std::fabs(v);
    if (!(a <= xInf)) {
      xInf = a;  // NaN propagates into the slack, which zeroes the bound
    }
  }
  const double slackCoeff =
      4.0 * DBL_EPSILON * static_cast<double>(dim_ + 8);
  const double clipSlack = 2.0 * num::kProjectionTolerance;
  const std::vector<double>& norm1 =
      dualNorms_[static_cast<int>(NormKind::LInf)];

  ws.screenBounds_.resize(n);
  ws.screenOrder_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = rowIndex_[i];
    const double constant = constantOf(i);
    const double scale = scaleOf(i);
    double atOrigin = dots[row] + constant;
    double deff = effDual_[row];
    if (scale != 1.0) {
      ROBUST_REQUIRE(scale > 0.0,
                     "CompiledProblem: instance scales must be positive");
      atOrigin = scale * dots[row] + constant;
      deff = scale * effDual_[row];
    }
    // A row with deff not > 0 is always solved: radiusOfInto decides
    // between radius 0 and the constant-feature error.
    double bound = -kInf;
    if (deff > 0.0) {
      const ToleranceBounds& b = features_[i].bounds;
      double radius = 0.0;
      affineRowRadius(atOrigin, deff, b, radius);
      const double level = std::max(b.min ? std::fabs(*b.min) : 0.0,
                                    b.max ? std::fabs(*b.max) : 0.0);
      bound = radius -
              slackCoeff *
                  (scale * norm1[row] * xInf + std::fabs(constant) + level) /
                  deff -
              clipSlack;
      if (!(bound > 0.0)) {
        bound = 0.0;
      }
    }
    ws.screenBounds_[i] = bound;
    ws.screenOrder_[i] = i;
  }

  // Visit rows in ascending (bound, index) through a heap: only the rows
  // actually solved pay for their place in the order.
  const double* bounds = ws.screenBounds_.data();
  auto later = [bounds](std::size_t a, std::size_t b) {
    return bounds[a] > bounds[b] || (bounds[a] == bounds[b] && a > b);
  };
  auto first = ws.screenOrder_.begin();
  auto last = ws.screenOrder_.end();
  std::make_heap(first, last, later);
  MetricResult result;
  result.metric = kInf;
  result.bindingFeature = 0;
  result.floored = false;
  std::size_t solved = 0;
  while (first != last) {
    const std::size_t i = *first;
    if (prune && bounds[i] > result.metric * (1.0 + kPruneMargin)) {
      break;  // this and every later row provably exceed the incumbent
    }
    std::pop_heap(first, last, later);
    --last;
    radiusOfInto(i, origin, constantOf(i), scaleOf(i), ws.scratch_,
                 ws.full_);
    ++solved;
    // evaluate() keeps the lowest index among equal radii.
    const double radius = ws.scratch_.radius;
    if (radius < result.metric ||
        (radius == result.metric && i < result.bindingFeature)) {
      result.metric = radius;
      result.bindingFeature = i;
    }
  }
  if (parameter_.discrete && std::isfinite(result.metric)) {
    result.metric = std::floor(result.metric);
    result.floored = true;
  }
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kRows = obs::counterId("core.rows_evaluated");
    static const obs::MetricId kSkipped =
        obs::counterId("core.prune.rows_skipped");
    obs::addCounter(kRows, solved);
    obs::addCounter(kSkipped, n - solved);
  }
  return result;
}

MetricResult CompiledProblem::evaluateMetric(const AnalysisInstance& instance,
                                             MetricWorkspace& workspace,
                                             bool prune) const {
  const std::span<const double> origin = resolveOrigin(instance);
  if (!fastSolver_ && (constraints_.empty() || !originFeasible(origin))) {
    // Iterative solver configurations and infeasible operating points stay
    // on the full lane.
    const RobustnessReport& full = evaluate(instance, workspace.full_);
    return MetricResult{full.metric, full.bindingFeature, full.floored};
  }
  const std::size_t rows = rowCount();
  const double* dots;
  if (instance.origin.empty()) {
    dots = dotOrigin_.data();
  } else {
    workspace.dots_.resize(rows);
    num::simd::dotRowsBlocked(weights_.data(), rows, origin,
                              workspace.dots_.data());
    dots = workspace.dots_.data();
  }
  if (!fastSolver_) {
    return screenedConstrainedMetric(instance, origin, dots, prune,
                                     workspace);
  }
  return metricFromDots(instance, origin, dots, prune, workspace);
}

MetricResult CompiledProblem::evaluateMetric(
    const AnalysisInstance& instance) const {
  MetricWorkspace workspace;
  return evaluateMetric(instance, workspace);
}

MetricResult CompiledProblem::evaluateMetric() const {
  return evaluateMetric(AnalysisInstance{});
}

void CompiledProblem::metricBlock(std::span<const AnalysisInstance> instances,
                                  std::span<MetricResult> out, std::size_t lo,
                                  std::size_t hi, MetricWorkspace& ws,
                                  bool prune) const {
  // Tile geometry: a stripe of kRowChunk rows is consumed by every
  // instance of a kTile-wide tile before the next stripe streams in, so
  // the batch walks the weight matrix once per tile instead of once per
  // instance (cache blocking over instances x rows).
  constexpr std::size_t kTile = 8;
  constexpr std::size_t kRowChunk = 64;
  const std::size_t rows = rowCount();

  if (!fastSolver_) {
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = evaluateMetric(instances[i], ws, prune);
    }
    return;
  }
  for (std::size_t t0 = lo; t0 < hi; t0 += kTile) {
    const std::size_t t1 = std::min(hi, t0 + kTile);
    ws.batchDots_.resize((t1 - t0) * rows);
    for (std::size_t r0 = 0; r0 < rows; r0 += kRowChunk) {
      const std::size_t chunk = std::min(rows, r0 + kRowChunk) - r0;
      for (std::size_t i = t0; i < t1; ++i) {
        if (instances[i].origin.empty()) {
          continue;  // compiled default: dots cached at compile time
        }
        const std::span<const double> origin = resolveOrigin(instances[i]);
        num::simd::dotRowsBlocked(weights_.data() + r0 * dim_, chunk, origin,
                                  ws.batchDots_.data() + (i - t0) * rows +
                                      r0);
      }
    }
    for (std::size_t i = t0; i < t1; ++i) {
      const std::span<const double> origin = resolveOrigin(instances[i]);
      const double* dots = instances[i].origin.empty()
                               ? dotOrigin_.data()
                               : ws.batchDots_.data() + (i - t0) * rows;
      out[i] = metricFromDots(instances[i], origin, dots, prune, ws);
    }
  }
}

void CompiledProblem::analyzeBatchMetric(
    std::span<const AnalysisInstance> instances, std::span<MetricResult> out,
    std::size_t threads, bool prune) const {
  ROBUST_REQUIRE(out.size() == instances.size(),
                 "analyzeBatchMetric: output size does not match instance "
                 "count");
  const std::size_t n = instances.size();
  if (n == 0) {
    return;
  }
  const obs::Span span("core.analyzeBatchMetric");

  // One block and workspace per participant; output slots are disjoint, so
  // results are independent of the worker count.
  forEachBlock<MetricWorkspace>(
      n, threads,
      [&](std::size_t lo, std::size_t hi, MetricWorkspace& workspace) {
        metricBlock(instances, out, lo, hi, workspace, prune);
      });
}

void CompiledProblem::analyzeBatchMetric(
    std::span<const AnalysisInstance> instances, std::span<MetricResult> out,
    MetricWorkspace& workspace, bool prune) const {
  ROBUST_REQUIRE(out.size() == instances.size(),
                 "analyzeBatchMetric: output size does not match instance "
                 "count");
  metricBlock(instances, out, 0, instances.size(), workspace, prune);
}

std::vector<MetricResult> CompiledProblem::analyzeBatchMetric(
    std::span<const AnalysisInstance> instances, std::size_t threads,
    bool prune) const {
  std::vector<MetricResult> out(instances.size());
  analyzeBatchMetric(instances, out, threads, prune);
  return out;
}

}  // namespace robust::core

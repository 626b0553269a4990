#include "robust/hiperd/compiled_scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "robust/core/row_radius.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"
#include "robust/util/error.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::hiperd {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dual norm of a weight row under the compiled norm, on the blocked
/// kernels (the metric lane's arithmetic; the full lane keeps the legacy
/// element-order loops).
double blockedDual(std::span<const double> row,
                   const core::AnalyzerOptions& options) {
  switch (options.norm) {
    case core::NormKind::L1:
      return num::simd::normInfBlocked(row);
    case core::NormKind::L2:
      return num::simd::norm2Blocked(row);
    case core::NormKind::LInf:
      return num::simd::norm1Blocked(row);
    case core::NormKind::Weighted: {
      double s = 0.0;
      for (std::size_t i = 0; i < row.size(); ++i) {
        s += row[i] * row[i] / options.normWeights[i];
      }
      return std::sqrt(s);
    }
  }
  return 0.0;  // unreachable
}

bool allNonNegative(std::span<const double> v) {
  for (double x : v) {
    if (x < 0.0) {
      return false;
    }
  }
  return true;
}

/// T_i^c(lambda): `app`'s computation time on its machine under `mapping`,
/// scaled by its multitasking factor.
double appTime(const HiperdScenario& scenario, const sched::Mapping& mapping,
               std::span<const double> factors, std::size_t app,
               std::span<const double> lambda) {
  return factors[app] *
         scenario.compute[app][mapping.machineOf(app)].evaluate(lambda);
}

/// L_k(lambda): the path's computation times, then its communication times,
/// each in path order (Eq. 8).
double pathLatency(const HiperdScenario& scenario, const Path& path,
                   const sched::Mapping& mapping,
                   std::span<const double> factors,
                   std::span<const double> lambda) {
  double total = 0.0;
  for (std::size_t app : path.apps) {
    total += appTime(scenario, mapping, factors, app, lambda);
  }
  for (std::size_t eid : path.edges) {
    total += scenario.comm[eid].evaluate(lambda);
  }
  return total;
}
}  // namespace

CompiledScenario::CompiledScenario(const HiperdScenario& scenario,
                                   core::AnalyzerOptions options)
    : scenario_(&scenario), options_(std::move(options)) {
  validateScenario(scenario);
  const auto& graph = scenario.graph;
  sensors_ = graph.sensorCount();
  const std::size_t apps = graph.applicationCount();
  const std::size_t machines = scenario.machines;

  if (options_.norm == core::NormKind::Weighted) {
    ROBUST_REQUIRE(options_.normWeights.size() == sensors_,
                   "CompiledScenario: weighted norm requires one weight per "
                   "sensor load");
    for (double w : options_.normWeights) {
      ROBUST_REQUIRE(w > 0.0,
                     "CompiledScenario: norm weights must be positive");
    }
  }

  // 1/R(a_i): tightest throughput bound over the paths containing the app.
  // Applications on no path (possible only in degenerate graphs) carry no
  // throughput constraint: +inf.
  throughputBound_.assign(apps, 0.0);
  const std::vector<double> maxRate = graph.drivingRates();
  for (std::size_t i = 0; i < apps; ++i) {
    throughputBound_[i] = maxRate[i] > 0.0 ? 1.0 / maxRate[i] : kInf;
  }

  // The fast path needs every load function linear (any mapping then yields
  // an all-affine derivation) and the analytic solver.
  bool allLinear = true;
  computeZero_.assign(apps * machines, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t m = 0; m < machines; ++m) {
      const LoadFunction& fn = scenario.compute[i][m];
      allLinear &= fn.isLinear();
      computeZero_[i * machines + m] = fn.isZero() ? 1 : 0;
    }
  }
  commZero_.reserve(scenario.comm.size());
  for (const LoadFunction& fn : scenario.comm) {
    allLinear &= fn.isLinear();
    commZero_.push_back(fn.isZero() ? 1 : 0);
  }
  fast_ = allLinear && (options_.solver == core::SolverKind::Auto ||
                        options_.solver == core::SolverKind::Analytic);

  // Computation (Tc) lane: apps with a finite throughput bound, with their
  // interned names. Communication (Tn) lane: their non-zero transfers; it
  // is mapping-independent, so on the fast path the complete radius reports
  // are solved here, once.
  for (std::size_t i = 0; i < apps; ++i) {
    if (!std::isfinite(throughputBound_[i])) {
      continue;
    }
    tcApps_.push_back(i);
    tcNames_.push_back("Tc(" + graph.applicationName(i) + ")");
    for (std::size_t eid : graph.outEdgesOfApp(i)) {
      if (commZero_[eid]) {
        continue;
      }
      const Edge& e = graph.edge(eid);
      const std::string toName = e.to.kind == NodeKind::Application
                                     ? graph.applicationName(e.to.index)
                                     : graph.actuatorName(e.to.index);
      const Transfer& tn = tn_.emplace_back(Transfer{
          i, eid, "Tn(" + graph.applicationName(i) + "->" + toName + ")"});
      if (!fast_) {
        continue;
      }
      // toSpec's impact is fn.impact(1.0) = affine(scale(coeffs, 1.0));
      // scaling by 1.0 is exact, so the raw coefficients give the same bits.
      core::RadiusReport& report = tnReports_.emplace_back();
      core::evaluateAffineRadius(
          core::AffineFeatureView{scenario.comm[eid].coeffs(), 0.0,
                                  std::nullopt, throughputBound_[i]},
          scenario.lambdaOrig, options_, tn.name, report);
      if (report.radius < tnMinRadius_) {
        tnMinRadius_ = report.radius;  // the metric lane's Tn part
        tnArgmin_ = tnReports_.size() - 1;
      }
    }
  }

  // Latency (L) lane names.
  for (std::size_t k = 0; k < graph.paths().size(); ++k) {
    latencyNames_.push_back("L_" + std::to_string(k));
  }

  // Metric-lane precompute (coeffs() is only meaningful on the all-linear
  // fast path; otherwise analyzeMetric falls back to the full analyze).
  if (fast_) {
    computeDot_.assign(apps * machines, 0.0);
    computeDual_.assign(apps * machines, 0.0);
    bool nonNegative = allNonNegative(scenario.lambdaOrig);
    for (std::size_t i = 0; i < apps; ++i) {
      for (std::size_t m = 0; m < machines; ++m) {
        const num::Vec& c = scenario.compute[i][m].coeffs();
        computeDot_[i * machines + m] =
            num::simd::dotBlocked(c, scenario.lambdaOrig);
        computeDual_[i * machines + m] = blockedDual(c, options_);
        nonNegative &= allNonNegative(c);
      }
    }
    commDot_.assign(scenario.comm.size(), 0.0);
    commDual_.assign(scenario.comm.size(), 0.0);
    for (std::size_t e = 0; e < scenario.comm.size(); ++e) {
      const num::Vec& c = scenario.comm[e].coeffs();
      commDot_[e] = num::simd::dotBlocked(c, scenario.lambdaOrig);
      commDual_[e] = blockedDual(c, options_);
      nonNegative &= allNonNegative(c);
    }
    latencyPruneSafe_ = nonNegative;
  }
}

double CompiledScenario::throughputBound(std::size_t app) const {
  ROBUST_REQUIRE(app < throughputBound_.size(),
                 "throughputBound: app index out of range");
  return throughputBound_[app];
}

double CompiledScenario::computationTime(
    const sched::Mapping& mapping, std::size_t app,
    std::span<const double> lambda) const {
  ScenarioWorkspace workspace;
  const auto factors = fillFactors(mapping, workspace);
  ROBUST_REQUIRE(app < factors.size(),
                 "computationTime: app index out of range");
  return appTime(*scenario_, mapping, factors, app, lambda);
}

double CompiledScenario::communicationTime(
    std::size_t edgeId, std::span<const double> lambda) const {
  ROBUST_REQUIRE(edgeId < scenario_->comm.size(),
                 "communicationTime: edge id out of range");
  return scenario_->comm[edgeId].evaluate(lambda);
}


template <class Visit>
void CompiledScenario::forEachConstraint(const sched::Mapping& mapping,
                                         std::span<const double> factors,
                                         Visit&& visit) const {
  const std::span<const double> lambda = scenario_->lambdaOrig;
  std::size_t t = 0;
  for (std::size_t c = 0; c < tcApps_.size(); ++c) {
    const std::size_t i = tcApps_[c];
    visit(ConstraintKind::Computation, tcNames_[c],
          appTime(*scenario_, mapping, factors, i, lambda),
          throughputBound_[i]);
    for (; t < tn_.size() && tn_[t].app == i; ++t) {
      visit(ConstraintKind::Communication, tn_[t].name,
            scenario_->comm[tn_[t].edge].evaluate(lambda),
            throughputBound_[i]);
    }
  }
  const auto& paths = scenario_->graph.paths();
  for (std::size_t k = 0; k < paths.size(); ++k) {
    visit(ConstraintKind::Latency, latencyNames_[k],
          pathLatency(*scenario_, paths[k], mapping, factors, lambda),
          scenario_->latencyLimits[k]);
  }
}

std::vector<ConstraintStatus> CompiledScenario::constraints(
    const sched::Mapping& mapping) const {
  ScenarioWorkspace workspace;
  std::vector<ConstraintStatus> result;
  forEachConstraint(mapping, fillFactors(mapping, workspace),
                    [&](ConstraintKind kind, const std::string& name,
                        double value, double limit) {
                      result.push_back({kind, name, value, limit});
                    });
  return result;
}

double CompiledScenario::slack(const sched::Mapping& mapping,
                               ScenarioWorkspace& workspace) const {
  double slackValue = 1.0;
  forEachConstraint(mapping, fillFactors(mapping, workspace),
                    [&](ConstraintKind, const std::string&, double value,
                        double limit) {
                      slackValue = std::min(
                          slackValue,
                          1.0 - ConstraintStatus::fractionOf(value, limit));
                    });
  return slackValue;
}

core::ProblemSpec CompiledScenario::toSpec(
    const sched::Mapping& mapping) const {
  ScenarioWorkspace workspace;
  const auto factors = fillFactors(mapping, workspace);
  const std::size_t machines = scenario_->machines;
  core::ProblemSpec spec;
  auto& features = spec.features;

  // Computation-time throughput features (Eq. 10a).
  for (std::size_t t = 0; t < tcApps_.size(); ++t) {
    const std::size_t i = tcApps_[t];
    const std::size_t m = mapping.machineOf(i);
    if (computeZero_[i * machines + m]) {
      continue;  // no dependence on lambda: boundary unreachable
    }
    features.push_back(core::PerformanceFeature{
        tcNames_[t], scenario_->compute[i][m].impact(factors[i]),
        core::ToleranceBounds::atMost(throughputBound_[i])});
  }
  // Communication-time throughput features (Eq. 10b).
  for (const Transfer& transfer : tn_) {
    features.push_back(core::PerformanceFeature{
        transfer.name, scenario_->comm[transfer.edge].impact(1.0),
        core::ToleranceBounds::atMost(throughputBound_[transfer.app])});
  }
  // Path latency features (Eq. 10c). Linear members sum into one affine
  // row; any general member makes the path impact a callable sum that holds
  // the scenario by pointer and the mapping and factors by value, so the
  // spec outlives this object but not the scenario.
  const auto& paths = scenario_->graph.paths();
  for (std::size_t k = 0; k < paths.size(); ++k) {
    const Path& path = paths[k];
    bool linear = true;
    for (std::size_t app : path.apps) {
      linear &= scenario_->compute[app][mapping.machineOf(app)].isLinear();
    }
    for (std::size_t eid : path.edges) {
      linear &= scenario_->comm[eid].isLinear();
    }
    const auto bounds =
        core::ToleranceBounds::atMost(scenario_->latencyLimits[k]);
    if (!linear) {
      features.push_back(core::PerformanceFeature{
          latencyNames_[k],
          core::ImpactFunction::callable(
              [scenario = scenario_, mapping, factors = workspace.factors_,
               k](std::span<const double> lambda) {
                return pathLatency(*scenario, scenario->graph.paths()[k],
                                   mapping, factors, lambda);
              }),
          bounds});
      continue;
    }
    assembleLatencyRow(path, mapping, workspace);
    if (num::norm2(workspace.row_) == 0.0) {
      continue;  // path latency does not depend on lambda
    }
    features.push_back(core::PerformanceFeature{
        latencyNames_[k], core::ImpactFunction::affine(workspace.row_),
        bounds});
  }

  // Trivial single-subspace instance of the general perturbation model:
  // one discrete block, lambda (the sensor loads), Section 3.2 flooring.
  spec.subspaces.push_back(core::PerturbationSubspace{
      "lambda (sensor loads)", scenario_->lambdaOrig,
      static_cast<int>(options_.norm), options_.normWeights,
      /*discrete=*/true, "objects per data set"});
  spec.options = options_;
  return spec;
}

const core::RobustnessReport& CompiledScenario::analyze(
    const sched::Mapping& mapping, ScenarioWorkspace& workspace) const {
  const auto& graph = scenario_->graph;
  const std::size_t machines = scenario_->machines;

  const obs::Span span("hiperd.analyze");
  if (!fast_) {
    // Non-linear load functions or an iterative solver: compile and
    // evaluate the mapping's derivation.
    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kFallback =
          obs::counterId("hiperd.analyze_fallback");
      obs::addCounter(kFallback);
    }
    workspace.report_ =
        core::CompiledProblem::compile(toSpec(mapping)).evaluate();
    return workspace.report_;
  }

  fillFactors(mapping, workspace);

  core::RobustnessReport& report = workspace.report_;
  auto& radii = report.radii;
  std::size_t used = 0;
  report.metric = kInf;
  report.bindingFeature = 0;
  report.floored = false;
  const std::span<const double> origin = scenario_->lambdaOrig;

  const auto nextSlot = [&]() -> core::RadiusReport& {
    if (used == radii.size()) {
      radii.emplace_back();
    }
    return radii[used++];
  };
  const auto noteRadius = [&](const core::RadiusReport& r) {
    if (r.radius < report.metric) {
      report.metric = r.radius;
      report.bindingFeature = used - 1;
    }
  };

  // Computation (Tc) lane: weights = factor * compute coefficients.
  for (std::size_t t = 0; t < tcApps_.size(); ++t) {
    const std::size_t i = tcApps_[t];
    const std::size_t m = mapping.machineOf(i);
    if (computeZero_[i * machines + m]) {
      continue;  // no dependence on lambda: boundary unreachable
    }
    const num::Vec& coeffs = scenario_->compute[i][m].coeffs();
    const double factor = workspace.factors_[i];
    std::span<const double> row = coeffs;
    if (factor != 1.0) {
      workspace.row_.resize(sensors_);
      for (std::size_t z = 0; z < sensors_; ++z) {
        workspace.row_[z] = coeffs[z] * factor;
      }
      row = workspace.row_;
    }  // factor == 1.0: coeffs * 1.0 is bitwise coeffs, use the row as-is
    core::RadiusReport& slot = nextSlot();
    core::evaluateAffineRadius(
        core::AffineFeatureView{row, 0.0, std::nullopt, throughputBound_[i]},
        origin, options_, tcNames_[t], slot);
    noteRadius(slot);
  }

  // Communication (Tn) lane: copy the pre-solved reports.
  for (const core::RadiusReport& tn : tnReports_) {
    core::RadiusReport& slot = nextSlot();
    slot = tn;
    noteRadius(slot);
  }

  // Latency (L) lane.
  for (std::size_t k = 0; k < graph.paths().size(); ++k) {
    assembleLatencyRow(graph.paths()[k], mapping, workspace);
    if (num::norm2(workspace.row_) == 0.0) {
      continue;  // path latency does not depend on lambda
    }
    core::RadiusReport& slot = nextSlot();
    core::evaluateAffineRadius(
        core::AffineFeatureView{workspace.row_, 0.0, std::nullopt,
                                scenario_->latencyLimits[k]},
        origin, options_, latencyNames_[k], slot);
    noteRadius(slot);
  }

  radii.resize(used);
  ROBUST_REQUIRE(used > 0, "CompiledScenario: at least one feature required");
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kFast = obs::counterId("hiperd.analyze_fast");
    static const obs::MetricId kRows =
        obs::counterId("hiperd.rows_evaluated");
    static const obs::MetricId kTn =
        obs::counterId("hiperd.tn_presolved_reused");
    obs::addCounter(kFast);
    obs::addCounter(kRows, used);
    obs::addCounter(kTn, tnReports_.size());
  }
  if (std::isfinite(report.metric)) {
    // Section 3.2: a discrete parameter's metric should not be fractional.
    report.metric = std::floor(report.metric);
    report.floored = true;
  }
  return report;
}

std::span<const double> CompiledScenario::fillFactors(
    const sched::Mapping& mapping, ScenarioWorkspace& workspace) const {
  ROBUST_REQUIRE(mapping.apps() == scenario_->graph.applicationCount() &&
                     mapping.machines() == scenario_->machines,
                 "CompiledScenario: mapping does not match the scenario");
  const std::size_t apps = mapping.apps();
  workspace.counts_.assign(scenario_->machines, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    ++workspace.counts_[mapping.machineOf(i)];
  }
  workspace.factors_.resize(apps);
  for (std::size_t i = 0; i < apps; ++i) {
    workspace.factors_[i] =
        multitaskFactor(workspace.counts_[mapping.machineOf(i)]);
  }
  return workspace.factors_;
}

void CompiledScenario::assembleLatencyRow(const Path& path,
                                          const sched::Mapping& mapping,
                                          ScenarioWorkspace& workspace) const {
  // Per-app axpy with the multitask factor, then per-edge axpy: the order
  // the frozen references pin. Skipping an all-zero contribution is
  // bit-safe: adding 1.0 * 0.0 (or factor * 0.0) never changes an
  // accumulated component's bits here.
  const std::size_t machines = scenario_->machines;
  workspace.row_.assign(sensors_, 0.0);
  for (std::size_t app : path.apps) {
    const std::size_t m = mapping.machineOf(app);
    if (computeZero_[app * machines + m]) {
      continue;
    }
    num::axpy(workspace.factors_[app], scenario_->compute[app][m].coeffs(),
              workspace.row_);
  }
  for (std::size_t eid : path.edges) {
    if (commZero_[eid]) {
      continue;
    }
    num::axpy(1.0, scenario_->comm[eid].coeffs(), workspace.row_);
  }
}

core::MetricResult CompiledScenario::analyzeMetric(
    const sched::Mapping& mapping, ScenarioWorkspace& workspace,
    bool prune) const {
  const auto& graph = scenario_->graph;
  const std::size_t machines = scenario_->machines;

  if (!fast_) {
    const core::RobustnessReport& full = analyze(mapping, workspace);
    return core::MetricResult{full.metric, full.bindingFeature, full.floored};
  }

  fillFactors(mapping, workspace);

  core::MetricResult result;
  result.metric = kInf;
  result.bindingFeature = 0;
  result.floored = false;
  std::size_t used = 0;
  std::size_t pruned = 0;
  const std::span<const double> origin = scenario_->lambdaOrig;

  const auto note = [&](double radius, std::size_t slot) {
    if (radius < result.metric) {
      result.metric = radius;
      result.bindingFeature = slot;
    }
  };

  // Computation (Tc) lane: f(lambda) = factor * (coeffs . lambda), and
  // ||factor * coeffs||_dual = factor * ||coeffs||_dual — the lane rescales
  // the two precomputed scalars instead of the whole row.
  for (std::size_t t = 0; t < tcApps_.size(); ++t) {
    const std::size_t i = tcApps_[t];
    const std::size_t m = mapping.machineOf(i);
    if (computeZero_[i * machines + m]) {
      continue;  // same slot accounting as analyze
    }
    const std::size_t slot = used++;
    const double factor = workspace.factors_[i];
    double radius;
    if (!core::affineRowRadius(
            factor * computeDot_[i * machines + m],
            factor * computeDual_[i * machines + m],
            core::ToleranceBounds::atMost(throughputBound_[i]), radius,
            prune ? result.metric : kInf)) {
      ++pruned;
      continue;
    }
    note(radius, slot);
  }

  // Communication (Tn) lane: mapping-independent, pre-reduced at compile
  // time to (min radius, earliest argmin) — the strict-< walk over the
  // pre-solved reports collapses to one comparison.
  if (!tnReports_.empty()) {
    note(tnMinRadius_, used + tnArgmin_);
    used += tnReports_.size();
  }

  // Latency (L) lane. When the prune is sound (non-negative coefficients
  // and origin), the decomposed dot / part-dual sums both prove zero rows
  // (a zero part-dual sum means every contributing part is zero, exactly
  // matching analyze's norm2(row) == 0 skip) and bound the row's radius
  // from below: gap / partDualSum <= gap / ||row||_dual by the triangle
  // inequality. Rows surviving the bound are assembled exactly like
  // analyze and measured with the blocked kernels.
  for (std::size_t k = 0; k < graph.paths().size(); ++k) {
    const Path& path = graph.paths()[k];
    const double limit = scenario_->latencyLimits[k];
    std::size_t slot;
    if (latencyPruneSafe_) {
      double dotSum = 0.0;
      double magSum = 0.0;
      double partDualSum = 0.0;
      for (std::size_t app : path.apps) {
        const std::size_t m = mapping.machineOf(app);
        if (computeZero_[app * machines + m]) {
          continue;
        }
        const double term = workspace.factors_[app] * computeDot_[app * machines + m];
        dotSum += term;
        magSum += std::fabs(term);
        partDualSum +=
            workspace.factors_[app] * computeDual_[app * machines + m];
      }
      for (std::size_t eid : path.edges) {
        if (commZero_[eid]) {
          continue;
        }
        dotSum += commDot_[eid];
        magSum += std::fabs(commDot_[eid]);
        partDualSum += commDual_[eid];
      }
      if (partDualSum == 0.0) {
        continue;  // assembled row is provably all-zero: no slot
      }
      slot = used++;
      if (prune && result.metric < kInf) {
        // Absolute slack absorbing the decomposed dot's rounding relative
        // to its magnitude sum; the bound must also prove the assembled
        // row is NOT violated at the origin (a violated row's radius 0
        // always wins).
        const double slack = 1e-12 * (magSum + std::fabs(limit));
        if ((limit - dotSum) - slack >
            result.metric * partDualSum * (1.0 + core::kPruneMargin)) {
          ++pruned;
          continue;
        }
      }
      assembleLatencyRow(path, mapping, workspace);
    } else {
      // Cancellation possible: assemble every row; no pruning (so the
      // prune flag provably cannot change results here either).
      assembleLatencyRow(path, mapping, workspace);
      if (num::simd::normInfBlocked(workspace.row_) == 0.0) {
        continue;  // exactly analyze's norm2(row) == 0 skip
      }
      slot = used++;
    }
    double radius = kInf;
    core::affineRowRadius(num::simd::dotBlocked(workspace.row_, origin),
                          blockedDual(workspace.row_, options_),
                          core::ToleranceBounds::atMost(limit), radius);
    note(radius, slot);
  }

  ROBUST_REQUIRE(used > 0, "CompiledScenario: at least one feature required");
  if (std::isfinite(result.metric)) {
    result.metric = std::floor(result.metric);
    result.floored = true;
  }
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kMetric =
        obs::counterId("hiperd.analyze_metric");
    static const obs::MetricId kScalar =
        obs::counterId("core.kernel.dispatch.scalar");
    static const obs::MetricId kAvx2 =
        obs::counterId("core.kernel.dispatch.avx2");
    static const obs::MetricId kSkipped =
        obs::counterId("core.prune.rows_skipped");
    static const obs::MetricId kEffectiveness =
        obs::gaugeId("core.prune.effectiveness");
    obs::addCounter(kMetric);
    obs::addCounter(num::simd::activeTarget() == num::simd::Target::Avx2
                        ? kAvx2
                        : kScalar);
    obs::addCounter(kSkipped, pruned);
    obs::setGauge(kEffectiveness,
                  static_cast<std::int64_t>(pruned * 100 / used));
  }
  return result;
}

sched::MappingObjective robustnessObjective(const CompiledScenario& compiled) {
  auto workspace = std::make_shared<ScenarioWorkspace>();
  return [&compiled, workspace](const sched::Mapping& mapping) {
    return -compiled.analyzeMetric(mapping, *workspace).metric;
  };
}

std::vector<core::RobustnessReport> CompiledScenario::analyzeMappings(
    std::span<const sched::Mapping> mappings, std::size_t threads) const {
  std::vector<core::RobustnessReport> out(mappings.size());
  const obs::Span span("hiperd.analyzeMappings");
  // One block and workspace per participant; output slots are disjoint,
  // so results are independent of the worker count.
  forEachBlock<ScenarioWorkspace>(
      mappings.size(), threads,
      [&](std::size_t lo, std::size_t hi, ScenarioWorkspace& workspace) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = analyze(mappings[i], workspace);
        }
      });
  return out;
}

CompiledScenario HiperdScenario::compile(core::AnalyzerOptions options) const {
  return CompiledScenario(*this, std::move(options));
}

}  // namespace robust::hiperd

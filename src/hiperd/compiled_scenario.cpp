#include "robust/hiperd/compiled_scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

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

  parameter_ = core::PerturbationParameter{
      "lambda (sensor loads)", scenario.lambdaOrig, /*discrete=*/true,
      "objects per data set"};

  // 1/R(a_i): tightest throughput bound over the paths containing the app
  // (the same derivation as HiperdSystem, which is mapping-independent).
  throughputBound_.assign(apps, 0.0);
  std::vector<double> maxRate(apps, 0.0);
  for (const Path& path : graph.paths()) {
    const double rate = graph.sensorRate(path.drivingSensor);
    for (std::size_t app : path.apps) {
      maxRate[app] = std::max(maxRate[app], rate);
    }
  }
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

  // Computation (Tc) lane: eligible apps and their interned names.
  for (std::size_t i = 0; i < apps; ++i) {
    if (!std::isfinite(throughputBound_[i])) {
      continue;
    }
    tcApps_.push_back(i);
    tcNames_.push_back("Tc(" + graph.applicationName(i) + ")");
  }

  // Communication (Tn) lane: mapping-independent, so on the fast path the
  // complete radius reports are solved here, once.
  for (std::size_t i = 0; i < apps; ++i) {
    if (!std::isfinite(throughputBound_[i])) {
      continue;
    }
    for (std::size_t eid : graph.outEdgesOfApp(i)) {
      const LoadFunction& fn = scenario.comm[eid];
      if (fn.isZero()) {
        continue;
      }
      const Edge& e = graph.edge(eid);
      const std::string toName = e.to.kind == NodeKind::Application
                                     ? graph.applicationName(e.to.index)
                                     : graph.actuatorName(e.to.index);
      const std::string name =
          "Tn(" + graph.applicationName(i) + "->" + toName + ")";
      core::RadiusReport report;
      if (fast_) {
        // The legacy impact is fn.impact(1.0) = affine(scale(coeffs, 1.0));
        // scaling by 1.0 is exact, so the raw coefficients give the same
        // bits.
        core::evaluateAffineRadius(
            core::AffineFeatureView{fn.coeffs(), 0.0, std::nullopt,
                                    throughputBound_[i]},
            scenario.lambdaOrig, options_, name, report);
      } else {
        report.feature = name;  // placeholder; the fallback path re-derives
      }
      tnReports_.push_back(std::move(report));
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
    for (std::size_t t = 0; t < tnReports_.size(); ++t) {
      if (tnReports_[t].radius < tnMinRadius_) {
        tnMinRadius_ = tnReports_[t].radius;
        tnArgmin_ = t;
      }
    }
  }
}

double CompiledScenario::throughputBound(std::size_t app) const {
  ROBUST_REQUIRE(app < throughputBound_.size(),
                 "throughputBound: app index out of range");
  return throughputBound_[app];
}

const num::Vec& CompiledScenario::computeCoeffs(std::size_t app,
                                                std::size_t machine) const {
  return scenario_->compute[app][machine].coeffs();
}

const core::RobustnessReport& CompiledScenario::analyze(
    const sched::Mapping& mapping, ScenarioWorkspace& workspace) const {
  const auto& graph = scenario_->graph;
  const std::size_t apps = graph.applicationCount();
  const std::size_t machines = scenario_->machines;
  ROBUST_REQUIRE(mapping.apps() == apps && mapping.machines() == machines,
                 "CompiledScenario: mapping does not match the scenario");

  const obs::Span span("hiperd.analyze");
  if (!fast_) {
    // Non-linear load functions or an iterative solver: delegate to the
    // per-mapping derivation (identical results, per-mapping cost).
    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kFallback =
          obs::counterId("hiperd.analyze_fallback");
      obs::addCounter(kFallback);
    }
    workspace.report_ = HiperdSystem(*scenario_, mapping).analyze(options_);
    return workspace.report_;
  }

  // Multitasking factors for this mapping.
  workspace.counts_.assign(machines, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    ++workspace.counts_[mapping.machineOf(i)];
  }
  workspace.factors_.resize(apps);
  for (std::size_t i = 0; i < apps; ++i) {
    workspace.factors_[i] =
        multitaskFactor(workspace.counts_[mapping.machineOf(i)]);
  }

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
    const num::Vec& coeffs = computeCoeffs(i, m);
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

  // Latency (L) lane: per-path weights assembled in the legacy accumulation
  // order (per-app axpy with the multitask factor, then per-edge axpy), so
  // the floating-point sums match the legacy derivation bit for bit.
  for (std::size_t k = 0; k < graph.paths().size(); ++k) {
    const Path& path = graph.paths()[k];
    workspace.row_.assign(sensors_, 0.0);
    for (std::size_t app : path.apps) {
      // Skipping an all-zero contribution is bit-safe: adding 1.0 * 0.0 (or
      // factor * 0.0) never changes an accumulated component's bits here.
      if (computeZero_[app * machines + mapping.machineOf(app)]) {
        continue;
      }
      num::axpy(workspace.factors_[app],
                computeCoeffs(app, mapping.machineOf(app)), workspace.row_);
    }
    for (std::size_t eid : path.edges) {
      if (commZero_[eid]) {
        continue;
      }
      num::axpy(1.0, scenario_->comm[eid].coeffs(), workspace.row_);
    }
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

core::RobustnessReport CompiledScenario::analyze(
    const sched::Mapping& mapping) const {
  ScenarioWorkspace workspace;
  return analyze(mapping, workspace);
}

core::MetricResult CompiledScenario::analyzeMetric(
    const sched::Mapping& mapping, ScenarioWorkspace& workspace,
    bool prune) const {
  const auto& graph = scenario_->graph;
  const std::size_t apps = graph.applicationCount();
  const std::size_t machines = scenario_->machines;
  ROBUST_REQUIRE(mapping.apps() == apps && mapping.machines() == machines,
                 "CompiledScenario: mapping does not match the scenario");

  if (!fast_) {
    const core::RobustnessReport& full = analyze(mapping, workspace);
    return core::MetricResult{full.metric, full.bindingFeature, full.floored};
  }

  // Multitasking factors for this mapping (same derivation as analyze).
  workspace.counts_.assign(machines, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    ++workspace.counts_[mapping.machineOf(i)];
  }
  workspace.factors_.resize(apps);
  for (std::size_t i = 0; i < apps; ++i) {
    workspace.factors_[i] =
        multitaskFactor(workspace.counts_[mapping.machineOf(i)]);
  }

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
    const double dot = computeDot_[i * machines + m];
    const double dual = computeDual_[i * machines + m];
    const double atOrigin = factor == 1.0 ? dot : factor * dot;
    const double deff = factor == 1.0 ? dual : factor * dual;
    const double bound = throughputBound_[i];
    if (atOrigin > bound) {
      note(0.0, slot);  // violated at the operating point
      continue;
    }
    ROBUST_REQUIRE(deff > 0.0,
                   "analytic radius: impact does not depend on the parameter");
    const double gap = std::fabs(atOrigin - bound);
    if (prune && result.metric < kInf &&
        gap > result.metric * deff * (1.0 + 1e-9)) {
      // Provable loser under the strict-< selection (the margin absorbs
      // the comparison rounding): skipping it changes no result bits.
      ++pruned;
      continue;
    }
    note(gap / deff, slot);
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
      const std::size_t slot = used++;
      if (prune && result.metric < kInf) {
        // Absolute slack absorbing the decomposed dot's rounding relative
        // to its magnitude sum; the bound must also prove the assembled
        // row is NOT violated at the origin (a violated row's radius 0
        // always wins).
        const double slack = 1e-12 * (magSum + std::fabs(limit));
        if ((limit - dotSum) - slack >
            result.metric * partDualSum * (1.0 + 1e-9)) {
          ++pruned;
          continue;
        }
      }
      workspace.row_.assign(sensors_, 0.0);
      for (std::size_t app : path.apps) {
        if (computeZero_[app * machines + mapping.machineOf(app)]) {
          continue;
        }
        num::axpy(workspace.factors_[app],
                  computeCoeffs(app, mapping.machineOf(app)), workspace.row_);
      }
      for (std::size_t eid : path.edges) {
        if (commZero_[eid]) {
          continue;
        }
        num::axpy(1.0, scenario_->comm[eid].coeffs(), workspace.row_);
      }
      const double atOrigin = num::simd::dotBlocked(workspace.row_, origin);
      if (atOrigin > limit) {
        note(0.0, slot);
        continue;
      }
      const double deff = blockedDual(workspace.row_, options_);
      ROBUST_REQUIRE(
          deff > 0.0,
          "analytic radius: impact does not depend on the parameter");
      note(std::fabs(atOrigin - limit) / deff, slot);
    } else {
      // Cancellation possible: assemble every row; no pruning (so the
      // prune flag provably cannot change results here either).
      workspace.row_.assign(sensors_, 0.0);
      for (std::size_t app : path.apps) {
        if (computeZero_[app * machines + mapping.machineOf(app)]) {
          continue;
        }
        num::axpy(workspace.factors_[app],
                  computeCoeffs(app, mapping.machineOf(app)), workspace.row_);
      }
      for (std::size_t eid : path.edges) {
        if (commZero_[eid]) {
          continue;
        }
        num::axpy(1.0, scenario_->comm[eid].coeffs(), workspace.row_);
      }
      if (num::simd::normInfBlocked(workspace.row_) == 0.0) {
        continue;  // exactly analyze's norm2(row) == 0 skip
      }
      const std::size_t slot = used++;
      const double atOrigin = num::simd::dotBlocked(workspace.row_, origin);
      if (atOrigin > limit) {
        note(0.0, slot);
        continue;
      }
      const double deff = blockedDual(workspace.row_, options_);
      ROBUST_REQUIRE(
          deff > 0.0,
          "analytic radius: impact does not depend on the parameter");
      note(std::fabs(atOrigin - limit) / deff, slot);
    }
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

core::MetricResult CompiledScenario::analyzeMetric(
    const sched::Mapping& mapping) const {
  ScenarioWorkspace workspace;
  return analyzeMetric(mapping, workspace);
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

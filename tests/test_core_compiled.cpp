// Compiled-vs-legacy equivalence suite for the two-phase analysis engine.
//
// The reference implementation below is a frozen verbatim copy of the
// pre-compiled analyzer arithmetic (dual norms, hyperplane projection,
// per-level radius, per-feature radius, metric walk). Pinning it in the
// test keeps the bit-identity guarantee meaningful forever: CompiledProblem
// is the only production path, so there is nothing else to compare with.
//
// Every comparison is BIT-identical (no tolerances): the compiled engine
// must replicate the legacy floating-point operation order exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/core/fepia.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"

namespace robust::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool bitEq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---------------------------------------------------------------------------
// Reference implementation (frozen copy of the pre-compiled analyzer).
// ---------------------------------------------------------------------------
namespace ref {

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
  return 0.0;
}

num::Vec nearestOnHyperplane(std::span<const double> a, double c,
                             std::span<const double> x0, NormKind norm,
                             std::span<const double> weights) {
  const double gap = c - num::dot(a, x0);
  num::Vec out(x0.begin(), x0.end());
  switch (norm) {
    case NormKind::L2: {
      const double n2 = num::dot(a, a);
      num::axpy(gap / n2, a, out);
      break;
    }
    case NormKind::L1: {
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
      const double t = gap / num::norm1(a);
      for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] += (a[i] > 0.0 ? 1.0 : (a[i] < 0.0 ? -1.0 : 0.0)) * t;
      }
      break;
    }
    case NormKind::Weighted: {
      double denom = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        denom += a[i] * a[i] / weights[i];
      }
      const double nu = gap / denom;
      for (std::size_t i = 0; i < a.size(); ++i) {
        out[i] += nu * a[i] / weights[i];
      }
      break;
    }
  }
  return out;
}

RadiusReport radiusAgainstLevel(const PerformanceFeature& f, double level,
                                const PerturbationParameter& parameter,
                                const AnalyzerOptions& options) {
  RadiusReport report;
  report.feature = f.name;
  report.boundaryLevel = level;

  SolverKind solver = options.solver;
  if (solver == SolverKind::Auto) {
    solver = f.impact.isAffine() ? SolverKind::Analytic : SolverKind::KktNewton;
  }

  if (solver == SolverKind::Analytic) {
    ROBUST_REQUIRE(f.impact.isAffine(),
                   "analytic radius requires an affine impact function");
    const auto& w = f.impact.weights();
    const double c = level - f.impact.constant();
    const double denom = dualNorm(w, options.norm, options.normWeights);
    ROBUST_REQUIRE(denom > 0.0,
                   "analytic radius: impact does not depend on the parameter");
    report.radius = std::fabs(num::dot(w, parameter.origin) - c) / denom;
    report.boundaryPoint = nearestOnHyperplane(w, c, parameter.origin,
                                               options.norm,
                                               options.normWeights);
    report.method = "analytic-" + toString(options.norm);
    return report;
  }

  ROBUST_REQUIRE(options.norm == NormKind::L2,
                 "iterative radius solvers support the l2 norm only");
  num::NearestPointProblem problem;
  problem.g = f.impact.field();
  problem.gradient = f.impact.gradientField();
  problem.level = level;
  problem.origin = parameter.origin;
  try {
    num::NearestPointResult solved;
    switch (solver) {
      case SolverKind::KktNewton:
        solved = num::solveNearestPoint(problem, options.solverOptions);
        break;
      default:
        ROBUST_REQUIRE(false, "unexpected solver kind");
    }
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

RadiusReport radiusOf(const PerformanceFeature& f,
                      const PerturbationParameter& parameter,
                      const AnalyzerOptions& options) {
  const double atOrigin = f.impact.evaluate(parameter.origin);
  if (!f.bounds.contains(atOrigin)) {
    RadiusReport report;
    report.feature = f.name;
    report.radius = 0.0;
    report.boundaryPoint = parameter.origin;
    report.boundaryLevel = atOrigin;
    report.method = "violated-at-origin";
    return report;
  }

  RadiusReport best;
  best.feature = f.name;
  best.radius = kInf;
  best.boundReachable = false;
  for (const auto& level : {f.bounds.min, f.bounds.max}) {
    if (!level) {
      continue;
    }
    RadiusReport candidate = radiusAgainstLevel(f, *level, parameter, options);
    if (candidate.radius < best.radius) {
      best = std::move(candidate);
    }
  }
  return best;
}

RobustnessReport analyze(const std::vector<PerformanceFeature>& features,
                         const PerturbationParameter& parameter,
                         const AnalyzerOptions& options) {
  RobustnessReport report;
  report.radii.reserve(features.size());
  report.metric = kInf;
  for (std::size_t i = 0; i < features.size(); ++i) {
    report.radii.push_back(radiusOf(features[i], parameter, options));
    if (report.radii.back().radius < report.metric) {
      report.metric = report.radii.back().radius;
      report.bindingFeature = i;
    }
  }
  if (parameter.discrete && std::isfinite(report.metric)) {
    report.metric = std::floor(report.metric);
    report.floored = true;
  }
  return report;
}

}  // namespace ref

void expectSameRadius(const RadiusReport& got, const RadiusReport& want) {
  EXPECT_EQ(got.feature, want.feature);
  EXPECT_TRUE(bitEq(got.radius, want.radius))
      << got.feature << ": " << got.radius << " vs " << want.radius;
  EXPECT_TRUE(bitEq(got.boundaryLevel, want.boundaryLevel));
  EXPECT_EQ(got.boundReachable, want.boundReachable);
  EXPECT_EQ(got.method, want.method);
  ASSERT_EQ(got.boundaryPoint.size(), want.boundaryPoint.size());
  for (std::size_t i = 0; i < got.boundaryPoint.size(); ++i) {
    EXPECT_TRUE(bitEq(got.boundaryPoint[i], want.boundaryPoint[i]))
        << got.feature << " boundaryPoint[" << i << "]";
  }
}

void expectSameReport(const RobustnessReport& got,
                      const RobustnessReport& want) {
  EXPECT_TRUE(bitEq(got.metric, want.metric))
      << got.metric << " vs " << want.metric;
  EXPECT_EQ(got.bindingFeature, want.bindingFeature);
  EXPECT_EQ(got.floored, want.floored);
  ASSERT_EQ(got.radii.size(), want.radii.size());
  for (std::size_t i = 0; i < got.radii.size(); ++i) {
    expectSameRadius(got.radii[i], want.radii[i]);
  }
}

// Random affine spec covering every structural variation: mixed bound kinds
// (atMost / atLeast / between), occasional negative weights, occasional
// at-origin violations, discrete parameters, every norm.
ProblemSpec makeAffineSpec(std::uint64_t seed, NormKind norm) {
  Pcg32 rng(seed);
  const std::size_t dim = 2 + rng.nextBounded(5);
  const std::size_t count = 1 + rng.nextBounded(7);

  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.discrete = rng.nextBounded(2) == 0;
  spec.parameter.origin.resize(dim);
  for (auto& v : spec.parameter.origin) {
    v = std::floor(rng.uniform(0.0, 20.0));  // lattice for the discrete case
  }
  spec.options.norm = norm;
  if (norm == NormKind::Weighted) {
    spec.options.normWeights.resize(dim);
    for (auto& w : spec.options.normWeights) {
      w = rng.uniform(0.1, 4.0);
    }
  }

  for (std::size_t f = 0; f < count; ++f) {
    num::Vec w(dim);
    for (auto& v : w) {
      v = rng.uniform(-2.0, 3.0);
      if (v == 0.0) {
        v = 0.5;
      }
    }
    const double atOrigin = num::dot(w, spec.parameter.origin);
    ToleranceBounds bounds;
    switch (rng.nextBounded(4)) {
      case 0:
        bounds = ToleranceBounds::atMost(atOrigin + rng.uniform(0.5, 25.0));
        break;
      case 1:
        bounds = ToleranceBounds::atLeast(atOrigin - rng.uniform(0.5, 25.0));
        break;
      case 2:
        bounds = ToleranceBounds::between(atOrigin - rng.uniform(0.5, 20.0),
                                          atOrigin + rng.uniform(0.5, 20.0));
        break;
      default:
        // Violated at the origin: the bound sits strictly below the value.
        bounds = ToleranceBounds::atMost(atOrigin - rng.uniform(0.5, 5.0));
        break;
    }
    spec.features.push_back(PerformanceFeature{
        "phi" + std::to_string(f),
        ImpactFunction::affine(std::move(w), rng.uniform(-1.0, 1.0)), bounds});
  }
  return spec;
}

class CompiledEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledEquivalence, AffineBitIdenticalAcrossAllNorms) {
  for (const NormKind norm :
       {NormKind::L1, NormKind::L2, NormKind::LInf, NormKind::Weighted}) {
    const ProblemSpec spec = makeAffineSpec(GetParam(), norm);
    const RobustnessReport want =
        ref::analyze(spec.features, spec.parameter, spec.options);

    const CompiledProblem compiled = CompiledProblem::compile(spec);
    expectSameReport(compiled.evaluate(), want);

    // Workspace reuse must not change results: run twice through one
    // workspace (the second pass reuses every buffer).
    EvalWorkspace workspace;
    compiled.evaluate(AnalysisInstance{}, workspace);
    expectSameReport(compiled.evaluate(AnalysisInstance{}, workspace), want);

    for (std::size_t i = 0; i < spec.features.size(); ++i) {
      expectSameRadius(compiled.radiusOf(i),
                       ref::radiusOf(spec.features[i], spec.parameter,
                                     spec.options));
    }
  }
}

TEST_P(CompiledEquivalence, CallableFeaturesBitIdentical) {
  // Quadratic impacts go through the KKT-Newton lane; mix in one affine
  // feature so both lanes interleave in the same report.
  Pcg32 rng(GetParam());
  const std::size_t dim = 2 + rng.nextBounded(3);
  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin.resize(dim);
  for (auto& v : spec.parameter.origin) {
    v = rng.uniform(1.0, 5.0);
  }

  num::Vec center(dim);
  for (auto& v : center) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto quadratic = [center](std::span<const double> x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - center[i];
      s += d * d;
    }
    return s;
  };
  const auto gradient = [center](std::span<const double> x) {
    num::Vec g(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      g[i] = 2.0 * (x[i] - center[i]);
    }
    return g;
  };
  const double atOrigin = quadratic(spec.parameter.origin);
  spec.features.push_back(PerformanceFeature{
      "quad", ImpactFunction::callable(quadratic, gradient),
      ToleranceBounds::atMost(atOrigin + rng.uniform(2.0, 20.0))});

  num::Vec w(dim, 1.0);
  const double linAtOrigin = num::dot(w, spec.parameter.origin);
  spec.features.push_back(PerformanceFeature{
      "lin", ImpactFunction::affine(std::move(w), 0.0),
      ToleranceBounds::atMost(linAtOrigin + rng.uniform(1.0, 10.0))});

  const RobustnessReport want =
      ref::analyze(spec.features, spec.parameter, spec.options);
  const CompiledProblem compiled = CompiledProblem::compile(spec);
  expectSameReport(compiled.evaluate(), want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledEquivalence,
                         ::testing::Range<std::uint64_t>(1, 33));

TEST(CompiledProblemTest, ViolatedAtOriginYieldsZeroRadius) {
  ProblemSpec spec;
  spec.parameter = PerturbationParameter{"pi", num::Vec{2.0, 3.0}, false, ""};
  spec.features.push_back(PerformanceFeature{
      "violated", ImpactFunction::affine(num::Vec{1.0, 1.0}, 0.0),
      ToleranceBounds::atMost(4.0)});  // value 5 > 4 at the origin
  const CompiledProblem compiled = CompiledProblem::compile(spec);
  const RobustnessReport report = compiled.evaluate();
  EXPECT_EQ(report.radii[0].method, "violated-at-origin");
  EXPECT_TRUE(bitEq(report.radii[0].radius, 0.0));
  EXPECT_TRUE(bitEq(report.radii[0].boundaryLevel, 5.0));
  EXPECT_EQ(report.radii[0].boundaryPoint, spec.parameter.origin);
  expectSameReport(report,
                   ref::analyze(spec.features, spec.parameter, spec.options));
}

TEST(CompiledProblemTest, UnreachableBoundReportsInfiniteRadius) {
  // A bounded callable (value < 1 everywhere) can never reach level 2; the
  // KKT solver exhausts its iterations and the report must mirror the
  // legacy unreachable handling.
  ProblemSpec spec;
  spec.parameter = PerturbationParameter{"pi", num::Vec{0.0, 0.0}, false, ""};
  const auto bounded = [](std::span<const double> x) {
    double s = 0.0;
    for (double xi : x) {
      s += xi * xi;
    }
    return s / (1.0 + s);
  };
  spec.features.push_back(PerformanceFeature{
      "bounded", ImpactFunction::callable(bounded),
      ToleranceBounds::atMost(2.0)});
  spec.options.solverOptions.maxIterations = 8;

  const RobustnessReport want =
      ref::analyze(spec.features, spec.parameter, spec.options);
  const CompiledProblem compiled = CompiledProblem::compile(spec);
  const RobustnessReport got = compiled.evaluate();
  expectSameReport(got, want);
  EXPECT_FALSE(got.radii[0].boundReachable);
  EXPECT_TRUE(std::isinf(got.radii[0].radius));
}

TEST(CompiledProblemTest, DiscreteParameterFloorsTheMetric) {
  ProblemSpec spec;
  spec.parameter = PerturbationParameter{"pi", num::Vec{4.0, 4.0}, true, ""};
  spec.features.push_back(PerformanceFeature{
      "phi", ImpactFunction::affine(num::Vec{1.0, 1.0}, 0.0),
      ToleranceBounds::atMost(8.0 + 3.7)});
  const CompiledProblem compiled = CompiledProblem::compile(spec);
  const RobustnessReport report = compiled.evaluate();
  EXPECT_TRUE(report.floored);
  EXPECT_TRUE(bitEq(report.metric, std::floor(report.radii[0].radius)));
  expectSameReport(report,
                   ref::analyze(spec.features, spec.parameter, spec.options));
}

TEST(CompiledProblemTest, InstanceConstantsAndScalesMatchMaterializedSpec) {
  // Overriding per-feature constants and scales through an AnalysisInstance
  // must equal compiling a spec with those values baked in.
  Pcg32 rng(7);
  const std::size_t dim = 4;
  ProblemSpec base;
  base.parameter.name = "pi";
  base.parameter.origin = {3.0, 1.0, 4.0, 1.5};
  for (std::size_t f = 0; f < 3; ++f) {
    num::Vec w(dim);
    for (auto& v : w) {
      v = rng.uniform(0.2, 2.0);
    }
    // Generous bound: it must also contain the scaled/shifted values at the
    // overridden origin below, so no feature is violated at the origin.
    const ToleranceBounds bounds = ToleranceBounds::atMost(
        3.0 * num::dot(w, base.parameter.origin) + 40.0);
    base.features.push_back(PerformanceFeature{
        "phi" + std::to_string(f), ImpactFunction::affine(std::move(w), 0.5),
        bounds});
  }
  const std::vector<double> constants = {1.25, -0.5, 0.0};
  const std::vector<double> scales = {1.0, 2.5, 0.75};
  num::Vec origin = {2.0, 2.0, 2.0, 2.0};

  ProblemSpec materialized = base;
  for (std::size_t f = 0; f < materialized.features.size(); ++f) {
    num::Vec w(dim);
    const num::Vec& bw = base.features[f].impact.weights();
    for (std::size_t k = 0; k < dim; ++k) {
      w[k] = bw[k] * scales[f];
    }
    materialized.features[f] = PerformanceFeature{
        base.features[f].name,
        ImpactFunction::affine(std::move(w), constants[f]),
        base.features[f].bounds};
  }
  materialized.parameter.origin = origin;

  const CompiledProblem compiled = CompiledProblem::compile(base);
  AnalysisInstance instance;
  instance.origin = origin;
  instance.constants = constants;
  instance.scales = scales;
  const RobustnessReport got = compiled.evaluate(instance);
  const RobustnessReport want =
      ref::analyze(materialized.features, materialized.parameter,
                   materialized.options);
  expectSameReport(got, want);
}

TEST(CompiledProblemTest, WorkspaceReuseAcrossManySpecs) {
  // One workspace survives 50 different problems (different dimensions and
  // feature counts) without contaminating results.
  EvalWorkspace workspace;
  for (std::uint64_t seed = 100; seed < 150; ++seed) {
    const ProblemSpec spec = makeAffineSpec(seed, NormKind::L2);
    const CompiledProblem compiled = CompiledProblem::compile(spec);
    const RobustnessReport& got =
        compiled.evaluate(AnalysisInstance{}, workspace);
    expectSameReport(got,
                     ref::analyze(spec.features, spec.parameter, spec.options));
  }
}


TEST(CompiledProblemTest, ValidationMatchesLegacyAnalyzer) {
  // Same InvalidArgumentError triggers as the legacy constructor.
  EXPECT_THROW(CompiledProblem::compile(ProblemSpec{}), InvalidArgumentError);

  ProblemSpec noBounds;
  noBounds.parameter = PerturbationParameter{"pi", num::Vec{1.0}, false, ""};
  noBounds.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0}, 0.0), ToleranceBounds{}});
  EXPECT_THROW(CompiledProblem::compile(noBounds), InvalidArgumentError);

  ProblemSpec badDim;
  badDim.parameter = PerturbationParameter{"pi", num::Vec{1.0, 2.0}, false, ""};
  badDim.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0}, 0.0),
      ToleranceBounds::atMost(5.0)});
  EXPECT_THROW(CompiledProblem::compile(badDim), InvalidArgumentError);

  ProblemSpec badWeights;
  badWeights.parameter = PerturbationParameter{"pi", num::Vec{1.0}, false, ""};
  badWeights.features.push_back(PerformanceFeature{
      "f", ImpactFunction::affine(num::Vec{1.0}, 0.0),
      ToleranceBounds::atMost(5.0)});
  badWeights.options.norm = NormKind::Weighted;  // no weights supplied
  EXPECT_THROW(CompiledProblem::compile(badWeights), InvalidArgumentError);
}

TEST(CompiledProblemTest, InstanceValidation) {
  const ProblemSpec spec = makeAffineSpec(3, NormKind::L2);
  const CompiledProblem compiled = CompiledProblem::compile(spec);
  EvalWorkspace workspace;

  AnalysisInstance shortOrigin;
  const num::Vec wrong(compiled.dimension() + 1, 1.0);
  shortOrigin.origin = wrong;
  EXPECT_THROW(compiled.evaluate(shortOrigin, workspace),
               InvalidArgumentError);

  AnalysisInstance badScale;
  const std::vector<double> scales(compiled.featureCount(), -1.0);
  badScale.scales = scales;
  EXPECT_THROW(compiled.evaluate(badScale, workspace), InvalidArgumentError);
}

TEST(FepiaBuilderCompiled, CompileMatchesSpec) {
  const auto makeBuilder = [] {
    return FepiaBuilder("demo")
        .perturbation("pi", num::Vec{1.0, 2.0})
        .affineFeature("a", num::Vec{1.0, 0.5}, 0.0,
                       ToleranceBounds::atMost(10.0))
        .affineFeature("b", num::Vec{0.25, 2.0}, 1.0,
                       ToleranceBounds::between(0.0, 9.0));
  };
  auto builderA = makeBuilder();
  auto builderB = makeBuilder();
  const RobustnessReport viaSpec =
      CompiledProblem::compile(builderA.spec()).evaluate();
  const CompiledProblem compiled = builderB.compile();
  expectSameReport(compiled.evaluate(), viaSpec);

  // compile() is single-shot like spec().
  EXPECT_THROW((void)builderB.spec(), InvalidArgumentError);
}

}  // namespace
}  // namespace robust::core

// Tests for the robustness radius / metric computation (Eq. 1 and Eq. 2):
// closed forms under every norm, solver agreement, discreteness, boundary
// diagnostics, and the sampling validator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>

#include "robust/core/compiled.hpp"
#include "robust/core/validation.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"
#include "eq6_oracle.hpp"

namespace robust::core {
namespace {

CompiledProblem makeAffineAnalyzer(num::Vec weights, double constant,
                                   ToleranceBounds bounds, num::Vec origin,
                                   AnalyzerOptions options = {},
                                   bool discrete = false) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi", ImpactFunction::affine(std::move(weights), constant), bounds});
  PerturbationParameter parameter{"pi", std::move(origin), discrete, ""};
  return CompiledProblem::compile({.features = std::move(features),
                                   .parameter = std::move(parameter),
                                   .options = options});
}

// --------------------------------------------------------- radii, affine

TEST(Analyzer, AffineUpperBoundRadius) {
  // f(x) = x1 + x2 <= 10 from origin (1,1): distance 8/sqrt(2).
  const auto analyzer = makeAffineAnalyzer(
      {1.0, 1.0}, 0.0, ToleranceBounds::atMost(10.0), {1.0, 1.0});
  const auto radius = analyzer.radiusOf(0);
  EXPECT_NEAR(radius.radius, 8.0 / std::sqrt(2.0), 1e-12);
  EXPECT_EQ(radius.method, "analytic-l2");
  EXPECT_NEAR(radius.boundaryPoint[0], 5.0, 1e-12);
  EXPECT_NEAR(radius.boundaryPoint[1], 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(radius.boundaryLevel, 10.0);
}

TEST(Analyzer, TwoSidedBoundTakesNearerBoundary) {
  // 2 <= x1 <= 10 from origin 3: lower boundary at distance 1 is binding.
  const auto analyzer = makeAffineAnalyzer(
      {1.0}, 0.0, ToleranceBounds::between(2.0, 10.0), {3.0});
  const auto radius = analyzer.radiusOf(0);
  EXPECT_NEAR(radius.radius, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(radius.boundaryLevel, 2.0);
}

TEST(Analyzer, ViolatedAtOriginGivesZero) {
  const auto analyzer = makeAffineAnalyzer(
      {1.0}, 0.0, ToleranceBounds::atMost(5.0), {7.0});
  const auto radius = analyzer.radiusOf(0);
  EXPECT_DOUBLE_EQ(radius.radius, 0.0);
  EXPECT_EQ(radius.method, "violated-at-origin");
  const auto report = analyzer.evaluate();
  EXPECT_DOUBLE_EQ(report.metric, 0.0);
}

TEST(Analyzer, MetricIsMinimumOfRadii) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{"near",
                                        ImpactFunction::affine({1.0, 0.0}, 0.0),
                                        ToleranceBounds::atMost(2.0)});
  features.push_back(PerformanceFeature{"far",
                                        ImpactFunction::affine({0.0, 1.0}, 0.0),
                                        ToleranceBounds::atMost(50.0)});
  PerturbationParameter parameter{"pi", {0.0, 0.0}, false, ""};
  const auto analyzer = CompiledProblem::compile(
      {.features = std::move(features), .parameter = std::move(parameter)});
  const auto report = analyzer.evaluate();
  EXPECT_DOUBLE_EQ(report.metric, 2.0);
  EXPECT_EQ(report.bindingFeature, 0u);
  EXPECT_EQ(report.radii.size(), 2u);
  EXPECT_DOUBLE_EQ(report.radii[1].radius, 50.0);
}

TEST(Analyzer, DiscreteParameterFloorsMetric) {
  const auto analyzer = makeAffineAnalyzer(
      {1.0, 1.0}, 0.0, ToleranceBounds::atMost(10.0), {1.0, 1.0}, {},
      /*discrete=*/true);
  const auto report = analyzer.evaluate();
  EXPECT_DOUBLE_EQ(report.metric, std::floor(8.0 / std::sqrt(2.0)));
  EXPECT_TRUE(report.floored);
}

TEST(Analyzer, ContinuousParameterNotFloored) {
  const auto analyzer = makeAffineAnalyzer(
      {1.0, 1.0}, 0.0, ToleranceBounds::atMost(10.0), {1.0, 1.0});
  EXPECT_FALSE(analyzer.evaluate().floored);
}

TEST(Analyzer, RadiusOfOutOfRangeThrows) {
  const auto analyzer = makeAffineAnalyzer(
      {1.0}, 0.0, ToleranceBounds::atMost(5.0), {0.0});
  EXPECT_THROW((void)analyzer.radiusOf(7), InvalidArgumentError);
}

// --------------------------------------------------------------- norms

TEST(Analyzer, DualNormClosedForms) {
  // f(x) = 3 x1 + 4 x2 <= 20 from the origin. Distances:
  //   l2: 20 / ||(3,4)||_2 = 4
  //   l1: 20 / ||(3,4)||_inf = 5        (move only x2)
  //   linf: 20 / ||(3,4)||_1 = 20/7     (move both)
  for (const auto& [norm, expected] :
       {std::pair{NormKind::L2, 4.0}, std::pair{NormKind::L1, 5.0},
        std::pair{NormKind::LInf, 20.0 / 7.0}}) {
    AnalyzerOptions options;
    options.norm = norm;
    const auto analyzer = makeAffineAnalyzer(
        {3.0, 4.0}, 0.0, ToleranceBounds::atMost(20.0), {0.0, 0.0}, options);
    const auto radius = analyzer.radiusOf(0);
    EXPECT_NEAR(radius.radius, expected, 1e-12) << toString(norm);
    // The boundary point must actually lie on the boundary and achieve the
    // claimed norm distance.
    EXPECT_NEAR(3.0 * radius.boundaryPoint[0] + 4.0 * radius.boundaryPoint[1],
                20.0, 1e-9);
    const num::Vec delta =
        num::sub(radius.boundaryPoint, analyzer.parameter().origin);
    const double measured = norm == NormKind::L2   ? num::norm2(delta)
                            : norm == NormKind::L1 ? num::norm1(delta)
                                                   : num::normInf(delta);
    EXPECT_NEAR(measured, expected, 1e-9) << toString(norm);
  }
}

TEST(Analyzer, WeightedNormClosedForm) {
  // f(x) = x1 + x2 <= 10 from (1, 1), weights (4, 1):
  // d_i = nu * a_i / w_i, nu = gap / sum(a_i^2 / w_i) = 8 / (1/4 + 1) = 6.4;
  // d = (1.6, 6.4); weighted distance = sqrt(4*1.6^2 + 6.4^2) = 7.1554.
  AnalyzerOptions options;
  options.norm = NormKind::Weighted;
  options.normWeights = {4.0, 1.0};
  const auto analyzer = makeAffineAnalyzer(
      {1.0, 1.0}, 0.0, ToleranceBounds::atMost(10.0), {1.0, 1.0}, options);
  const auto radius = analyzer.radiusOf(0);
  EXPECT_NEAR(radius.radius, 8.0 / std::sqrt(1.25), 1e-12);
  EXPECT_NEAR(radius.boundaryPoint[0], 1.0 + 1.6, 1e-12);
  EXPECT_NEAR(radius.boundaryPoint[1], 1.0 + 6.4, 1e-12);
  // The boundary point lies on the boundary.
  EXPECT_NEAR(radius.boundaryPoint[0] + radius.boundaryPoint[1], 10.0,
              1e-12);
  // Unit weights degenerate to the Euclidean closed form.
  AnalyzerOptions unit;
  unit.norm = NormKind::Weighted;
  unit.normWeights = {1.0, 1.0};
  const auto euclid = makeAffineAnalyzer(
      {1.0, 1.0}, 0.0, ToleranceBounds::atMost(10.0), {1.0, 1.0}, unit);
  EXPECT_NEAR(euclid.radiusOf(0).radius, 8.0 / std::sqrt(2.0), 1e-12);
}

// Weighted norm on a multi-feature system with two-sided bounds, against
// the Eq. 6 closed form of tests/eq6_oracle.hpp.
TEST(Analyzer, WeightedNormMonteCarloAgrees) {
  AnalyzerOptions options;
  options.norm = NormKind::Weighted;
  options.normWeights = {4.0, 1.0, 0.25};
  const num::Vec origin = {1.0, 2.0, 3.0};
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi0", ImpactFunction::affine({1.0, 1.0, 0.0}, 0.5),
      ToleranceBounds::atMost(10.0)});
  features.push_back(PerformanceFeature{
      "phi1", ImpactFunction::affine({-2.0, 0.5, 1.5}, 1.0),
      ToleranceBounds::between(-4.0, 12.0)});
  features.push_back(PerformanceFeature{
      "phi2", ImpactFunction::affine({0.0, 3.0, -1.0}, 0.0),
      ToleranceBounds::atLeast(-2.0)});
  const auto problem = CompiledProblem::compile(
      {.features = features,
       .parameter = PerturbationParameter{"pi", origin, false, ""},
       .options = options});
  const auto report = problem.evaluate();
  for (std::size_t i = 0; i < features.size(); ++i) {
    const double exact =
        eq6::radius(features[i], origin, options.norm, options.normWeights);
    EXPECT_NEAR(report.radii[i].radius, exact, 1e-12 * exact) << i;
  }
  const double rho =
      eq6::metric(features, origin, options.norm, options.normWeights);
  EXPECT_NEAR(report.metric, rho, 1e-12 * rho);
}

TEST(Analyzer, WeightedNormValidation) {
  AnalyzerOptions bad;
  bad.norm = NormKind::Weighted;  // missing weights
  EXPECT_THROW((void)makeAffineAnalyzer({1.0, 1.0}, 0.0,
                                        ToleranceBounds::atMost(4.0),
                                        {0.0, 0.0}, bad),
               InvalidArgumentError);
  bad.normWeights = {1.0, -1.0};
  EXPECT_THROW((void)makeAffineAnalyzer({1.0, 1.0}, 0.0,
                                        ToleranceBounds::atMost(4.0),
                                        {0.0, 0.0}, bad),
               InvalidArgumentError);
}

TEST(Validation, WeightedNormGuaranteeHolds) {
  AnalyzerOptions options;
  options.norm = NormKind::Weighted;
  options.normWeights = {4.0, 1.0};
  const auto analyzer = makeAffineAnalyzer(
      {1.0, 1.0}, 0.0, ToleranceBounds::atMost(10.0), {1.0, 1.0}, options);
  const double rho = analyzer.evaluate().metric;
  const auto result = validateRadius(analyzer, rho);
  EXPECT_EQ(result.violationsInside, 0);
  EXPECT_GT(result.violationsAtBoundary, 0);
}

TEST(Analyzer, IterativeSolversRejectNonL2Norms) {
  AnalyzerOptions options;
  options.norm = NormKind::L1;
  options.solver = SolverKind::KktNewton;
  const auto analyzer = makeAffineAnalyzer(
      {1.0, 1.0}, 0.0, ToleranceBounds::atMost(4.0), {0.0, 0.0}, options);
  EXPECT_THROW((void)analyzer.radiusOf(0), InvalidArgumentError);

  // A callable feature has only the iterative solver, which measures L2
  // distance, so under every other norm the default Auto solver throws.
  for (const auto norm : {NormKind::L1, NormKind::LInf, NormKind::Weighted}) {
    std::vector<PerformanceFeature> features;
    features.push_back(PerformanceFeature{
        "phi",
        ImpactFunction::callable(
            [](std::span<const double> x) { return x[0] * x[0] + x[1]; }),
        ToleranceBounds::atMost(9.0)});
    AnalyzerOptions callableOptions;
    callableOptions.norm = norm;
    if (norm == NormKind::Weighted) {
      callableOptions.normWeights = {1.0, 2.0};
    }
    const auto problem = CompiledProblem::compile(
        {.features = std::move(features),
         .parameter = PerturbationParameter{"pi", {1.0, 1.0}, false, ""},
         .options = callableOptions});
    EXPECT_THROW((void)problem.evaluate(), InvalidArgumentError)
        << toString(norm);
  }
}

// -------------------------------------------------------------- solvers

TEST(Analyzer, SolverAgreementOnAffine) {
  for (const auto solver : {SolverKind::Analytic, SolverKind::KktNewton}) {
    AnalyzerOptions options;
    options.solver = solver;
    const auto analyzer = makeAffineAnalyzer(
        {2.0, 1.0}, 1.0, ToleranceBounds::atMost(11.0), {1.0, 1.0}, options);
    // plane 2x1 + x2 = 10, from (1,1): distance 7/sqrt(5).
    const auto radius = analyzer.radiusOf(0);
    EXPECT_NEAR(radius.radius, 7.0 / std::sqrt(5.0), 1e-6)
        << "solver " << static_cast<int>(solver);
  }
}

TEST(Analyzer, AnalyticRequiresAffine) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi",
      ImpactFunction::callable(
          [](std::span<const double> x) { return x[0] * x[0]; }),
      ToleranceBounds::atMost(4.0)});
  PerturbationParameter parameter{"pi", {0.0}, false, ""};
  AnalyzerOptions options;
  options.solver = SolverKind::Analytic;
  const auto analyzer = CompiledProblem::compile(
      {.features = std::move(features),
       .parameter = std::move(parameter),
       .options = options});
  EXPECT_THROW((void)analyzer.radiusOf(0), InvalidArgumentError);
}

TEST(Analyzer, AutoUsesKktForCallable) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi",
      ImpactFunction::callable([](std::span<const double> x) {
        return x[0] * x[0] + x[1] * x[1];
      }),
      ToleranceBounds::atMost(25.0)});
  PerturbationParameter parameter{"pi", {1.0, 1.0}, false, ""};
  const auto analyzer = CompiledProblem::compile(
      {.features = std::move(features), .parameter = std::move(parameter)});
  const auto radius = analyzer.radiusOf(0);
  EXPECT_NEAR(radius.radius, 5.0 - std::sqrt(2.0), 1e-6);
}

TEST(Analyzer, UnreachableBoundReportsInfinity) {
  // f(x) = x1^2 >= -1 never fails, and the boundary x1^2 = -1 is empty.
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi",
      ImpactFunction::callable(
          [](std::span<const double> x) { return x[0] * x[0]; }),
      ToleranceBounds::atLeast(-1.0)});
  PerturbationParameter parameter{"pi", {2.0}, false, ""};
  AnalyzerOptions options;
  options.solverOptions.searchLimit = 1e4;
  const auto analyzer = CompiledProblem::compile(
      {.features = std::move(features),
       .parameter = std::move(parameter),
       .options = options});
  const auto radius = analyzer.radiusOf(0);
  EXPECT_FALSE(radius.boundReachable);
  EXPECT_TRUE(std::isinf(radius.radius));
  const auto report = analyzer.evaluate();
  EXPECT_TRUE(std::isinf(report.metric));
}

// ----------------------------------------------------- combined metric

TEST(CombinedRobustness, TakesMinimumAcrossParameters) {
  RobustnessReport a;
  a.metric = 5.0;
  RobustnessReport b;
  b.metric = 2.0;
  const std::vector<RobustnessReport> reports = {a, b};
  EXPECT_DOUBLE_EQ(combinedRobustness(reports), 2.0);
  EXPECT_THROW((void)combinedRobustness({}), InvalidArgumentError);
}

// ------------------------------------------------------------ validator

TEST(Validation, CorrectRadiusHasNoInsideViolations) {
  const auto analyzer = makeAffineAnalyzer(
      {1.0, 1.0}, 0.0, ToleranceBounds::atMost(10.0), {1.0, 1.0});
  const double rho = analyzer.evaluate().metric;
  const auto result = validateRadius(analyzer, rho);
  EXPECT_EQ(result.violationsInside, 0);
  EXPECT_GT(result.violationsAtBoundary, 0);  // the radius is tight
}

TEST(Validation, InflatedRadiusIsDetected) {
  const auto analyzer = makeAffineAnalyzer(
      {1.0, 1.0}, 0.0, ToleranceBounds::atMost(10.0), {1.0, 1.0});
  const double rho = analyzer.evaluate().metric;
  const auto result = validateRadius(analyzer, 1.5 * rho);
  EXPECT_GT(result.violationsInside, 0);
}

TEST(Validation, OptionsValidated) {
  const auto analyzer = makeAffineAnalyzer(
      {1.0}, 0.0, ToleranceBounds::atMost(5.0), {0.0});
  EXPECT_THROW((void)validateRadius(analyzer, -1.0), InvalidArgumentError);
  ValidationOptions options;
  options.samples = 0;
  EXPECT_THROW((void)validateRadius(analyzer, 1.0, options),
               InvalidArgumentError);
}

// Property sweep: the compiled metric vs the Eq. 6 closed form of
// tests/eq6_oracle.hpp on random multi-feature affine systems, every norm.
struct SweepParam {
  std::uint64_t seed;
  NormKind norm;
};

// gtest's default printer dumps the struct's raw bytes, padding included,
// and CMake's test discovery names each case from that printout, so the
// ctest ids changed between builds. Print the fields instead:
// ".../OracleNeverBeatsAnalytic/seed3_l2".
void PrintTo(const SweepParam& param, std::ostream* os) {
  *os << "seed" << param.seed << '_' << toString(param.norm);
}

class AnalyticVsOracle : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AnalyticVsOracle, OracleNeverBeatsAnalytic) {
  const auto [seed, norm] = GetParam();
  Pcg32 rng(seed);
  const std::size_t dim = 2 + rng.nextBounded(4);
  const std::size_t featureCount = 1 + rng.nextBounded(5);

  std::vector<PerformanceFeature> features;
  num::Vec origin(dim);
  for (auto& v : origin) {
    v = rng.uniform(0.0, 5.0);
  }
  for (std::size_t f = 0; f < featureCount; ++f) {
    num::Vec w(dim, 0.0);
    for (auto& v : w) {
      v = rng.uniform(0.0, 2.0);
    }
    w[rng.nextBounded(static_cast<std::uint32_t>(dim))] += 1.0;  // non-zero
    const double slackGap = rng.uniform(1.0, 20.0);
    const double level = num::dot(w, origin) + slackGap;
    features.push_back(PerformanceFeature{
        "phi" + std::to_string(f), ImpactFunction::affine(std::move(w), 0.0),
        ToleranceBounds::atMost(level)});
  }

  AnalyzerOptions analytic;
  analytic.norm = norm;
  PerturbationParameter parameter{"pi", origin, false, ""};
  const auto a = CompiledProblem::compile(
      {.features = features, .parameter = parameter, .options = analytic});
  const double exact = a.evaluate().metric;
  const double oracle = eq6::metric(features, origin, norm);
  EXPECT_NEAR(exact, oracle, 1e-12 * oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AnalyticVsOracle,
    ::testing::Values(SweepParam{1, NormKind::L2}, SweepParam{2, NormKind::L2},
                      SweepParam{3, NormKind::L2}, SweepParam{4, NormKind::L1},
                      SweepParam{5, NormKind::L1},
                      SweepParam{6, NormKind::LInf},
                      SweepParam{7, NormKind::LInf},
                      SweepParam{8, NormKind::L2}));

}  // namespace
}  // namespace robust::core

// Tests for the FePIA core: impact functions, tolerance bounds, the builder,
// and input validation of the analyzer.
#include <gtest/gtest.h>

#include <cmath>

#include <sstream>

#include "robust/core/fepia.hpp"
#include "robust/core/report_io.hpp"
#include "robust/util/error.hpp"

namespace robust::core {
namespace {

// ------------------------------------------------------------- impacts

TEST(ImpactFunction, AffineEvaluates) {
  const auto f = ImpactFunction::affine({2.0, -1.0}, 3.0);
  EXPECT_TRUE(f.isAffine());
  EXPECT_DOUBLE_EQ(f.evaluate(num::Vec{1.0, 1.0}), 4.0);
  EXPECT_EQ(f.weights(), (num::Vec{2.0, -1.0}));
  EXPECT_DOUBLE_EQ(f.constant(), 3.0);
  ASSERT_TRUE(f.dimension().has_value());
  EXPECT_EQ(*f.dimension(), 2u);
}

TEST(ImpactFunction, AffineAsFieldSelfContained) {
  num::ScalarField field;
  {
    const auto f = ImpactFunction::affine({1.0, 1.0}, 0.0);
    field = f.field();
  }  // impact destroyed; the field must have captured by value
  EXPECT_DOUBLE_EQ(field(num::Vec{2.0, 3.0}), 5.0);
}

TEST(ImpactFunction, AffineGradientIsConstant) {
  const auto f = ImpactFunction::affine({4.0, 5.0}, 1.0);
  const auto grad = f.gradientField();
  ASSERT_TRUE(static_cast<bool>(grad));
  EXPECT_EQ(grad(num::Vec{100.0, -3.0}), (num::Vec{4.0, 5.0}));
}

TEST(ImpactFunction, CallableEvaluates) {
  const auto f = ImpactFunction::callable(
      [](std::span<const double> x) { return x[0] * x[0]; });
  EXPECT_FALSE(f.isAffine());
  EXPECT_DOUBLE_EQ(f.evaluate(num::Vec{3.0}), 9.0);
  EXPECT_FALSE(f.dimension().has_value());
  EXPECT_THROW((void)f.weights(), InvalidArgumentError);
  EXPECT_THROW((void)f.constant(), InvalidArgumentError);
}

TEST(ImpactFunction, Validation) {
  EXPECT_THROW((void)ImpactFunction::affine({}, 0.0), InvalidArgumentError);
  EXPECT_THROW((void)ImpactFunction::callable(nullptr), InvalidArgumentError);
}

// -------------------------------------------------------------- bounds

TEST(ToleranceBounds, ContainsRespectsEachSide) {
  const auto upper = ToleranceBounds::atMost(10.0);
  EXPECT_TRUE(upper.contains(10.0));
  EXPECT_TRUE(upper.contains(-100.0));
  EXPECT_FALSE(upper.contains(10.5));

  const auto lower = ToleranceBounds::atLeast(2.0);
  EXPECT_TRUE(lower.contains(2.0));
  EXPECT_FALSE(lower.contains(1.0));

  const auto both = ToleranceBounds::between(1.0, 3.0);
  EXPECT_TRUE(both.contains(2.0));
  EXPECT_FALSE(both.contains(0.5));
  EXPECT_FALSE(both.contains(3.5));
}

TEST(ToleranceBounds, BetweenValidatesOrder) {
  EXPECT_THROW((void)ToleranceBounds::between(3.0, 1.0),
               InvalidArgumentError);
}

// -------------------------------------------------------------- builder

TEST(FepiaBuilder, BuildsWorkingAnalyzer) {
  auto analyzer =
      FepiaBuilder("toy requirement")
          .perturbation("pi", {0.0, 0.0})
          .affineFeature("phi", {1.0, 1.0}, 0.0, ToleranceBounds::atMost(4.0))
          .compile();
  EXPECT_EQ(analyzer.featureCount(), 1u);
  const auto report = analyzer.evaluate();
  EXPECT_NEAR(report.metric, 4.0 / std::sqrt(2.0), 1e-12);
}

TEST(FepiaBuilder, RequiresAllSteps) {
  FepiaBuilder noParam("r");
  noParam.affineFeature("phi", {1.0}, 0.0, ToleranceBounds::atMost(1.0));
  EXPECT_THROW((void)noParam.compile(), InvalidArgumentError);

  FepiaBuilder noFeatures("r");
  noFeatures.perturbation("pi", {0.0});
  EXPECT_THROW((void)noFeatures.compile(), InvalidArgumentError);
}

TEST(FepiaBuilder, SingleShot) {
  FepiaBuilder b("r");
  b.perturbation("pi", {0.0});
  b.affineFeature("phi", {1.0}, 0.0, ToleranceBounds::atMost(1.0));
  (void)b.compile();
  EXPECT_THROW((void)b.compile(), InvalidArgumentError);
}

TEST(FepiaBuilder, RejectsSecondParameter) {
  FepiaBuilder b("r");
  b.perturbation("pi1", {0.0});
  EXPECT_THROW(b.perturbation("pi2", {0.0}), InvalidArgumentError);
}

TEST(FepiaBuilder, KeepsRequirementText) {
  FepiaBuilder b("makespan within 120%");
  EXPECT_EQ(b.requirement(), "makespan within 120%");
}

// ------------------------------------------------- compile validation

TEST(ProblemCompile, RejectsDimensionMismatch) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi", ImpactFunction::affine({1.0, 2.0, 3.0}, 0.0),
      ToleranceBounds::atMost(1.0)});
  PerturbationParameter parameter{"pi", {0.0, 0.0}, false, ""};
  EXPECT_THROW((void)CompiledProblem::compile(
                   {.features = std::move(features),
                    .parameter = std::move(parameter)}),
               InvalidArgumentError);
}

TEST(ProblemCompile, RejectsUnboundedFeature) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{
      "phi", ImpactFunction::affine({1.0}, 0.0), ToleranceBounds{}});
  PerturbationParameter parameter{"pi", {0.0}, false, ""};
  EXPECT_THROW((void)CompiledProblem::compile(
                   {.features = std::move(features),
                    .parameter = std::move(parameter)}),
               InvalidArgumentError);
}

TEST(ProblemCompile, RejectsEmptyInputs) {
  PerturbationParameter parameter{"pi", {0.0}, false, ""};
  EXPECT_THROW((void)CompiledProblem::compile({.parameter = parameter}),
               InvalidArgumentError);

  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{"phi",
                                        ImpactFunction::affine({1.0}, 0.0),
                                        ToleranceBounds::atMost(1.0)});
  PerturbationParameter empty{"pi", {}, false, ""};
  EXPECT_THROW((void)CompiledProblem::compile(
                   {.features = std::move(features),
                    .parameter = std::move(empty)}),
               InvalidArgumentError);
}

TEST(ReportIo, PrintsMetricBindingAndElision) {
  std::vector<PerformanceFeature> features;
  for (int f = 0; f < 6; ++f) {
    features.push_back(PerformanceFeature{
        "phi" + std::to_string(f),
        ImpactFunction::affine({1.0, static_cast<double>(f + 1)}, 0.0),
        ToleranceBounds::atMost(100.0 - 10.0 * f)});
  }
  PerturbationParameter parameter{"pi", {1.0, 1.0}, false, "widgets"};
  const auto analyzer = CompiledProblem::compile(
      {.features = std::move(features), .parameter = parameter});
  const auto report = analyzer.evaluate();

  std::ostringstream oss;
  ReportPrintOptions options;
  options.maxRadii = 3;
  options.showBoundaryPoints = true;
  printReport(oss, report, parameter, options);
  const std::string out = oss.str();
  EXPECT_NE(out.find("robustness metric rho ="), std::string::npos);
  EXPECT_NE(out.find("widgets"), std::string::npos);
  EXPECT_NE(out.find(" *"), std::string::npos);  // binding marker
  EXPECT_NE(out.find("elided"), std::string::npos);
  EXPECT_NE(out.find("pi*"), std::string::npos);
  EXPECT_NE(out.find("binding feature: "), std::string::npos);
}

TEST(ReportIo, ShowsAllRowsWhenUnderLimit) {
  std::vector<PerformanceFeature> features;
  features.push_back(PerformanceFeature{"only",
                                        ImpactFunction::affine({1.0}, 0.0),
                                        ToleranceBounds::atMost(2.0)});
  PerturbationParameter parameter{"pi", {0.0}, false, ""};
  const auto analyzer = CompiledProblem::compile(
      {.features = std::move(features), .parameter = parameter});
  std::ostringstream oss;
  printReport(oss, analyzer.evaluate(), parameter);
  EXPECT_EQ(oss.str().find("elided"), std::string::npos);
}

TEST(NormKind, ToStringNames) {
  EXPECT_EQ(toString(NormKind::L1), "l1");
  EXPECT_EQ(toString(NormKind::L2), "l2");
  EXPECT_EQ(toString(NormKind::LInf), "linf");
}

}  // namespace
}  // namespace robust::core

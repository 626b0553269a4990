// Differential pin of the multi-subspace/constraint refactor: reference
// values below were captured from the pre-refactor engine (single
// PerturbationParameter, no subspaces, no constraints) on deterministic
// problem families, printed in hexfloat. The refactored engine must
// reproduce every metric, radius, boundary level, argmin, and binding index
// BIT-FOR-BIT on these single-subspace unconstrained specs — the refactor's
// contract is that existing derivations are untouched. A second frozen
// block pins the final assignments of every mapping-search driver.
//
// The expected block is parsed (strtod hexfloat round-trips exactly), so the
// comparison is on double bits, not on printf formatting.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/core/impact.hpp"
#include "robust/core/stream.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/util/rng.hpp"

namespace {

using namespace robust;
using namespace robust::core;

// Frozen pre-refactor output (tools capture, 2026-08): one line per checked
// quantity, hexfloat-exact. Do NOT regenerate from current code — the value
// of this block is that it predates the refactor.
constexpr const char* kFrozenReference = R"(l2 evaluate metric=0x1.3cc393aea828fp+1 binding=6 floored=0
l2 radius[0]=0x1.0514a3d6cb304p+2 level=0x1.c5f28c70b3334p+4 method=analytic-l2
l2 radius[1]=0x1.b312dcd56270ap+2 level=-0x1.693bc92e8p+4 method=analytic-l2
l2 radius[2]=0x1.31211ab18c4fap+2 level=0x1.5ac5669cp+5 method=analytic-l2
l2 radius[3]=0x1.568cf337244b3p+2 level=0x1.08fc2ddep+5 method=analytic-l2
l2 radius[4]=0x1.1f0168280fd99p+3 level=-0x1.cf41b30ba6667p+4 method=analytic-l2
l2 radius[5]=0x1.91e1e850251bfp+2 level=0x1.760e064b33334p+5 method=analytic-l2
l2 radius[6]=0x1.3cc393aea828fp+1 level=0x1.955b9ac6b3334p+4 method=analytic-l2
l2 radius[7]=0x1.f6ffc290cca1bp+2 level=-0x1.9dede19a26667p+4 method=analytic-l2
l2 radius[8]=0x1.f696823321a4ep+1 level=0x1.2068059933334p+5 method=analytic-l2
l2 batchMetric[0]=0x1.71ecdac4f16c9p+1 binding=6
l2 batchMetric[1]=0x1.75317fc13b426p+1 binding=6
l2 batchMetric[2]=0x1.30f561f81477fp+1 binding=6
l2 batchMetric[3]=0x1.06a762bd42abap+2 binding=6
l2 batchMetric[4]=0x1.671dc101bb2fep+1 binding=6
l2 batchMetric[5]=0x1.7377f51a0f379p+1 binding=6
l2 batchMetric[6]=0x1.052734ceb1069p+2 binding=6
l2 batchMetric[7]=0x1.960bb81a8d3adp+1 binding=6
l2 batchMetric[8]=0x1.6fe1be03246a1p+1 binding=6
l2 batchMetric[9]=0x1.785156a5689edp+1 binding=6
l2 batchMetric[10]=0x1.530fada4b4b7ep+1 binding=6
l2 batchMetric[11]=0x1.63681f64ad9d2p+1 binding=6
l2 batchMetric[12]=0x1.56dd9e73ad366p+1 binding=6
l2 batchMetric[13]=0x1.67689c8f95f04p+1 binding=6
l2 batchMetric[14]=0x1.b1aa640dbb6e3p+1 binding=6
l2 batchMetric[15]=0x1.8052346a90f88p+1 binding=6
l2 batchMetric[16]=0x1.0978a561dbe62p+2 binding=6
l2 stream metric=0x1.30f561f81477fp+1 argmin=2 binding=6 floored=0
l1 evaluate metric=0x1.b8ba51f649538p+0 binding=3 floored=0
l1 radius[0]=0x1.4d83c75ca7f43p+2 level=0x1.52763dcdb3333p+4 method=analytic-l1
l1 radius[1]=0x1.c05f43634a28ap+3 level=-0x1.4b621c239999ap+4 method=analytic-l1
l1 radius[2]=0x1.b327b750b6a7ap+3 level=-0x1.6ab4aa2666666p+4 method=analytic-l1
l1 radius[3]=0x1.b8ba51f649538p+0 level=0x1.e2624fe766667p+3 method=analytic-l1
l1 radius[4]=0x1.351d0550cdbfep+4 level=-0x1.9906b0dep+4 method=analytic-l1
l1 radius[5]=0x1.7a286113a5affp+3 level=0x1.d5691cbd9999ap+4 method=analytic-l1
l1 radius[6]=0x1.4e7eb5d3404f6p+3 level=0x1.c29b65878p+4 method=analytic-l1
l1 batchMetric[0]=0x1.8bd6c309b5478p+1 binding=3
l1 batchMetric[1]=0x1.27c714fd4187cp+0 binding=3
l1 batchMetric[2]=0x1.8626dfd6de604p+1 binding=3
l1 batchMetric[3]=0x1.7631b5726cf5dp+0 binding=3
l1 batchMetric[4]=0x1.6c4f08c9355afp+1 binding=3
l1 batchMetric[5]=0x1.09e3a88e9406dp+2 binding=3
l1 batchMetric[6]=0x1.2af3b4f599afap+2 binding=3
l1 batchMetric[7]=0x1.e7762cd48bf7cp+1 binding=3
l1 batchMetric[8]=0x1.4aab7f4b94674p+0 binding=3
l1 batchMetric[9]=0x1.85a2e8b4b60cp+0 binding=3
l1 batchMetric[10]=0x1.13c997e4b560fp-2 binding=3
l1 batchMetric[11]=0x1.fe20ea75ba775p+1 binding=3
l1 batchMetric[12]=0x1.a4997dacc25e1p+1 binding=3
l1 batchMetric[13]=0x1.1265e6f6b1966p+2 binding=3
l1 batchMetric[14]=0x1.59f21e5766b98p-1 binding=3
l1 batchMetric[15]=0x1.d0b04ae66bb07p-8 binding=3
l1 batchMetric[16]=0x1.17f32badfe5c7p+1 binding=3
l1 stream metric=0x1.d0b04ae66bb07p-8 argmin=15 binding=3 floored=0
linf evaluate metric=0x1.fe1139ad56004p-3 binding=3 floored=0
linf radius[0]=0x1.6a7454292b17cp-1 level=0x1.52763dcdb3333p+4 method=analytic-linf
linf radius[1]=0x1.0a32bfd83c97ap+1 level=-0x1.4b621c239999ap+4 method=analytic-linf
linf radius[2]=0x1.0b23bcbba6f5fp+1 level=-0x1.6ab4aa2666666p+4 method=analytic-linf
linf radius[3]=0x1.fe1139ad56004p-3 level=0x1.e2624fe766667p+3 method=analytic-linf
linf radius[4]=0x1.3590cc98b119cp+1 level=-0x1.9906b0dep+4 method=analytic-linf
linf radius[5]=0x1.718f077895e12p+0 level=0x1.d5691cbd9999ap+4 method=analytic-linf
linf radius[6]=0x1.80e380cbb5da3p+0 level=0x1.c29b65878p+4 method=analytic-linf
linf batchMetric[0]=0x1.ca1db4cb6d1f4p-2 binding=3
linf batchMetric[1]=0x1.564feccde17fcp-3 binding=3
linf batchMetric[2]=0x1.c388c3c523cc6p-2 binding=3
linf batchMetric[3]=0x1.b110e1d77db7ap-3 binding=3
linf batchMetric[4]=0x1.a5a00edd747f8p-2 binding=3
linf batchMetric[5]=0x1.33b8b5008efc6p-1 binding=3
linf batchMetric[6]=0x1.59fc66557977bp-1 binding=3
linf batchMetric[7]=0x1.1a13ac717469ap-1 binding=3
linf batchMetric[8]=0x1.7eb1ac2471dcp-3 binding=3
linf batchMetric[9]=0x1.c2f0098dde92dp-3 binding=3
linf batchMetric[10]=0x1.3f2d4df92ede3p-5 binding=3
linf batchMetric[11]=0x1.273183d99424bp-1 binding=3
linf batchMetric[12]=0x1.e6c5b443dda36p-2 binding=3
linf batchMetric[13]=0x1.3d91a71aeaa3ap-1 binding=3
linf batchMetric[14]=0x1.905f8cb7a341fp-4 binding=3
linf batchMetric[15]=0x1.0ce6204cc9244p-10 binding=3
linf batchMetric[16]=0x1.43fe875143935p-2 binding=3
linf stream metric=0x1.0ce6204cc9244p-10 argmin=15 binding=3 floored=0
wgt evaluate metric=0x1.ca183bcf08302p+0 binding=0 floored=0
wgt radius[0]=0x1.ca183bcf08302p+0 level=0x1.34fec25fap+4 method=analytic-weighted
wgt radius[1]=0x1.0ea88120ae0f9p+3 level=-0x1.95fa898acp+4 method=analytic-weighted
wgt radius[2]=0x1.68af79400f0b4p+2 level=0x1.26eda84dp+5 method=analytic-weighted
wgt radius[3]=0x1.85206378b191dp+1 level=0x1.2f860b4ap+4 method=analytic-weighted
wgt radius[4]=0x1.0d2382ee6942ep+3 level=-0x1.f4b3f4bf8p+4 method=analytic-weighted
wgt radius[5]=0x1.6c56476c61646p+1 level=0x1.e1f088bep+4 method=analytic-weighted
wgt radius[6]=0x1.3cdf113f42b16p+2 level=0x1.13670e5e6p+5 method=analytic-weighted
wgt radius[7]=0x1.b770de6f6c57cp+2 level=-0x1.4ab9db166p+4 method=analytic-weighted
wgt batchMetric[0]=0x1.2becf4618d3cap+1 binding=3
wgt batchMetric[1]=0x1.015702db6a722p+1 binding=0
wgt batchMetric[2]=0x1.13e4299942766p+1 binding=3
wgt batchMetric[3]=0x1.44118b5e79e37p+1 binding=0
wgt batchMetric[4]=0x1.21358afc3578dp+1 binding=0
wgt batchMetric[5]=0x1.2026f43d8f049p+1 binding=3
wgt batchMetric[6]=0x1.0382e840dfb52p+1 binding=3
wgt batchMetric[7]=0x1.173ce0aba2e2p+1 binding=0
wgt batchMetric[8]=0x1.2b40313a9c4b8p+0 binding=0
wgt batchMetric[9]=0x1.a4d616cae3e23p+0 binding=0
wgt batchMetric[10]=0x1.5ff552635fedp+1 binding=0
wgt batchMetric[11]=0x1.a75361c74a6e2p+0 binding=0
wgt batchMetric[12]=0x1.9378816b1ea96p-1 binding=0
wgt batchMetric[13]=0x1.0a2c68416ecf9p+1 binding=3
wgt batchMetric[14]=0x1.4164d8539408cp+0 binding=0
wgt batchMetric[15]=0x1.29df66f3a5d2p+0 binding=0
wgt batchMetric[16]=0x1.f268900ef0526p+0 binding=3
wgt stream metric=0x1.9378816b1ea96p-1 argmin=12 binding=0 floored=0
disc evaluate metric=0x0p+0 binding=0 floored=1
disc radius[0]=0x0p+0 level=0x1.9e0d896c1p+4 method=violated-at-origin
disc radius[1]=0x1.d1ea22ec1d472p+2 level=-0x1.828cbace26667p+3 method=analytic-l2
disc radius[2]=0x1.596d676005b37p+1 level=0x1.55236b4299999p+4 method=analytic-l2
disc radius[3]=0x1.50fd85dc5a328p+1 level=0x1.567ee5bdep+4 method=analytic-l2
disc radius[4]=0x1.53ce18af39bc1p+3 level=-0x1.493293192cccdp+4 method=analytic-l2
disc radius[5]=0x1.2cb45ed39bbe7p+1 level=0x1.39836f5f66666p+4 method=analytic-l2
disc batchMetric[0]=0x1p+0 binding=0
disc batchMetric[1]=0x0p+0 binding=0
disc batchMetric[2]=0x1p+0 binding=0
disc batchMetric[3]=0x0p+0 binding=0
disc batchMetric[4]=0x0p+0 binding=0
disc batchMetric[5]=0x0p+0 binding=0
disc batchMetric[6]=0x1p+0 binding=0
disc batchMetric[7]=0x1p+0 binding=0
disc batchMetric[8]=0x1p+0 binding=0
disc batchMetric[9]=0x0p+0 binding=0
disc batchMetric[10]=0x0p+0 binding=0
disc batchMetric[11]=0x1p+0 binding=0
disc batchMetric[12]=0x1p+0 binding=0
disc batchMetric[13]=0x0p+0 binding=0
disc batchMetric[14]=0x0p+0 binding=0
disc batchMetric[15]=0x0p+0 binding=0
disc batchMetric[16]=0x0p+0 binding=0
disc stream metric=0x0p+0 argmin=1 binding=0 floored=1)";

// The exact problem family the capture tool used: `rows` affine features
// over `dim` components, mixed one- and two-sided bounds, all RNG streams
// pinned.
ProblemSpec makeSpec(std::size_t dim, std::size_t rows, NormKind norm,
                     bool discrete) {
  Pcg32 rng(7, 11);
  std::vector<PerformanceFeature> features;
  for (std::size_t r = 0; r < rows; ++r) {
    num::Vec w(dim);
    for (double& v : w) {
      v = rng.uniform(-1.0, 2.0);
    }
    const double c = rng.uniform(-0.5, 0.5);
    ToleranceBounds b;
    if (r % 3 == 0) {
      b = ToleranceBounds::atMost(rng.uniform(0.9, 1.8) *
                                  static_cast<double>(dim));
    } else if (r % 3 == 1) {
      b = ToleranceBounds::atLeast(rng.uniform(-1.8, -0.9) *
                                   static_cast<double>(dim));
    } else {
      b = ToleranceBounds::between(
          rng.uniform(-2.0, -1.2) * static_cast<double>(dim),
          rng.uniform(1.2, 2.0) * static_cast<double>(dim));
    }
    features.push_back(PerformanceFeature{
        "f" + std::to_string(r), ImpactFunction::affine(std::move(w), c), b});
  }
  num::Vec origin(dim);
  Pcg32 org(7, 23);
  for (double& v : origin) {
    v = discrete ? static_cast<double>(org.nextBounded(5))
                 : org.uniform(0.25, 1.75);
  }
  PerturbationParameter parameter{"pi", std::move(origin), discrete, "units"};
  AnalyzerOptions options;
  options.norm = norm;
  if (norm == NormKind::Weighted) {
    options.normWeights.resize(dim);
    Pcg32 wrng(7, 31);
    for (double& v : options.normWeights) {
      v = wrng.uniform(0.5, 2.0);
    }
  }
  ProblemSpec spec;
  spec.features = std::move(features);
  spec.parameter = std::move(parameter);
  spec.options = std::move(options);
  return spec;
}

std::vector<double> makeBatch(std::size_t dim, std::size_t count) {
  std::vector<double> values(dim * count);
  Pcg32 rng(99, 5);
  for (double& v : values) {
    v = rng.uniform(0.0, 2.0);
  }
  return values;
}

struct FrozenLines {
  std::vector<std::string> lines;
  std::size_t next = 0;

  std::string take() {
    EXPECT_LT(next, lines.size()) << "frozen reference exhausted";
    return next < lines.size() ? lines[next++] : std::string();
  }
};

FrozenLines loadFrozen(const char* text = kFrozenReference) {
  FrozenLines frozen;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      frozen.lines.push_back(line);
    }
  }
  return frozen;
}

// Runs one configuration through evaluate / analyzeBatchMetric /
// analyzeStreamValues and asserts every quantity equals the frozen bits.
void checkConfig(FrozenLines& frozen, const char* tag, std::size_t dim,
                 std::size_t rows, NormKind norm, bool discrete) {
  SCOPED_TRACE(tag);
  const CompiledProblem p =
      CompiledProblem::compile(makeSpec(dim, rows, norm, discrete));

  const RobustnessReport rep = p.evaluate();
  {
    char expTag[32];
    double metric = 0.0;
    std::size_t binding = 0;
    int floored = 0;
    const std::string line = frozen.take();
    ASSERT_EQ(std::sscanf(line.c_str(), "%31s evaluate metric=%la binding=%zu floored=%d",
                          expTag, &metric, &binding, &floored),
              4)
        << line;
    ASSERT_STREQ(expTag, tag);
    EXPECT_EQ(rep.metric, metric);
    EXPECT_EQ(rep.bindingFeature, binding);
    EXPECT_EQ(rep.floored, floored == 1);
  }
  ASSERT_EQ(rep.radii.size(), rows);
  for (std::size_t i = 0; i < rows; ++i) {
    char expTag[32];
    char method[32];
    std::size_t index = 0;
    double radius = 0.0;
    double level = 0.0;
    const std::string line = frozen.take();
    ASSERT_EQ(std::sscanf(line.c_str(), "%31s radius[%zu]=%la level=%la method=%31s",
                          expTag, &index, &radius, &level, method),
              5)
        << line;
    ASSERT_EQ(index, i);
    EXPECT_EQ(rep.radii[i].radius, radius) << "radius " << i;
    EXPECT_EQ(rep.radii[i].boundaryLevel, level) << "level " << i;
    EXPECT_EQ(rep.radii[i].method, method) << "method " << i;
  }

  const std::vector<double> batch = makeBatch(dim, 17);
  std::vector<AnalysisInstance> instances(17);
  for (std::size_t i = 0; i < 17; ++i) {
    instances[i].origin =
        std::span<const double>(batch).subspan(i * dim, dim);
  }
  const auto metrics = p.analyzeBatchMetric(instances, 3);
  ASSERT_EQ(metrics.size(), 17u);
  for (std::size_t i = 0; i < 17; ++i) {
    char expTag[32];
    std::size_t index = 0;
    double metric = 0.0;
    std::size_t binding = 0;
    const std::string line = frozen.take();
    ASSERT_EQ(std::sscanf(line.c_str(), "%31s batchMetric[%zu]=%la binding=%zu",
                          expTag, &index, &metric, &binding),
              4)
        << line;
    ASSERT_EQ(index, i);
    EXPECT_EQ(metrics[i].metric, metric) << "batch metric " << i;
    EXPECT_EQ(metrics[i].bindingFeature, binding) << "batch binding " << i;
  }

  const StreamResult s = analyzeStreamValues(p, batch, StreamOptions{5, 2});
  {
    char expTag[32];
    double metric = 0.0;
    std::size_t argmin = 0;
    std::size_t binding = 0;
    int floored = 0;
    const std::string line = frozen.take();
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "%31s stream metric=%la argmin=%zu binding=%zu floored=%d",
                          expTag, &metric, &argmin, &binding, &floored),
              5)
        << line;
    EXPECT_EQ(s.metric, metric);
    EXPECT_EQ(s.argminInstance, argmin);
    EXPECT_EQ(s.bindingFeature, binding);
    EXPECT_EQ(s.floored, floored == 1);
  }
}

TEST(RefactorDifferential, SingleSubspaceUnconstrainedBitIdentical) {
  FrozenLines frozen = loadFrozen();
  checkConfig(frozen, "l2", 24, 9, NormKind::L2, false);
  checkConfig(frozen, "l1", 16, 7, NormKind::L1, false);
  checkConfig(frozen, "linf", 16, 7, NormKind::LInf, false);
  checkConfig(frozen, "wgt", 20, 8, NormKind::Weighted, false);
  checkConfig(frozen, "disc", 12, 6, NormKind::L2, true);
  EXPECT_EQ(frozen.next, frozen.lines.size())
      << "frozen reference has unchecked lines";
}

// The same family expressed as an explicit single subspace must also match
// the frozen values: explicit-subspace compilation routes through the same
// arithmetic as the legacy parameter form.
TEST(RefactorDifferential, ExplicitSingleSubspaceMatchesLegacyForm) {
  for (const NormKind norm :
       {NormKind::L2, NormKind::L1, NormKind::LInf, NormKind::Weighted}) {
    ProblemSpec legacy = makeSpec(14, 6, norm, false);
    ProblemSpec viaSubspace = legacy;

    PerturbationSubspace sub;
    sub.name = viaSubspace.parameter.name;
    sub.origin = viaSubspace.parameter.origin;
    sub.norm = static_cast<int>(norm);
    sub.normWeights = viaSubspace.parameter.discrete
                          ? num::Vec{}
                          : viaSubspace.options.normWeights;
    sub.discrete = viaSubspace.parameter.discrete;
    sub.units = viaSubspace.parameter.units;
    viaSubspace.parameter = PerturbationParameter{};
    viaSubspace.subspaces.push_back(std::move(sub));

    const RobustnessReport a =
        CompiledProblem::compile(std::move(legacy)).evaluate();
    const RobustnessReport b =
        CompiledProblem::compile(std::move(viaSubspace)).evaluate();
    ASSERT_EQ(a.radii.size(), b.radii.size());
    EXPECT_EQ(a.metric, b.metric);
    EXPECT_EQ(a.bindingFeature, b.bindingFeature);
    for (std::size_t i = 0; i < a.radii.size(); ++i) {
      EXPECT_EQ(a.radii[i].radius, b.radii[i].radius) << i;
      EXPECT_EQ(a.radii[i].method, b.radii[i].method) << i;
    }
  }
}

// Frozen final assignments of every mapping-search driver, captured before
// the per-algorithm twins were collapsed onto one driver each. The twin
// tests in test_sched_incremental compare two evaluators through the SAME
// driver, so a tie-break, RNG-stream or draw-order change inside a driver
// would pass them; this block pins the drivers themselves.
constexpr const char* kFrozenSearchReference = R"(localSearch.t1[0]=2,2,2,0,2,1,3,3,0,2,0,1,5,4,4,0,0,0,3,3,1,0,5,2
localSearch.t2[0]=2,2,2,0,2,1,3,3,0,2,0,1,5,4,4,0,0,0,3,3,1,0,5,2
simulatedAnnealing[0]=5,4,4,0,0,2,2,0,3,0,3,1,5,1,1,0,4,3,4,2,3,1,1,4
geneticAlgorithm[0]=2,1,0,5,0,1,5,3,3,2,0,1,2,0,2,4,5,5,4,2,3,3,0,5
tabuSearch[0]=2,2,2,0,2,1,3,3,0,2,0,1,5,4,4,0,0,0,3,3,1,0,5,2
localSearch.t1[1]=1,1,1,1,0,0,1,1,1,3,3,4,0,2,4,2,2,3,4,0,0,1,2,2,0,0,2,1,1,0
localSearch.t2[1]=1,1,1,1,0,0,1,1,1,3,3,4,0,2,4,2,2,3,4,0,0,1,2,2,0,0,2,1,1,0
simulatedAnnealing[1]=1,0,2,1,0,1,2,0,0,0,0,4,0,0,2,0,1,4,0,4,4,0,4,2,2,0,3,3,0,0
geneticAlgorithm[1]=3,0,0,1,0,3,1,4,2,3,3,4,2,2,2,3,1,4,3,4,4,2,4,0,1,0,0,0,1,1
tabuSearch[1]=1,1,1,1,0,0,1,1,1,3,3,4,0,2,4,2,2,3,4,0,0,1,2,2,0,0,2,1,1,0
localSearch.t1[2]=11,31,7,19,18,7,15,13,21,12,16,8,0,31,24,5,27,3,1,22,1,2,13,14,11,0,24,6,26,35,6,14,18,12,3,19,5,2,16,1,9,17,17,4,25,28,8,21
localSearch.t2[2]=11,31,7,19,18,7,15,13,21,12,16,8,0,31,24,5,27,3,1,22,1,2,13,14,11,0,24,6,26,35,6,14,18,12,3,19,5,2,16,1,9,17,17,4,25,28,8,21
simulatedAnnealing[2]=3,14,22,34,23,10,20,30,32,22,9,11,16,6,31,0,21,16,33,6,18,1,1,15,26,6,0,28,20,9,31,25,5,7,18,16,25,5,10,13,33,3,28,24,30,18,35,12
geneticAlgorithm[2]=25,32,25,18,6,5,15,18,1,6,5,13,17,11,4,6,22,33,11,9,16,31,34,2,20,31,14,8,20,7,28,0,18,19,27,34,24,11,21,7,15,7,33,7,16,4,26,21
tabuSearch[2]=10,31,14,16,5,0,17,15,2,12,16,8,3,31,24,3,27,3,26,4,9,2,6,14,11,0,24,6,8,35,6,14,18,12,1,7,1,2,16,1,9,10,17,4,25,28,8,21
annealMapping.hiperd[0]=0,1,2,1,1,2,0,1
annealMapping.hiperd[1]=0,2,1,2,0,1,0,1
annealMapping.hiperd[2]=1,2,1,0,2,1,1,0)";

TEST(RefactorDifferential, SearchDriversMatchFrozenAssignments) {
  FrozenLines frozen = loadFrozen(kFrozenSearchReference);
  auto expectFrozen = [&frozen](const std::string& tag, int index,
                                const sched::Mapping& mapping) {
    std::string line = tag + "[" + std::to_string(index) + "]=";
    for (std::size_t app = 0; app < mapping.apps(); ++app) {
      line += (app == 0 ? "" : ",") + std::to_string(mapping.machineOf(app));
    }
    EXPECT_EQ(frozen.take(), line);
  };
  // One ETC instance per objective kind; the third has 36 machines, so the
  // incremental engine takes its sorted (large-fleet) path.
  constexpr std::size_t kApps[] = {24, 30, 48};
  constexpr std::size_t kMachines[] = {6, 5, 36};
  for (int index = 0; index < 3; ++index) {
    sched::EtcOptions options;
    options.apps = kApps[index];
    options.machines = kMachines[index];
    Pcg32 rng(500 + index);
    const sched::EtcMatrix etc = sched::generateEtc(options, rng);
    const sched::Mapping start =
        sched::randomMapping(etc.apps(), etc.machines(), rng);
    const double cap = 1.2 * sched::makespan(etc, sched::minMinMapping(etc));
    const sched::EtcObjective objective =
        index == 0   ? sched::EtcObjective::makespan()
        : index == 1 ? sched::EtcObjective::negatedRobustness(1.2)
                     : sched::EtcObjective::cappedRobustness(1.2, cap);
    for (const std::size_t threads : {1u, 2u}) {
      sched::LocalSearchOptions search;
      search.threads = threads;
      expectFrozen("localSearch.t" + std::to_string(threads), index,
                   sched::localSearch(etc, start, objective, search));
    }
    sched::AnnealingOptions annealing;
    annealing.iterations = 3000;
    annealing.seed = 40 + index;
    expectFrozen("simulatedAnnealing", index,
                 sched::simulatedAnnealing(etc, start, objective, annealing));
    sched::GeneticOptions genetic;
    genetic.populationSize = 16;
    genetic.generations = 20;
    genetic.seed = 50 + index;
    expectFrozen("geneticAlgorithm", index,
                 sched::geneticAlgorithm(etc, start, objective, genetic));
    sched::TabuOptions tabu;
    tabu.iterations = 60;
    expectFrozen("tabuSearch", index,
                 sched::tabuSearch(etc, start, objective.generic(etc), tabu));
  }
  for (int index = 0; index < 3; ++index) {
    hiperd::ScenarioOptions options;
    options.applications = 8;
    options.machines = 3;
    options.targetPaths = 6;
    const auto generated = hiperd::generateScenario(options, 2003 + index);
    const hiperd::CompiledScenario compiled = generated.scenario.compile();
    Pcg32 rng(600 + index);
    const sched::Mapping start =
        sched::randomMapping(options.applications, options.machines, rng);
    sched::AnnealingOptions annealing;
    annealing.iterations = 400;
    annealing.seed = 60 + index;
    expectFrozen("annealMapping.hiperd", index,
                 sched::annealMapping(options.applications, options.machines,
                                      start,
                                      hiperd::robustnessObjective(compiled),
                                      annealing));
  }
  EXPECT_EQ(frozen.next, frozen.lines.size());
}

}  // namespace

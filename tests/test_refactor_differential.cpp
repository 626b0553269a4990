// Differential pin of the multi-subspace/constraint refactor: reference
// values below were captured from the pre-refactor engine (single
// PerturbationParameter, no subspaces, no constraints) on deterministic
// problem families, printed in hexfloat. The refactored engine must
// reproduce every metric, radius, boundary level, argmin, and binding index
// BIT-FOR-BIT on these single-subspace unconstrained specs — the refactor's
// contract is that existing derivations are untouched. A second frozen
// block pins every per-row report field of the lanes that scale rows,
// combine subspaces or clip to constraints, a third the final assignments
// of every mapping-search driver, and a fourth those of the genetic
// algorithm on plan's shape and on its edge options.
//
// The expected block is parsed (strtod hexfloat round-trips exactly), so the
// comparison is on double bits, not on printf formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/core/impact.hpp"
#include "robust/core/stream.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/numeric/vector_ops.hpp"
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

// Frozen per-row reports of the analytic lanes that scale or combine rows:
// multi-subspace specs (mixed L1/L2/LInf/Weighted blocks), single-subspace
// instances with constants and scales != 1, and constrained specs whose
// boundary points the feasibility clip replaces. Captured in hexfloat
// before the per-row report code of CompiledProblem was folded into one
// displacement routine and one report shell; every field must stay
// bit-identical. Do NOT regenerate from current code.
constexpr const char* kFrozenRowReference = R"(multi.l1l2.default r0 radius=0x1.cf6c16d29e7a9p-2 level=0x1.30bae0380657p+2 reach=1 method=analytic-multi point=0x1.8241f4e4p-1,0x1.8b1caadep-1,0x1.f908dc7cp-1,0x1.ee1c5386p-2,0x1.16bbefab53cf5p+1,0x1.061278ad971bp+0,0x1.cbe71fd8c811ep-1,0x1.89701aa50a622p+0,0x1.00f9c1fcd4becp-1
multi.l1l2.default r1 radius=0x0p+0 level=0x1.f2390675f3674p+2 reach=1 method=violated-at-origin point=0x1.8241f4e4p-1,0x1.8b1caadep-1,0x1.f908dc7cp-1,0x1.ee1c5386p-2,0x1.b99cd9a2p+0,0x1.149bc2198p+0,0x1.00c63cb2p-1,0x1.84c166ba8p+0,0x1.6c31ddd6p-1
multi.l1l2.default r2 radius=0x1.eff2d1ecd32f8p+0 level=0x1.d7ef5b49e0bp-4 reach=1 method=analytic-multi point=0x1.8241f4e4p-1,0x1.8b1caadep-1,0x1.f908dc7cp-1,0x1.ee1c5386p-2,0x1.b99cd9a2p+0,0x1.80120bb1be806p-1,0x1.ef82a5f81bc4p-1,-0x1.c2aa409b783ap-3,0x1.36ed58673a0ep-4
multi.l1l2.default r3 radius=0x1.5cf51cbb3bc54p+0 level=0x1.07a211f51dbaap+1 reach=1 method=analytic-multi point=0x1.8241f4e4p-1,0x1.1141b9151de2ap+1,0x1.f908dc7cp-1,0x1.ee1c5386p-2,0x1.b99cd9a2p+0,0x1.9a09b4171d756p-1,-0x1.ef96c8d315994p-2,0x1.5d42360b8d4aap-1,0x1.862fd6cbdbc72p-2
multi.l1l2.default r4 radius=0x1.3331cfb638404p-1 level=0x1.9de54817ba998p-1 reach=1 method=analytic-multi point=0x1.8241f4e4p-1,0x1.5fab6c9f1effp-3,0x1.f908dc7cp-1,0x1.ee1c5386p-2,0x1.b99cd9a2p+0,0x1.50254aa55e17dp+0,0x1.dd82f4e9e6b8fp-1,0x1.30deaed86b16dp+0,0x1.3298704ed1a16p-1
multi.l1l2.default r5 radius=0x1.f101dc9fcdf11p-2 level=0x1.5f4570265e5f6p+3 reach=1 method=analytic-multi point=0x1.8241f4e4p-1,0x1.8b1caadep-1,0x1.f908dc7cp-1,0x1.ef8f1812e6f88p-1,0x1.b99cd9a2p+0,0x1.e770308fa21dap-1,0x1.b961a89f40128p-1,0x1.c1bb68eda7aa2p+0,0x1.c840f9714e0ccp-1
multi.l1l2.default r6 radius=0x1.21dbc90a4fffbp-3 level=0x1.a61e441c64092p+2 reach=1 method=analytic-multi point=0x1.8241f4e4p-1,0x1.8b1caadep-1,0x1.20bfe75f49fffp+0,0x1.ee1c5386p-2,0x1.b99cd9a2p+0,0x1.1ef796239ccfp+0,0x1.3ec48cd73b13bp-1,0x1.75588df74efb2p+0,0x1.71925c6c8c2bcp-1
multi.l1l2.scaled r0 radius=0x0p+0 level=0x1.49d179a598f0dp+2 reach=1 method=violated-at-origin point=0x1.ba727e1f8p+0,0x1.c16fecb5p-1,0x1.6cea68d1p-1,0x1.3c4e93acp-1,0x1.f8649174p-2,0x1.3ab7ea92p-2,0x1.94442d558p+0,0x1.b2853401p-1,0x1.cdcbf9d9p-1
multi.l1l2.scaled r1 radius=0x1.2cd4e72e8881ap+0 level=0x1.d2390675f3674p+2 reach=1 method=analytic-multi point=0x1.ba727e1f8p+0,0x1.06c66ec48440dp+1,0x1.6cea68d1p-1,0x1.3c4e93acp-1,0x1.f8649174p-2,0x1.2a73524d951c4p+0,0x1.91fe926b109bep+0,0x1.82103c68f0c5cp+0,0x1.5bf2d60a5031dp+0
multi.l1l2.scaled r2 radius=0x1.95149d8b26292p-1 level=0x1.d7ef5b49e0bp-4 reach=1 method=analytic-multi point=0x1.ba727e1f8p+0,0x1.c16fecb5p-1,0x1.6cea68d1p-1,0x1.3c4e93acp-1,0x1.f8649174p-2,0x1.6120559bb0ca2p-3,0x1.c503d55c75d0dp+0,0x1.1becab8aa2becp-3,0x1.48ef913e56846p-1
multi.l1l2.scaled r3 radius=0x1.04af3fcd6ecd9p+1 level=0x1.07a211f51dbaap+1 reach=1 method=analytic-multi point=0x1.ba727e1f8p+0,0x1.750b3afaaecd9p+1,0x1.6cea68d1p-1,0x1.3c4e93acp-1,0x1.f8649174p-2,-0x1.c47d1f3a81708p-4,0x1.b5586e983fe5p-4,-0x1.9aa489ba78e28p-2,0x1.a24af8cf18772p-2
multi.l1l2.scaled r4 radius=0x1.64871f8bbfacbp-2 level=0x1.9de54817ba998p-1 reach=1 method=analytic-multi point=0x1.ba727e1f8p+0,0x1.0f2c5cef2029bp-1,0x1.6cea68d1p-1,0x1.3c4e93acp-1,0x1.f8649174p-2,0x1.c4ea58679bd47p-2,0x1.d45014b7f1ec6p+0,0x1.5129cc80ec128p-1,0x1.ac5f41c9323fep-1
multi.l1l2.scaled r5 radius=0x0p+0 level=0x1.a126bc699fcecp+3 reach=1 method=violated-at-origin point=0x1.ba727e1f8p+0,0x1.c16fecb5p-1,0x1.6cea68d1p-1,0x1.3c4e93acp-1,0x1.f8649174p-2,0x1.3ab7ea92p-2,0x1.94442d558p+0,0x1.b2853401p-1,0x1.cdcbf9d9p-1
multi.l1l2.scaled r6 radius=0x1.1029d13792a1bp-3 level=0x1.a61e441c64092p+2 reach=1 method=analytic-multi point=0x1.ba727e1f8p+0,0x1.c16fecb5p-1,0x1.b0f4dd1ee4a86p-1,0x1.3c4e93acp-1,0x1.f8649174p-2,0x1.619fad7c37441p-2,0x1.b15ee92b52ed1p+0,0x1.95952835d2167p-1,0x1.d2d8704ce9d48p-1
multi.linfwl2.default r0 radius=0x1.88ef12ea5e577p-2 level=0x1.3ba373f328d66p+3 reach=1 method=analytic-multi point=0x1.172678301795ep+0,0x1.36098640686a2p+0,0x1.27a031d29795ep+0,0x1.4b99743ee86a2p+0,0x1.f4c16e478760bp+0,0x1.bed63293bf09ap-1,0x1.37a9770bdd7adp+0,0x1.bb8eb69cbbdcdp-1,0x1.f594b9fdc4e24p-3,0x1.26eb67432cf14p-1,0x1.ad000370129bcp+0,0x1.7cec86a831555p+0
multi.linfwl2.default r1 radius=0x0p+0 level=0x1.afbcd46adba25p+2 reach=1 method=violated-at-origin point=0x1.69d566ebp-1,0x1.98454afbp+0,0x1.8ac8da3p-1,0x1.add538f98p+0,0x1.9b19652ep+0,0x1.c0f9adf8p-1,0x1.0a9b55adp+0,0x1.daaf4948p-1,0x1.42bdaa0ap-2,0x1.0e4744bep-1,0x1.5e8ef778p+0,0x1.4316a8dd8p+0
multi.linfwl2.default r2 radius=0x1.845137d2df1dep-2 level=0x1.c80582966cd8p-5 reach=1 method=analytic-multi point=0x1.69d566ebp-1,0x1.98454afbp+0,0x1.8ac8da3p-1,0x1.add538f98p+0,0x1.7348d18d9c142p+0,0x1.90f8362acaa47p-1,0x1.1ee9a18b38c67p+0,0x1.3afce1f39c2cbp+0,0x1.13f128bda8d4bp-1,0x1.5b11f82dd40bfp-1,0x1.1a304a86b1cbcp+0,0x1.09daca77cd62fp+0
multi.linfwl2.default r3 radius=0x1.c06699254e9fp-3 level=0x1.1b634b2199becp+3 reach=1 method=analytic-multi point=0x1.d9ef0d3453a7cp-1,0x1.d0521e1fa9d3ep+0,0x1.1aaf33e6ac584p-1,0x1.e5e20c1e29d3ep+0,0x1.88ab1958a5ab2p+0,0x1.d5e53596f844bp-1,0x1.2f5bcf27dcc9ap+0,0x1.a171c5061061dp-1,0x1.9ba9487678db8p-3,0x1.2144ffb388a36p-1,0x1.708e5acd3a2dfp+0,0x1.77507688a2bfap+0
multi.linfwl2.default r4 radius=0x1.87472bbdaf73cp-2 level=0x1.d5991b535de5p+1 reach=1 method=analytic-multi point=0x1.16bc7e64ebdcfp+0,0x1.3673800b94231p+0,0x1.273638076bdcfp+0,0x1.07d381f475ee7p+1,0x1.631616b9e9f2ep+0,0x1.70c7d96e9ca7cp-1,0x1.c41f988ef57b6p-1,0x1.676240261d68ap-1,0x1.9ab1c3a32d93dp-2,0x1.72492adaefb92p-3,0x1.37613786d065cp+0,0x1.374f3cd0edfa6p+0
multi.linfwl2.default r5 radius=0x1.065a17f46e7fdp-2 level=0x1.6c1136eb2f91cp+3 reach=1 method=analytic-multi point=0x1.ed0272e5373ffp-1,0x1.d9dbd0f81bap+0,0x1.079bce35c8c01p-1,0x1.ef6bbef69bap+0,0x1.b67124045e868p+0,0x1.e478ad619d1d6p-1,0x1.e43b475363d9p-1,0x1.a587f8eecb86dp-1,0x1.01d9fc1006b13p-1,0x1.665313e3998b2p-1,0x1.6ff761db8cd8bp+0,0x1.707bd1052fa3dp+0
multi.linfwl2.default r6 radius=0x1.da7ee6dcb4936p-4 level=0x1.542817aecb7e9p+3 reach=1 method=analytic-multi point=0x1.2e858a0f696d9p-1,0x1.b5ed3968cb493p+0,0x1.4f78fd54696d9p-1,0x1.cb7d27674b493p+0,0x1.b2ced4245066bp+0,0x1.d0abada496cd7p-1,0x1.12b0b2b40745dp+0,0x1.c24c1a897285p-1,0x1.71aef39fa439bp-2,0x1.1456c5ed59e24p-1,0x1.675c41a1fe791p+0,0x1.5f3edf0e67e75p+0
multi.linfwl2.default r7 radius=0x1.9447cfe85d6ep-4 level=0x1.4d99b5e2ff3b9p+3 reach=1 method=analytic-multi point=0x1.374c6cedf4524p-1,0x1.7f00cdfc7a292p+0,0x1.583fe032f4524p-1,0x1.9490bbfafa292p+0,0x1.8d044cb6a28fcp+0,0x1.a59a1dfc5af67p-1,0x1.0d352e30f811dp+0,0x1.fa0f3846326c1p-1,0x1.412fc8cf14a7ap-2,0x1.02751364efe06p-1,0x1.4a1c82fd0ef35p+0,0x1.3578a2d2e9b8fp+0
multi.linfwl2.scaled r0 radius=0x0p+0 level=0x1.52447075cc66bp+3 reach=1 method=violated-at-origin point=0x1.1fd86728p-2,0x1.a3fcd6058p+0,0x1.f9420582p-2,0x1.693db696p-2,0x1.3b7a190e8p+0,0x1.c92a3928p-1,0x1.5e340dd8p+0,0x1.d0c311a2p-2,0x1.e3c65a94p-2,0x1.864243cd8p+0,0x1.5319da4cp-2,0x1.f138590bp-1
multi.linfwl2.scaled r1 radius=0x0p+0 level=0x1.dd98768754c37p+2 reach=1 method=violated-at-origin point=0x1.1fd86728p-2,0x1.a3fcd6058p+0,0x1.f9420582p-2,0x1.693db696p-2,0x1.3b7a190e8p+0,0x1.c92a3928p-1,0x1.5e340dd8p+0,0x1.d0c311a2p-2,0x1.e3c65a94p-2,0x1.864243cd8p+0,0x1.5319da4cp-2,0x1.f138590bp-1
multi.linfwl2.scaled r2 radius=0x1.cb997f0ec3774p-4 level=0x1.c80582966cd8p-5 reach=1 method=analytic-multi point=0x1.1fd86728p-2,0x1.a3fcd6058p+0,0x1.f9420582p-2,0x1.693db696p-2,0x1.2fb232a6b00ddp+0,0x1.baf5dec9d6363p-1,0x1.64362ffb4abc4p+0,0x1.16548f36d3938p-1,0x1.13c9c7d87d354p-1,0x1.919eb070638b9p+0,0x1.022e42465b762p-2,0x1.cf599c99adcb6p-1
multi.linfwl2.scaled r3 radius=0x1.d852fe4f8b0dcp-3 level=0x1.1b634b2199becp+3 reach=1 method=analytic-multi point=0x1.0600f327e2c37p-1,0x1.df0735cf7161cp+0,0x1.0d18865a3a792p-2,0x1.2ab39adee2c37p-1,0x1.28101149a0aecp+0,0x1.df337c3e6e5cap-1,0x1.84ea7f26dbf4ep+0,0x1.582c6cad53af9p-2,0x1.68a08901f746ep-2,0x1.9042d2c88fd4fp+0,0x1.9eeeac191989ap-2,0x1.2f9f4b0fc044ap+0
multi.linfwl2.scaled r4 radius=0x1.ca8439b373227p-1 level=0x1.d5991b535de5p+1 reach=1 method=analytic-multi point=0x1.2d3836a3b9914p+0,0x1.7d7572578cdd9p-1,0x1.63929e3a39914p+0,0x1.3f918a7f39914p+0,0x1.70668437dacd1p-1,0x1.0d36bc8293d3p-1,0x1.fe5b58da00c18p-1,-0x1.2ec928e6dd618p-4,0x1.58f484694c68fp-1,0x1.6c074096ec246p-1,-0x1.c308177aa03ep-6,0x1.ba01f087216e7p-1
multi.linfwl2.scaled r5 radius=0x0p+0 level=0x1.9783598199a1cp+3 reach=1 method=violated-at-origin point=0x1.1fd86728p-2,0x1.a3fcd6058p+0,0x1.f9420582p-2,0x1.693db696p-2,0x1.3b7a190e8p+0,0x1.c92a3928p-1,0x1.5e340dd8p+0,0x1.d0c311a2p-2,0x1.e3c65a94p-2,0x1.864243cd8p+0,0x1.5319da4cp-2,0x1.f138590bp-1
multi.linfwl2.scaled r6 radius=0x1.cdf59b762f107p+0 level=0x1.542817aecb7e9p+3 reach=1 method=analytic-multi point=-0x1.85ff81ac2f107p+0,0x1.b8f938bdd7884p+1,-0x1.4fa51a15af107p+0,0x1.1422848dd7884p+1,0x1.5665aaf0f68a8p+1,0x1.5ed3d93279103p+0,0x1.dc1f1911771a2p+0,-0x1.27047babe3d74p-2,0x1.2fc0bcf3e2641p+0,0x1.b5765f59ba01ep+0,0x1.bbc527e5a651p-1,0x1.579c3cab8ad2cp+1
multi.linfwl2.scaled r7 radius=0x0p+0 level=0x1.9078c305caa26p+2 reach=1 method=violated-at-origin point=0x1.1fd86728p-2,0x1.a3fcd6058p+0,0x1.f9420582p-2,0x1.693db696p-2,0x1.3b7a190e8p+0,0x1.c92a3928p-1,0x1.5e340dd8p+0,0x1.d0c311a2p-2,0x1.e3c65a94p-2,0x1.864243cd8p+0,0x1.5319da4cp-2,0x1.f138590bp-1
multi.wl1linf.default r0 radius=0x1.588d3eff5f0aep-3 level=-0x1.5a96bd2bbc9e4p+1 reach=1 method=analytic-multi point=0x1.8373bd17b7038p+0,0x1.65a1f35a3608cp-1,0x1.1f307a7c27d07p+0,0x1.e9e19b9cp-1,0x1.8fdfd7dc941eap+0,0x1.42a655ef8p+0,0x1.ac37ad76507a9p-2,0x1.c801f594ebe16p+0
multi.wl1linf.default r1 radius=0x0p+0 level=0x1.18bdb44a830bp+2 reach=1 method=violated-at-origin point=0x1.9b0d5277p+0,0x1.27186ee6p-1,0x1.34d3d89dp+0,0x1.e9e19b9cp-1,0x1.baf17fbc8p+0,0x1.42a655ef8p+0,0x1.2c3f267bp-1,0x1.9cf04db5p+0
multi.wl1linf.default r2 radius=0x1.d9862c635c35p-1 level=-0x1.7885d0b21906bp+1 reach=1 method=analytic-multi point=0x1.9b0d5277p+0,0x1.27186ee6p-1,0x1.34d3d89dp+0,0x1.e1b3e3ffae1a8p+0,0x1.baf17fbc8p+0,0x1.42a655ef8p+0,0x1.82e2a96f2e1a8p+0,0x1.44d9b1f3570d4p+1
multi.wl1linf.default r3 radius=0x1.30778a4ffd675p-2 level=0x1.0f7b54a889a16p+1 reach=1 method=analytic-multi point=0x1.cfa6de2bf11a1p+0,0x1.194724030b77fp-1,0x1.03b5cec9afd86p+0,0x1.51a5d674014c6p-1,0x1.baf17fbc8p+0,0x1.42a655ef8p+0,0x1.c47aeba2feb3ap-1,0x1.e90e3048ff59dp+0
multi.wl1linf.default r4 radius=0x1.4e090625c36b1p-3 level=0x1.35ad60797712ep+2 reach=1 method=analytic-multi point=0x1.836edc89e9da7p+0,0x1.17a8c21dd5dd6p-1,0x1.16667d87820d4p+0,0x1.e9e19b9cp-1,0x1.baf17fbc8p+0,0x1.18e5352ac792ap+0,0x1.7fc1680470dacp-1,0x1.732f2cf04792ap+0
multi.wl1linf.default r5 radius=0x1.7637a06587c1dp-2 level=0x1.4ee27147bab92p+1 reach=1 method=analytic-multi point=0x1.912aae6b2bdfep+0,0x1.f2052d1dd92bp-3,0x1.00cd6b0854993p+0,0x1.2ec5cb693c1f1p-1,0x1.baf17fbc8p+0,0x1.42a655ef8p+0,0x1.e75af6adc3e0fp-1,0x1.3f62659b9e0f8p+0
multi.wl1linf.scaled r0 radius=0x1.d84f580e2e23bp-6 level=-0x1.5a96bd2bbc9e4p+1 reach=1 method=analytic-multi point=0x1.3d448201ac8dfp-1,0x1.91294ac369cfap-1,0x1.f2db57f485d23p-2,0x1.685de2eb8p+0,0x1.5025c5d98e8eep-1,0x1.7966f6e3p+0,0x1.9efcebeb47477p+0,0x1.1f3e7be5b8b89p+0
multi.wl1linf.scaled r1 radius=0x1.0555a893407e9p+0 level=0x1.f17b68950616p+1 reach=1 method=analytic-multi point=0x1.5b22965ed2c5ep-3,0x1.0af0ed6eb70b9p+0,0x1.4a9e2953a9042p+0,0x1.36d9c5bf603f4p+1,0x1.5ee8409ap-1,0x1.7966f6e3p+0,0x1.421101707f03p-1,0x1.0e99738c603f4p+1
multi.wl1linf.scaled r2 radius=0x1.155ad872abbabp+0 level=-0x1.7885d0b21906bp+1 reach=1 method=analytic-multi point=0x1.455af397p-1,0x1.8672120bp-1,0x1.00d801b7p-1,0x1.3edc5daf15dd6p+1,0x1.5ee8409ap-1,0x1.7966f6e3p+0,0x1.5ddc80df15dd5p+1,0x1.169c0b7c15dd5p+1
multi.wl1linf.scaled r3 radius=0x1.024fe4ec3c48p-1 level=0x1.0f7b54a889a16p+1 reach=1 method=analytic-multi point=0x1.f7dc09d747057p-1,0x1.6efff044be5c6p-1,0x1.68a1771e42efep-3,0x1.ce6be0eac3b8p-1,0x1.5ee8409ap-1,0x1.7966f6e3p+0,0x1.13c30de0cf12p+1,0x1.990530fb9e24p+0
multi.wl1linf.scaled r4 radius=0x1.185822abb7005p-5 level=0x1.35ad60797712ep+2 reach=1 method=analytic-multi point=0x1.3b71a89040efep-1,0x1.8334f1bedd9a7p-1,0x1.e826ace68c562p-2,0x1.685de2eb8p+0,0x1.5ee8409ap-1,0x1.70a435cda248p+0,0x1.af20ea60ddb8p+0,0x1.0f1a7d702248p+0
multi.wl1linf.scaled r5 radius=0x1.1d1c8112855fap-4 level=0x1.4ee27147bab92p+1 reach=1 method=analytic-multi point=0x1.4196eb904e819p-1,0x1.65f3f358eae3cp-1,0x1.da0cdfce66bbp-2,0x1.568c1ada57aap+0,0x1.5ee8409ap-1,0x1.7966f6e3p+0,0x1.b82ff15ca856p+0,0x1.060b767457aap+0
single.0.default r0 radius=0x1.167b3cb3c3df9p-1 level=0x1.6b873827cbb46p+1 reach=1 method=analytic-l1 point=0x1.bf48e32d8p+0,0x1.5bc46659p-1,0x1.41fac3828p+0,0x1.a37d5dd6p-1,0x1.25e1601ep-1,0x1.07d4928d61efcp+0
single.0.default r1 radius=0x0p+0 level=0x1.054e2eb9e79ddp+1 reach=1 method=violated-at-origin point=0x1.bf48e32d8p+0,0x1.5bc46659p-1,0x1.41fac3828p+0,0x1.a37d5dd6p-1,0x1.25e1601ep-1,0x1.f25bd0cep-2
single.0.default r2 radius=0x1.48334e52d9931p+0 level=0x1.2688bcd9ed774p+2 reach=1 method=analytic-l1 point=0x1.bf48e32d8p+0,0x1.5bc46659p-1,0x1.41fac3828p+0,0x1.a37d5dd6p-1,0x1.25e1601ep-1,0x1.c4ca428659931p+0
single.0.default r3 radius=0x1.7876ecb1515cp-1 level=0x1.113838d66a726p+2 reach=1 method=analytic-l1 point=0x1.bf48e32d8p+0,0x1.5bc46659p-1,0x1.41fac3828p+0,0x1.8dfa2543a8aep+0,0x1.25e1601ep-1,0x1.f25bd0cep-2
single.0.default r4 radius=0x1.1ae613db4638cp+0 level=0x1.128916a87ea9bp+2 reach=1 method=analytic-l1 point=0x1.48c59ea4738e8p-1,0x1.5bc46659p-1,0x1.41fac3828p+0,0x1.a37d5dd6p-1,0x1.25e1601ep-1,0x1.f25bd0cep-2
single.0.default r5 radius=0x1.496ea0eddbc96p-1 level=0x1.5bc9d4fee82a6p+2 reach=1 method=analytic-l1 point=0x1.1a9192b6921b5p+0,0x1.5bc46659p-1,0x1.41fac3828p+0,0x1.a37d5dd6p-1,0x1.25e1601ep-1,0x1.f25bd0cep-2
single.0.scaled r0 radius=0x1.1d80755c641ecp-5 level=0x1.6b873827cbb46p+1 reach=1 method=analytic-l1 point=0x1.6f0558258p+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.1aaf841c8p+0,0x1.3da7f8cb8p+0,0x1.8023f6496320fp+0
single.0.scaled r1 radius=0x0p+0 level=0x1.705d41c0bc2ecp+1 reach=1 method=violated-at-origin point=0x1.6f0558258p+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.1aaf841c8p+0,0x1.3da7f8cb8p+0,0x1.7737f29e8p+0
single.0.scaled r2 radius=0x0p+0 level=0x1.3375a593784f8p+3 reach=1 method=violated-at-origin point=0x1.6f0558258p+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.1aaf841c8p+0,0x1.3da7f8cb8p+0,0x1.7737f29e8p+0
single.0.scaled r3 radius=0x1.a39fc9bdb04edp-6 level=0x1.113838d66a726p+2 reach=1 method=analytic-l1 point=0x1.6f0558258p+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.213e034376c14p+0,0x1.3da7f8cb8p+0,0x1.7737f29e8p+0
single.0.scaled r4 radius=0x0p+0 level=0x1.f040875933664p+1 reach=1 method=violated-at-origin point=0x1.6f0558258p+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.1aaf841c8p+0,0x1.3da7f8cb8p+0,0x1.7737f29e8p+0
single.0.scaled r5 radius=0x1.ec5114ad5a0edp-6 level=0x1.5bc9d4fee82a6p+2 reach=1 method=analytic-l1 point=0x1.675413d2ca97cp+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.1aaf841c8p+0,0x1.3da7f8cb8p+0,0x1.7737f29e8p+0
single.1.default r0 radius=0x1.aeecf135da67p-2 level=0x1.8e1db5895fe01p+1 reach=1 method=analytic-l2 point=0x1.68ac08b0fbb42p+0,0x1.797e00442f04bp-1,0x1.dbf90df6de7efp-2,0x1.1a03ca43a12adp+0,0x1.713a62b05602ap+0,0x1.a8da0343fbf13p+0
single.1.default r1 radius=0x0p+0 level=0x1.c5ae325f7d9c3p+1 reach=1 method=violated-at-origin point=0x1.57dc70cdp+0,0x1.d3c8029bp-1,0x1.3e0b968p-2,0x1.34b1cd658p+0,0x1.69087c528p+0,0x1.557fc9a18p+0
single.1.default r2 radius=0x1.8add3610cfcfap-1 level=0x1.6c37e128badadp+2 reach=1 method=analytic-l2 point=0x1.339c0ad2f9dd2p+0,0x1.5badaa3d1a9a2p+0,0x1.5524c847690b8p-1,0x1.149063cf4eb98p+0,0x1.8cea7bb46b7a8p+0,0x1.cc442b23b70dp+0
single.1.default r3 radius=0x1.03067ed9beda3p-1 level=0x1.442d7735d8f39p+2 reach=1 method=analytic-l2 point=0x1.3d35adb754e6cp+0,0x1.1d700b9b5cee5p+0,0x1.d7f939b8ef952p-2,0x1.8dce2d5cd69bap+0,0x1.9fadd8df8461cp+0,0x1.35e708933c43cp+0
single.1.default r4 radius=0x1.87fe424e52946p-1 level=0x1.d66ac34772dccp+1 reach=1 method=analytic-l2 point=0x1.a024ad90d9d02p-1,0x1.01759dab3305cp-1,0x1.c3af226d89ap-11,0x1.36c706a3a8226p+0,0x1.426c36f8cc24bp+0,0x1.33cf704fca6edp+0
single.1.default r5 radius=0x1.9dbc635ee586ep-2 level=0x1.1953702b4c162p+2 reach=1 method=analytic-l2 point=0x1.16e8cf0991908p+0,0x1.cb8ae20e6896p-1,0x1.00823c1cb4f88p-4,0x1.0c0a9cabe7faap+0,0x1.504545d722d0ep+0,0x1.488fb09f5e597p+0
single.1.scaled r0 radius=0x1.9766f581d2a7ap-4 level=0x1.8e1db5895fe01p+1 reach=1 method=analytic-l2 point=0x1.72fe82f15ea89p+0,0x1.95a1856dceb17p+0,0x1.99c005f22eba7p-2,0x1.146138e2a81d8p+0,0x1.3f97d1181308cp+0,0x1.8aeb4d18e40d3p+0
single.1.scaled r1 radius=0x1.2348cd48a9a82p-4 level=0x1.85ae325f7d9c3p+1 reach=1 method=analytic-l2 point=0x1.6a1f4a867c9c5p+0,0x1.9eecb8556d2acp+0,0x1.8a6c001d8909ep-2,0x1.2690e73bfebe1p+0,0x1.3c4b33f04a40ap+0,0x1.82b8728c0f288p+0
single.1.scaled r2 radius=0x0p+0 level=0x1.3375a593784f8p+3 reach=1 method=violated-at-origin point=0x1.6f0558258p+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.1aaf841c8p+0,0x1.3da7f8cb8p+0,0x1.7737f29e8p+0
single.1.scaled r3 radius=0x1.4a589299ee1e1p-2 level=0x1.442d7735d8f39p+2 reach=1 method=analytic-l2 point=0x1.5e06aa8a21e17p+0,0x1.c12bc98c9d669p+0,0x1.d6943bd88ea33p-2,0x1.53824ee224b6cp+0,0x1.6080955654e51p+0,0x1.6311fba792533p+0
single.1.scaled r4 radius=0x1.1965138b66ed3p-3 level=0x1.d66ac34772dccp+1 reach=1 method=analytic-l2 point=0x1.56a6cb83d1a74p+0,0x1.8d6daa574c641p+0,0x1.3b8108f6dac0ep-2,0x1.1b0f35e6f02c2p+0,0x1.36ba199d5af9dp+0,0x1.712c2fcbbcbc1p+0
single.1.scaled r5 radius=0x1.8baa445d50991p-2 level=0x1.1953702b4c162p+2 reach=1 method=analytic-l2 point=0x1.30e7f59100091p+0,0x1.9c5c8cf1e93c2p+0,0x1.0331066eb9ff5p-3,0x1.e79dc36978534p-1,0x1.25f9a332cc9d4p+0,0x1.6ad8834bf8929p+0
single.2.default r0 radius=0x1.a6aed461466bp-3 level=0x1.97ca92c56b52ep+1 reach=1 method=analytic-linf point=0x1.03659b62a8cd6p+0,0x1.4f1b8ce9ae654p-1,0x1.5b32ce27519acp-1,0x1.4d63fd475732ap+0,0x1.c426e74d28cd6p+0,0x1.aae0646328cd6p+0
single.2.default r1 radius=0x0p+0 level=0x1.3707363988ebap+2 reach=1 method=violated-at-origin point=0x1.9d1f81adp-1,0x1.b8c74202p-1,0x1.e30e321ep-2,0x1.8239d7d38p+0,0x1.8f510cc1p+0,0x1.760a89d7p+0
single.2.default r2 radius=0x1.6c654369f40acp-2 level=0x1.91275bdb07856p+2 reach=1 method=analytic-linf point=0x1.cdd9bff00bf54p-2,0x1.377cf1db7d02bp+0,0x1.a7b9bac3fa056p-1,0x1.272086f902fd5p+0,0x1.ea6a5d9b7d02bp+0,0x1.d123dab17d02bp+0
single.2.default r3 radius=0x1.cb7ed515afe67p-3 level=0x1.82da7c86bbf94p+2 reach=1 method=analytic-linf point=0x1.2a3fcc6794066p-1,0x1.15d37ba3b5fcdp+0,0x1.6466ce546bf9ap-1,0x1.bba9b27635fcdp+0,0x1.c8c0e763b5fcdp+0,0x1.3c9aaf344a033p+0
single.2.default r4 radius=0x1.85616d5218a81p-2 level=0x1.74d7a462fee94p+1 reach=1 method=analytic-linf point=0x1.b4dd9607e757fp-2,0x1.ec2d16b1e757fp-2,0x1.76b3132f9d5fcp-4,0x1.e3923328062ap+0,0x1.2df8b16c79d6p+0,0x1.14b22e8279d6p+0
single.2.default r5 radius=0x1.95d16ac528f7bp-3 level=0x1.0ccd3730bdc85p+2 reach=1 method=analytic-linf point=0x1.37ab26fbb5c21p-1,0x1.5352e750b5c21p-1,0x1.18257cbb6b842p-2,0x1.4f7faa7adae11p+0,0x1.5c96df685ae11p+0,0x1.43505c7e5ae11p+0
single.2.scaled r0 radius=0x1.e11676a8afb91p-5 level=0x1.97ca92c56b52ep+1 reach=1 method=analytic-linf point=0x1.7e0e0bdac57ddp+0,0x1.91445a143a823p+0,0x1.b08f34a315f72p-2,0x1.0ba6d0673a823p+0,0x1.4cb0ac80c57ddp+0,0x1.8640a653c57ddp+0
single.2.scaled r1 radius=0x1.430d309689408p-2 level=0x1.1707363988ebap+2 reach=1 method=analytic-linf point=0x1.1e420bffddafep+0,0x1.4f89c1a3ddafep+0,0x1.5bbccb3244a04p-1,0x1.6b72d04222502p+0,0x1.d9c9594bbb5fcp-1,0x1.c7fb3ec422502p+0
single.2.scaled r2 radius=0x0p+0 level=0x1.3375a593784f8p+3 reach=1 method=violated-at-origin point=0x1.6f0558258p+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.1aaf841c8p+0,0x1.3da7f8cb8p+0,0x1.7737f29e8p+0
single.2.scaled r3 radius=0x1.3cda4cfbf169dp-2 level=0x1.82da7c86bbf94p+2 reach=1 method=analytic-linf point=0x1.1fcec4e683a59p+0,0x1.ef83a1087c5a7p+0,0x1.58a35964f8b4ep-1,0x1.69e6175b7c5a7p+0,0x1.8cde8c0a7c5a7p+0,0x1.28015f5f83a59p+0
single.2.scaled r4 radius=0x1.4dcdfc746484dp-2 level=0x1.74d7a462fee94p+1 reach=1 method=analytic-linf point=0x1.1b91d90866dedp+0,0x1.4cd98eac66dedp+0,0x1.34f34accdbd98p-5,0x1.6e23033999213p+0,0x1.d468f35ccdbdap-1,0x1.23c4738166dedp+0
single.2.scaled r5 radius=0x1.c9a7965f9e5ccp-3 level=0x1.0ccd3730bdc85p+2 reach=1 method=analytic-linf point=0x1.35d065598c346p+0,0x1.67181afd8c346p+0,0x1.1f31353c61a34p-3,0x1.c2f522a11868dp-1,0x1.047305ff8c346p+0,0x1.3e02ffd28c346p+0
single.3.default r0 radius=0x1.103b2fac204a7p-1 level=0x1.e8c72166f9b8fp+0 reach=1 method=analytic-weighted point=0x1.c74c3413b6fb5p-2,0x1.3f497a4398558p+0,0x1.507cb91cb0e9fp+0,0x1.f4630d7004c1cp-2,0x1.b9350df8881b6p-1,0x1.daf2797dcac14p-1
single.3.default r1 radius=0x0p+0 level=0x1.76f12431f8c9ep+1 reach=1 method=violated-at-origin point=0x1.720138a2p-2,0x1.66897291p+0,0x1.203569b78p+0,0x1.7660299dp-1,0x1.93f19decp-1,0x1.50bb6931p-1
single.3.default r2 radius=0x1.ebf353e34c8f2p-1 level=0x1.b64027a8d5828p+2 reach=1 method=analytic-weighted point=0x1.7e5465ee489ccp-3,0x1.c6baed0ebbd75p+0,0x1.8c7a2d9af9704p+0,0x1.c9eb6bddd4959p-2,0x1.194c087788007p+0,0x1.081c9ef26ff26p+0
single.3.default r3 radius=0x1.e08c09878b12fp-2 level=0x1.67bdddadace7ep+2 reach=1 method=analytic-weighted point=0x1.291ead800e4e3p-2,0x1.7eb17dd3b53a2p+0,0x1.39927d1fe5ebcp+0,0x1.2af86cbadc3f9p+0,0x1.0cf0666f04121p+0,0x1.347dcde029796p-1
single.3.default r4 radius=0x1.c971444aaa66cp-1 level=0x1.6882554cacfd8p+1 reach=1 method=analytic-weighted point=-0x1.b36f70a75531p-3,0x1.188a7c3c77cdcp+0,0x1.9afec79db52d7p-1,0x1.7ea5690d407e4p-1,0x1.fc588fa2beef8p-2,0x1.2113bdf231dddp-1
single.3.default r5 radius=0x1.afe68db01bfb6p-2 level=0x1.77c0f23442ef8p+1 reach=1 method=analytic-weighted point=0x1.2217cc81c5014p-3,0x1.64178f8f68003p+0,0x1.d670d40e85ae5p-1,0x1.ea695a4445a4dp-2,0x1.47146ac029406p-1,0x1.4216488548e7bp-1
single.3.scaled r0 radius=0x0p+0 level=0x1.5ea9f1eea84a1p+1 reach=1 method=violated-at-origin point=0x1.6f0558258p+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.1aaf841c8p+0,0x1.3da7f8cb8p+0,0x1.7737f29e8p+0
single.3.scaled r1 radius=0x0p+0 level=0x1.705d41c0bc2ecp+1 reach=1 method=violated-at-origin point=0x1.6f0558258p+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.1aaf841c8p+0,0x1.3da7f8cb8p+0,0x1.7737f29e8p+0
single.3.scaled r2 radius=0x0p+0 level=0x1.3375a593784f8p+3 reach=1 method=violated-at-origin point=0x1.6f0558258p+0,0x1.a04d0dc98p+0,0x1.746c65cep-2,0x1.1aaf841c8p+0,0x1.3da7f8cb8p+0,0x1.7737f29e8p+0
single.3.scaled r3 radius=0x1.fc9c237eed67dp-2 level=0x1.67bdddadace7ep+2 reach=1 method=analytic-weighted point=0x1.5bbc4dccc4266p+0,0x1.b9de3b8540a27p+0,0x1.dfcd6d3bc8534p-2,0x1.90fefdcfedc14p+0,0x1.8488b63bc03a7p+0,0x1.68460c3a0edbbp+0
single.3.scaled r4 radius=0x1.af57bd5a3592p-1 level=0x1.6882554cacfd8p+1 reach=1 method=analytic-weighted point=0x1.c8f26f08e652ep-1,0x1.56c1524363b77p+0,0x1.e3a5a01b730ep-5,0x1.1e95bd492ea4ap+0,0x1.ee1633545023fp-1,0x1.60c024d09d47p+0
single.3.scaled r5 radius=0x1.eb120cddaa336p-5 level=0x1.6995cef1c177cp+2 reach=1 method=analytic-weighted point=0x1.7703901cf9b79p+0,0x1.a0a60207481ffp+0,0x1.928c17911b8bcp-2,0x1.23dd5f3df3ff2p+0,0x1.431e481214df3p+0,0x1.78425eaee24bp+0
clip.l2.default r0 radius=0x1.2c32501143f68p+1 level=0x1.67dd85243ac36p+0 reach=1 method=analytic-l2 point=0x1.29d7e31d80a71p+0,0x1.9f28763d09612p+1,0x1.c3826e677c484p-4
clip.l2.default r1 radius=0x0p+0 level=-0x1.5ad5f60524bacp+0 reach=1 method=violated-at-origin point=0x1.57dc70cdp+0,0x1.d3c8029bp-1,0x1.3e0b968p-2
clip.l2.default r2 radius=0x1.9ce6e72417c78p+0 level=-0x1.acdff445c029fp+0 reach=1 method=analytic-l2 point=0x1.b54dab5ddd531p+0,-0x1.eb7abcccaf88cp-2,-0x1.a8b0b98b53dacp-2
clip.l2.default r3 radius=0x1.33e198d248ac3p-1 level=0x1.393866936352ep+2 reach=1 method=analytic-l2 point=0x1.e1b5578ea157ep+0,0x1.2ad3d86153676p+0,0x1.ccfe57eb7498fp-3
clip.l2.default r4 radius=inf level=0x0p+0 reach=0 method=infeasible-region point=
clip.l2.default r5 radius=0x1.61a973b3bd825p-1 level=-0x1.063d8406290a3p+1 reach=1 method=analytic-l2 point=0x1.a6601bb70248fp+0,0x1.3ee4bfca1c257p+0,-0x1.b19d44a88455cp-3
clip.l2.scaled r0 radius=0x1.c6a7f53ab7b09p+2 level=0x1.67dd85243ac36p+0 reach=1 method=dykstra-clip point=0x1.145f48a556252p-2,0x1.b705594c71ec8p+2,-0x1.ae0ab298e3d8ep+1
clip.l2.scaled r1 radius=0x1.9f21db76db15fp-6 level=-0x1.dad5f60524bacp+0 reach=1 method=analytic-l2 point=0x1.ed00705ee34b4p-1,0x1.3a5ac927f4987p+0,0x1.d4d5d25803d0bp-1
clip.l2.scaled r2 radius=0x1.43f44898765bfp+1 level=0x1.82ea9e26dfebp+1 reach=1 method=dykstra-clip point=-0x1.da9df16e82534p-2,0x1.9c492ab77b1f6p+1,0x1.1db6aa4427048p-2
clip.l2.scaled r3 radius=0x1.3719778c47ccp-4 level=0x1.393866936352ep+2 reach=1 method=analytic-l2 point=0x1.0aba4bc1efe58p+0,0x1.467066984fc73p+0,0x1.d80a5882d6455p-1
clip.l2.scaled r4 radius=inf level=0x0p+0 reach=0 method=infeasible-region point=
clip.l2.scaled r5 radius=0x1.01f9f405fd981p+0 level=-0x1.063d8406290a3p+1 reach=1 method=analytic-l2 point=0x1.6bdc37952ef13p+0,0x1.ba3f2a507db47p+0,0x1.5db2f8d99b518p-3
clip.multi.default r0 radius=0x1.0ea031a4d53e2p-1 level=0x1.575aaf479ebf5p+0 reach=1 method=analytic-multi point=0x1.c04cff6f47235p-2,0x1.ee1da135e2ca7p-2,0x1.ba82ff6c168f6p-1,0x1.8699c86409973p+0
clip.multi.default r1 radius=0x0p+0 level=0x1.f67d98988cd48p-5 reach=1 method=violated-at-origin point=0x1.9d1f81adp-1,0x1.b8c74202p-1,0x1.e30e321ep-2,0x1.8239d7d38p+0
clip.multi.default r2 radius=0x1.e5050bccfea1cp+0 level=0x1.87ec53f577984p+2 reach=1 method=pocs-bisect point=-0x1.09b3c992e17d8p-3,-0x1.3629907dc2fbep-4,0x1.36da57dfc9bb2p+0,0x1.5ea48d130b0e1p+1
clip.multi.scaled r0 radius=0x1.fbf8825eb1362p-3 level=0x1.575aaf479ebf5p+0 reach=1 method=analytic-multi point=0x1.2df82183e0414p+0,0x1.24314d5468626p-1,0x1.bdeb151eb58d3p-1,0x1.22b9e74532a95p-2
clip.multi.scaled r1 radius=0x0p+0 level=0x1.98dc43c418922p-2 reach=1 method=violated-at-origin point=0x1.5a4eb9868p+0,0x1.7f18d6f2p-1,0x1.5f9afbf2p-1,0x1.1a83c03ep-2
clip.multi.scaled r2 radius=0x1.8ef5c1981c7e6p-1 level=0x1.a63ad39d79848p-2 reach=1 method=analytic-multi point=0x1.5a4eb9868p+0,0x1.7f18d6f2p-1,0x1.6693a99e1b653p-2,-0x1.abddc6252743ep-3)";

PerturbationSubspace makeSubspace(const char* name, std::size_t dim,
                                  NormKind norm, Pcg32& rng) {
  PerturbationSubspace sub;
  sub.name = name;
  sub.origin.resize(dim);
  for (double& v : sub.origin) {
    v = rng.uniform(0.25, 1.75);
  }
  sub.norm = static_cast<int>(norm);
  if (norm == NormKind::Weighted) {
    sub.normWeights.resize(dim);
    for (double& v : sub.normWeights) {
      v = rng.uniform(0.5, 2.0);
    }
  }
  return sub;
}

// `rows` affine features over the concatenated blocks. Row 1 is violated
// at the origin, row 2 of a multi-subspace spec has zero weights on
// block 0 (its boundary point keeps that block at the origin), and the bounds cycle through upper
// only, lower only and two-sided.
ProblemSpec makeMultiSpec(std::vector<PerturbationSubspace> subspaces,
                          std::size_t rows, std::uint64_t seed) {
  std::size_t dim = 0;
  for (const PerturbationSubspace& sub : subspaces) {
    dim += sub.origin.size();
  }
  num::Vec origin;
  for (const PerturbationSubspace& sub : subspaces) {
    origin.insert(origin.end(), sub.origin.begin(), sub.origin.end());
  }
  Pcg32 rng(seed, 3);
  ProblemSpec spec;
  for (std::size_t r = 0; r < rows; ++r) {
    num::Vec w(dim);
    for (double& v : w) {
      v = rng.uniform(-1.0, 2.0);
    }
    if (r == 2 && subspaces.size() > 1) {
      std::fill(w.begin(),
                w.begin() + static_cast<std::ptrdiff_t>(
                                subspaces[0].origin.size()),
                0.0);
    }
    const double c = rng.uniform(-0.5, 0.5);
    const double at = num::dot(w, origin) + c;
    ToleranceBounds b;
    if (r == 1) {
      b = ToleranceBounds::atMost(at - 0.5);
    } else if (r % 3 == 0) {
      b = ToleranceBounds::atMost(at + rng.uniform(0.5, 3.0));
    } else if (r % 3 == 1) {
      b = ToleranceBounds::atLeast(at - rng.uniform(0.5, 3.0));
    } else {
      b = ToleranceBounds::between(at - rng.uniform(0.5, 3.0),
                                   at + rng.uniform(0.5, 3.0));
    }
    spec.features.push_back(PerformanceFeature{
        "f" + std::to_string(r), ImpactFunction::affine(std::move(w), c), b});
  }
  spec.subspaces = std::move(subspaces);
  return spec;
}

// Instance overrides: a fresh origin, constants shifted off the compiled
// ones, and scales != 1 on every row but the last.
struct InstanceData {
  num::Vec origin;
  num::Vec constants;
  num::Vec scales;

  AnalysisInstance view() const { return {origin, constants, scales}; }
};

InstanceData makeInstance(const CompiledProblem& p, const ProblemSpec& spec,
                          std::uint64_t seed) {
  Pcg32 rng(seed, 17);
  InstanceData data;
  data.origin.resize(p.dimension());
  for (double& v : data.origin) {
    v = rng.uniform(0.25, 1.75);
  }
  for (std::size_t i = 0; i < spec.features.size(); ++i) {
    data.constants.push_back(spec.features[i].impact.constant() +
                             rng.uniform(-0.25, 0.25));
    data.scales.push_back(i + 1 == spec.features.size()
                              ? 1.0
                              : rng.uniform(0.5, 2.0));
  }
  return data;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string rowLine(const std::string& tag, std::size_t i,
                    const RadiusReport& r) {
  std::string line = tag;
  line += " r" + std::to_string(i);
  line += " radius=" + hex(r.radius);
  line += " level=" + hex(r.boundaryLevel);
  line += " reach=" + std::to_string(r.boundReachable ? 1 : 0);
  line += " method=" + (r.method.empty() ? std::string("-") : r.method);
  line += " point=";
  for (std::size_t k = 0; k < r.boundaryPoint.size(); ++k) {
    line += (k == 0 ? "" : ",") + hex(r.boundaryPoint[k]);
  }
  return line;
}

// Token-wise comparison: hexfloat tokens compare as doubles (bits), the
// rest as strings.
void expectSameLine(const std::string& expected, const std::string& actual) {
  auto split = [](const std::string& s) {
    std::vector<std::string> tokens;
    std::string cur;
    for (const char ch : s) {
      if (ch == ' ' || ch == '=' || ch == ',') {
        tokens.push_back(cur);
        cur.clear();
      } else {
        cur += ch;
      }
    }
    tokens.push_back(cur);
    return tokens;
  };
  const std::vector<std::string> e = split(expected);
  const std::vector<std::string> a = split(actual);
  ASSERT_EQ(e.size(), a.size()) << "expected: " << expected
                                << "\nactual:   " << actual;
  for (std::size_t t = 0; t < e.size(); ++t) {
    char* end = nullptr;
    const double ev = std::strtod(e[t].c_str(), &end);
    if (e[t].rfind("0x", 0) == 0 || e[t].rfind("-0x", 0) == 0 ||
        e[t] == "inf") {
      EXPECT_EQ(ev, std::strtod(a[t].c_str(), nullptr))
          << "token " << t << "\nexpected: " << expected
          << "\nactual:   " << actual;
    } else {
      EXPECT_EQ(e[t], a[t]) << "token " << t << "\nexpected: " << expected
                            << "\nactual:   " << actual;
    }
  }
}

void checkRows(FrozenLines& frozen, const std::string& tag,
               const RobustnessReport& report) {
  for (std::size_t i = 0; i < report.radii.size(); ++i) {
    expectSameLine(frozen.take(), rowLine(tag, i, report.radii[i]));
  }
}

TEST(RefactorDifferential, RowReportsBitIdentical) {
  FrozenLines frozen = loadFrozen(kFrozenRowReference);
  auto checkSpec = [&frozen](const std::string& tag, const ProblemSpec& spec,
                             std::uint64_t seed) {
    SCOPED_TRACE(tag);
    const CompiledProblem p = CompiledProblem::compile(spec);
    checkRows(frozen, tag + ".default", p.evaluate());
    const InstanceData data = makeInstance(p, spec, seed);
    checkRows(frozen, tag + ".scaled", p.evaluate(data.view()));
  };

  {
    Pcg32 rng(41, 1);
    std::vector<PerturbationSubspace> subs;
    subs.push_back(makeSubspace("a", 5, NormKind::L1, rng));
    subs.push_back(makeSubspace("b", 4, NormKind::L2, rng));
    checkSpec("multi.l1l2", makeMultiSpec(std::move(subs), 7, 41), 141);
  }
  {
    Pcg32 rng(42, 1);
    std::vector<PerturbationSubspace> subs;
    subs.push_back(makeSubspace("a", 4, NormKind::LInf, rng));
    subs.push_back(makeSubspace("b", 5, NormKind::Weighted, rng));
    subs.push_back(makeSubspace("c", 3, NormKind::L2, rng));
    checkSpec("multi.linfwl2", makeMultiSpec(std::move(subs), 8, 42), 142);
  }
  {
    Pcg32 rng(43, 1);
    std::vector<PerturbationSubspace> subs;
    subs.push_back(makeSubspace("a", 3, NormKind::Weighted, rng));
    subs.push_back(makeSubspace("b", 3, NormKind::L1, rng));
    subs.push_back(makeSubspace("c", 2, NormKind::LInf, rng));
    checkSpec("multi.wl1linf", makeMultiSpec(std::move(subs), 6, 43), 143);
  }
  for (const NormKind norm :
       {NormKind::L1, NormKind::L2, NormKind::LInf, NormKind::Weighted}) {
    Pcg32 rng(44 + static_cast<std::uint64_t>(norm), 1);
    std::vector<PerturbationSubspace> subs;
    subs.push_back(makeSubspace("pi", 6, norm, rng));
    checkSpec("single." + std::to_string(static_cast<int>(norm)),
              makeMultiSpec(std::move(subs), 6, 50), 150);
  }
  {
    // One L2 subspace under two capacity constraints: the scaled instance
    // clips rows 0 and 2 (dykstra-clip), and row 4 cannot reach its bound
    // inside the region (infeasible-region).
    Pcg32 rng(45, 1);
    std::vector<PerturbationSubspace> subs;
    subs.push_back(makeSubspace("pi", 3, NormKind::L2, rng));
    ProblemSpec spec = makeMultiSpec(std::move(subs), 6, 51);
    spec.constraints.push_back(
        LinearConstraint{"cap0", num::Vec{1.0, 0.0, 0.0}, 2.0});
    spec.constraints.push_back(
        LinearConstraint{"cap1", num::Vec{0.0, 1.0, 1.0}, 3.5});
    spec.features[4].impact = ImpactFunction::affine(num::Vec{1.0, 0.0, 0.0},
                                                     0.0);
    spec.features[4].bounds = ToleranceBounds::atMost(2.5);
    checkSpec("clip.l2", spec, 151);
  }
  {
    // L2 + Weighted blocks under one constraint across both: row 2 at the
    // default origin is clipped by bisecting on the radius with the POCS
    // membership oracle (pocs-bisect).
    Pcg32 rng(46, 1);
    std::vector<PerturbationSubspace> subs;
    subs.push_back(makeSubspace("a", 2, NormKind::L2, rng));
    subs.push_back(makeSubspace("b", 2, NormKind::Weighted, rng));
    double sum = 0.0;
    for (const PerturbationSubspace& sub : subs) {
      for (const double v : sub.origin) {
        sum += v;
      }
    }
    ProblemSpec spec = makeMultiSpec(std::move(subs), 3, 52);
    spec.constraints.push_back(
        LinearConstraint{"cap", num::Vec{1.0, 1.0, 1.0, 1.0}, sum + 0.1});
    checkSpec("clip.multi", spec, 152);
  }
  EXPECT_EQ(frozen.next, frozen.lines.size())
      << "frozen reference has unchecked lines";
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
  // One ETC instance per objective kind; the third has 36 machines.
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

std::string assignmentLine(const std::string& tag,
                           const sched::Mapping& mapping) {
  std::string line = tag + "=";
  for (std::size_t app = 0; app < mapping.apps(); ++app) {
    line += (app == 0 ? "" : ",") + std::to_string(mapping.machineOf(app));
  }
  return line;
}

// Frozen final assignments of geneticAlgorithm, captured before its
// generation loop was made branch-free (crossover coin from next() < 2^31)
// and allocation-free (two population buffers swapped per generation). The
// first lines are plan's shape (128x16 CVB ETC, population 40, 60
// generations, MinMin start); the rest cover the options whose code paths
// the buffer swap touches: no elites, never and always crossing over, a
// population of three, and one-entrant tournaments. Each case was recorded
// through both overloads; only the EtcObjective one still exists.
constexpr const char* kFrozenGeneticReference = R"(plan[1].etc=3,0,13,1,12,1,6,12,4,11,2,15,10,2,12,1,15,1,10,15,12,4,6,15,9,3,15,10,2,15,6,10,9,6,11,1,6,12,3,0,12,3,12,3,3,7,13,4,11,2,14,3,7,13,12,5,3,8,14,10,0,6,3,4,9,10,4,15,11,1,13,14,11,10,12,6,14,9,11,6,3,4,0,12,0,8,1,12,9,11,9,1,14,7,0,4,10,11,4,10,1,9,12,14,15,0,12,12,5,13,13,2,2,6,13,8,1,5,6,5,4,1,6,4,12,15,12,10
plan[1].generic=3,0,13,1,12,1,6,12,4,11,2,15,10,2,12,1,15,1,10,15,12,4,6,15,9,3,15,10,2,15,6,10,9,6,11,1,6,12,3,0,12,3,12,3,3,7,13,4,11,2,14,3,7,13,12,5,3,8,14,10,0,6,3,4,9,10,4,15,11,1,13,14,11,10,12,6,14,9,11,6,3,4,0,12,0,8,1,12,9,11,9,1,14,7,0,4,10,11,4,10,1,9,12,14,15,0,12,12,5,13,13,2,2,6,13,8,1,5,6,5,4,1,6,4,12,15,12,10
plan[2].etc=6,7,5,1,10,13,13,11,8,12,2,4,14,13,12,13,10,15,11,13,8,12,7,15,15,9,13,0,3,0,8,11,7,6,4,2,14,7,13,10,15,8,3,13,2,11,1,0,2,9,6,12,11,13,15,7,14,10,3,7,0,0,13,13,3,14,3,11,9,12,13,0,4,4,1,11,3,11,15,6,13,14,13,5,6,15,5,15,5,2,8,11,13,1,3,12,4,2,8,1,5,4,9,6,13,9,13,1,13,2,1,8,6,9,7,13,13,14,4,3,11,6,13,10,10,0,0,13
plan[2].generic=6,7,5,1,10,13,13,11,8,12,2,4,14,13,12,13,10,15,11,13,8,12,7,15,15,9,13,0,3,0,8,11,7,6,4,2,14,7,13,10,15,8,3,13,2,11,1,0,2,9,6,12,11,13,15,7,14,10,3,7,0,0,13,13,3,14,3,11,9,12,13,0,4,4,1,11,3,11,15,6,13,14,13,5,6,15,5,15,5,2,8,11,13,1,3,12,4,2,8,1,5,4,9,6,13,9,13,1,13,2,1,8,6,9,7,13,13,14,4,3,11,6,13,10,10,0,0,13
eliteCount=0.etc=2,6,6,3,3,5,5,0,1,1,0,7,5,5,0,1,5,3,0,5,6,0,7,4,1,0,7,5,2,4,0,6,0,0,2,4,6,5,0,4
eliteCount=0.generic=2,6,6,3,3,5,5,0,1,1,0,7,5,5,0,1,5,3,0,5,6,0,7,4,1,0,7,5,2,4,0,6,0,0,2,4,6,5,0,4
crossoverRate=0.etc=6,6,6,4,6,3,3,1,5,0,4,7,0,1,1,3,3,4,5,7,6,2,7,0,3,6,4,4,3,5,0,5,3,7,1,3,7,4,0,2
crossoverRate=0.generic=6,6,6,4,6,3,3,1,5,0,4,7,0,1,1,3,3,4,5,7,6,2,7,0,3,6,4,4,3,5,0,5,3,7,1,3,7,4,0,2
crossoverRate=1.etc=6,6,5,7,3,4,3,6,2,0,1,1,5,7,7,6,4,3,4,5,5,5,1,4,7,4,1,2,2,2,5,3,3,6,0,2,6,0,7,3
crossoverRate=1.generic=6,6,5,7,3,4,3,6,2,0,1,1,5,7,7,6,4,3,4,5,5,5,1,4,7,4,1,2,2,2,5,3,3,6,0,2,6,0,7,3
populationSize=3.etc=5,6,2,1,0,4,6,6,0,6,1,6,6,5,1,2,2,5,1,7,4,0,7,4,6,7,0,3,0,0,3,1,6,7,2,4,1,3,2,3
populationSize=3.generic=5,6,2,1,0,4,6,6,0,6,1,6,6,5,1,2,2,5,1,7,4,0,7,4,6,7,0,3,0,0,3,1,6,7,2,4,1,3,2,3
tournamentSize=1.etc=5,7,5,4,7,4,1,6,5,0,2,1,5,7,7,2,6,2,0,5,5,0,1,4,7,4,1,5,2,0,3,6,0,6,6,1,6,0,7,4
tournamentSize=1.generic=5,7,5,4,7,4,1,6,5,0,2,1,5,7,7,2,6,2,0,5,5,0,1,4,7,4,1,5,2,0,3,6,0,6,6,1,6,0,7,4)";

TEST(RefactorDifferential, GeneticMatchesFrozenAssignments) {
  FrozenLines frozen = loadFrozen(kFrozenGeneticReference);
  const sched::EtcObjective objective =
      sched::EtcObjective::negatedRobustness(1.2);
  auto expectFrozen = [&](const std::string& tag, const sched::EtcMatrix& etc,
                          const sched::GeneticOptions& options) {
    const sched::Mapping start = sched::minMinMapping(etc);
    EXPECT_EQ(frozen.take(),
              assignmentLine(tag + ".etc",
                             sched::geneticAlgorithm(etc, start, objective,
                                                     options)));
    // The ".generic" line pinned the shape-generic overload, since deleted.
    // The recorded data stays as it was; the line is skipped.
    EXPECT_EQ(frozen.take().rfind(tag + ".generic=", 0), 0u);
  };
  sched::EtcOptions planShape;
  planShape.apps = 128;
  planShape.machines = 16;
  for (const std::uint64_t seed : {1u, 2u}) {
    Pcg32 rng(700 + seed);
    const sched::EtcMatrix etc = sched::generateEtc(planShape, rng);
    sched::GeneticOptions options;
    options.populationSize = 40;
    options.generations = 60;
    options.seed = seed;
    expectFrozen("plan[" + std::to_string(seed) + "]", etc, options);
  }
  sched::EtcOptions small;
  small.apps = 40;
  small.machines = 8;
  Pcg32 rng(710);
  const sched::EtcMatrix etc = sched::generateEtc(small, rng);
  sched::GeneticOptions base;
  base.populationSize = 12;
  base.generations = 15;
  base.seed = 9;
  sched::GeneticOptions options = base;
  options.eliteCount = 0;
  expectFrozen("eliteCount=0", etc, options);
  options = base;
  options.crossoverRate = 0.0;
  expectFrozen("crossoverRate=0", etc, options);
  options = base;
  options.crossoverRate = 1.0;
  expectFrozen("crossoverRate=1", etc, options);
  options = base;
  options.populationSize = 3;
  expectFrozen("populationSize=3", etc, options);
  options = base;
  options.tournamentSize = 1;
  expectFrozen("tournamentSize=1", etc, options);
  EXPECT_EQ(frozen.next, frozen.lines.size());
}

}  // namespace

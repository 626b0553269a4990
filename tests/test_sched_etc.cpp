// Tests for the ETC matrix model and the CVB instance generator (Ali et al.
// 2000 heterogeneity parameterization) plus the gamma sampler underneath.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "robust/core/input_policy.hpp"
#include "robust/random/distributions.hpp"
#include "robust/scheduling/etc.hpp"
#include "robust/scheduling/etc_io.hpp"
#include "robust/util/diagnostics.hpp"
#include "robust/util/error.hpp"
#include "robust/util/stats.hpp"

namespace robust {
namespace {

// ------------------------------------------------------- distributions

TEST(Distributions, StandardNormalMoments) {
  Pcg32 rng(1);
  std::vector<double> xs(50000);
  for (auto& x : xs) {
    x = rnd::standardNormal(rng);
  }
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.mean, 0.0, 0.02);
  EXPECT_NEAR(s.stddev, 1.0, 0.02);
}

TEST(Distributions, GammaMomentsShapeAboveOne) {
  Pcg32 rng(2);
  const double shape = 4.0;
  const double scale = 2.5;
  std::vector<double> xs(50000);
  for (auto& x : xs) {
    x = rnd::gamma(rng, shape, scale);
  }
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.mean, shape * scale, 0.15);
  EXPECT_NEAR(s.stddev, std::sqrt(shape) * scale, 0.15);
}

TEST(Distributions, GammaMomentsShapeBelowOne) {
  Pcg32 rng(3);
  const double shape = 0.5;
  const double scale = 3.0;
  std::vector<double> xs(50000);
  for (auto& x : xs) {
    x = rnd::gamma(rng, shape, scale);
    EXPECT_GT(x, 0.0);
  }
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.mean, shape * scale, 0.1);
  EXPECT_NEAR(s.stddev, std::sqrt(shape) * scale, 0.15);
}

TEST(Distributions, GammaMeanCvMatchesPaperParameterization) {
  // The paper's "heterogeneity" is the coefficient of variation.
  Pcg32 rng(4);
  const double mean = 10.0;
  const double cv = 0.7;
  std::vector<double> xs(60000);
  for (auto& x : xs) {
    x = rnd::gammaMeanCv(rng, mean, cv);
  }
  const Summary s = summarize(xs);
  EXPECT_NEAR(s.mean, mean, 0.1);
  EXPECT_NEAR(s.heterogeneity(), cv, 0.02);
}

TEST(Distributions, GammaMeanCvZeroCvDegenerates) {
  Pcg32 rng(5);
  EXPECT_DOUBLE_EQ(rnd::gammaMeanCv(rng, 7.0, 0.0), 7.0);
}

TEST(Distributions, Validation) {
  Pcg32 rng(8);
  EXPECT_THROW((void)rnd::gamma(rng, 0.0, 1.0), InvalidArgumentError);
  EXPECT_THROW((void)rnd::gamma(rng, 1.0, 0.0), InvalidArgumentError);
  EXPECT_THROW((void)rnd::gammaMeanCv(rng, -1.0, 0.5), InvalidArgumentError);
  EXPECT_THROW((void)rnd::gammaMeanCv(rng, 1.0, -0.5), InvalidArgumentError);
}

// --------------------------------------------------------------- matrix

TEST(EtcMatrix, StoresValues) {
  sched::EtcMatrix etc(3, 2);
  etc(2, 1) = 7.5;
  EXPECT_DOUBLE_EQ(etc(2, 1), 7.5);
  EXPECT_DOUBLE_EQ(etc(0, 0), 0.0);
  EXPECT_EQ(etc.apps(), 3u);
  EXPECT_EQ(etc.machines(), 2u);
}

TEST(EtcMatrix, RejectsEmpty) {
  EXPECT_THROW(sched::EtcMatrix(0, 2), InvalidArgumentError);
  EXPECT_THROW(sched::EtcMatrix(2, 0), InvalidArgumentError);
}

// ------------------------------------------------------------ generator

TEST(EtcGenerator, Deterministic) {
  sched::EtcOptions options;
  Pcg32 a(11);
  Pcg32 b(11);
  const auto etc1 = sched::generateEtc(options, a);
  const auto etc2 = sched::generateEtc(options, b);
  for (std::size_t i = 0; i < options.apps; ++i) {
    for (std::size_t j = 0; j < options.machines; ++j) {
      EXPECT_DOUBLE_EQ(etc1(i, j), etc2(i, j));
    }
  }
}

TEST(EtcGenerator, AllPositive) {
  sched::EtcOptions options;
  Pcg32 rng(12);
  const auto etc = sched::generateEtc(options, rng);
  for (std::size_t i = 0; i < options.apps; ++i) {
    for (std::size_t j = 0; j < options.machines; ++j) {
      EXPECT_GT(etc(i, j), 0.0);
    }
  }
}

TEST(EtcGenerator, ConsistentRowsAreSorted) {
  sched::EtcOptions options;
  options.consistency = sched::EtcConsistency::Consistent;
  Pcg32 rng(13);
  const auto etc = sched::generateEtc(options, rng);
  for (std::size_t i = 0; i < options.apps; ++i) {
    for (std::size_t j = 0; j + 1 < options.machines; ++j) {
      EXPECT_LE(etc(i, j), etc(i, j + 1));
    }
  }
}

TEST(EtcGenerator, SemiConsistentEvenColumnsSorted) {
  sched::EtcOptions options;
  options.machines = 6;
  options.consistency = sched::EtcConsistency::SemiConsistent;
  Pcg32 rng(14);
  const auto etc = sched::generateEtc(options, rng);
  for (std::size_t i = 0; i < options.apps; ++i) {
    EXPECT_LE(etc(i, 0), etc(i, 2));
    EXPECT_LE(etc(i, 2), etc(i, 4));
  }
}

TEST(EtcGenerator, ZeroHeterogeneityIsConstant) {
  sched::EtcOptions options;
  options.taskHeterogeneity = 0.0;
  options.machineHeterogeneity = 0.0;
  Pcg32 rng(15);
  const auto etc = sched::generateEtc(options, rng);
  for (std::size_t i = 0; i < options.apps; ++i) {
    for (std::size_t j = 0; j < options.machines; ++j) {
      EXPECT_DOUBLE_EQ(etc(i, j), options.meanTaskTime);
    }
  }
}

TEST(EtcGenerator, Validation) {
  Pcg32 rng(16);
  sched::EtcOptions bad;
  bad.meanTaskTime = 0.0;
  EXPECT_THROW((void)sched::generateEtc(bad, rng), InvalidArgumentError);
  bad = {};
  bad.taskHeterogeneity = -0.1;
  EXPECT_THROW((void)sched::generateEtc(bad, rng), InvalidArgumentError);
}

// ----------------------------------------------------------------- io

TEST(EtcIo, RoundTripsExactly) {
  sched::EtcOptions options;
  options.apps = 7;
  options.machines = 3;
  Pcg32 rng(44);
  const auto etc = sched::generateEtc(options, rng);
  std::stringstream stream;
  sched::saveEtcCsv(etc, stream);
  const auto loaded = sched::loadEtcCsv(stream);
  ASSERT_EQ(loaded.apps(), etc.apps());
  ASSERT_EQ(loaded.machines(), etc.machines());
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    for (std::size_t j = 0; j < etc.machines(); ++j) {
      EXPECT_EQ(loaded(i, j), etc(i, j));  // bit-exact via %.17g
    }
  }
}

TEST(EtcIo, HeaderShape) {
  sched::EtcMatrix etc(1, 2);
  etc(0, 0) = 1.5;
  etc(0, 1) = 2.5;
  std::stringstream stream;
  sched::saveEtcCsv(etc, stream);
  std::string header;
  std::getline(stream, header);
  EXPECT_EQ(header, "app,m0,m1");
}

TEST(EtcIo, RejectsMalformedInput) {
  {
    std::stringstream s("");
    EXPECT_THROW((void)sched::loadEtcCsv(s), InvalidArgumentError);
  }
  {
    std::stringstream s("bogus,m0\na0,1.0\n");
    EXPECT_THROW((void)sched::loadEtcCsv(s), InvalidArgumentError);
  }
  {
    std::stringstream s("app,m0,m1\na0,1.0\n");  // ragged
    EXPECT_THROW((void)sched::loadEtcCsv(s), InvalidArgumentError);
  }
  {
    std::stringstream s("app,m0\na0,abc\n");  // non-numeric
    EXPECT_THROW((void)sched::loadEtcCsv(s), InvalidArgumentError);
  }
  {
    std::stringstream s("app,m0\n");  // no rows
    EXPECT_THROW((void)sched::loadEtcCsv(s), InvalidArgumentError);
  }
}

// The loader's errors must carry source:line:column provenance so a bad
// cell in a 400x40 CSV is findable without bisecting the file by hand.
TEST(EtcIo, DiagnosticCarriesLineAndColumnProvenance) {
  std::stringstream s("app,m0,m1\na0,1.5,nan\n");
  try {
    (void)sched::loadEtcCsv(s);
    FAIL() << "expected a throw";
  } catch (const util::ParseError& e) {
    // Data row 1 is line 2; the label is field 1, so the second data cell
    // is field 3.
    EXPECT_EQ(e.diagnostic().format(),
              "etc.csv:2:3: cell 'nan' is not a finite positive time");
    EXPECT_EQ(e.diagnostic().source, "etc.csv");
    EXPECT_EQ(e.diagnostic().line, 2u);
    EXPECT_EQ(e.diagnostic().column, 3u);
  }
}

// Rejections are categorized (util::RejectCategory) so operators can watch
// *why* inputs bounce without parsing message strings.
TEST(EtcIo, RejectionsCarryTheRightCategory) {
  const auto categoryOf = [](const char* text) {
    std::stringstream s(text);
    try {
      (void)sched::loadEtcCsv(s);
    } catch (const util::ParseError& e) {
      return e.diagnostic().category;
    }
    ADD_FAILURE() << "input was accepted: " << text;
    return util::RejectCategory::Other;
  };
  EXPECT_EQ(categoryOf("app,m0\na0,abc\n"), util::RejectCategory::Format);
  EXPECT_EQ(categoryOf("app,m0\na0,nan\n"), util::RejectCategory::Domain);
  EXPECT_EQ(categoryOf("app,m0\na0,-4\n"), util::RejectCategory::Domain);
  EXPECT_EQ(categoryOf("app,m0\na0,1.5,2.5\n"),
            util::RejectCategory::Structure);
  EXPECT_EQ(categoryOf("nope,m0\na0,1.5\n"), util::RejectCategory::Structure);
  EXPECT_EQ(categoryOf(""), util::RejectCategory::Truncated);
  EXPECT_EQ(categoryOf("app,m0\n"), util::RejectCategory::Truncated);
}

TEST(EtcIo, DiagnosticUsesCallerProvidedSourceName) {
  std::stringstream s("app,m0\na0,-4\n");
  try {
    (void)sched::loadEtcCsv(s, "runs/trial7.csv");
    FAIL() << "expected a throw";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.diagnostic().format(),
              "runs/trial7.csv:2:2: cell '-4' is not a positive time (ETC "
              "entries are execution times)");
  }
}

TEST(EtcIo, RaggedRowDiagnosticNamesTheLine) {
  std::stringstream s("app,m0,m1\na0,1.0,2.0\na1,3.0\n");
  try {
    (void)sched::loadEtcCsv(s);
    FAIL() << "expected a throw";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.diagnostic().format(),
              "etc.csv:3: ragged row: expected 3 cells, got 2");
  }
}

TEST(EtcIo, PermissivePolicyAdmitsNonFiniteCells) {
  // The permissive policy exists for forensic re-loading of damaged
  // artifacts; it relaxes value checks but never structural ones.
  std::stringstream s("app,m0,m1\na0,inf,2.0\n");
  const auto etc = sched::loadEtcCsv(s, "etc.csv", core::InputPolicy::permissive());
  EXPECT_TRUE(std::isinf(etc(0, 0)));
  EXPECT_DOUBLE_EQ(etc(0, 1), 2.0);
  std::stringstream ragged("app,m0,m1\na0,1.0\n");
  EXPECT_THROW(
      (void)sched::loadEtcCsv(ragged, "etc.csv", core::InputPolicy::permissive()),
      InvalidArgumentError);
}

TEST(EtcIo, PolicyCapRejectsHostileHeader) {
  core::InputPolicy tight;
  tight.maxDeclaredCount = 4;
  std::stringstream s("app,m0,m1,m2,m3,m4,m5\na0,1,1,1,1,1,1\n");
  EXPECT_THROW((void)sched::loadEtcCsv(s, "etc.csv", tight),
               InvalidArgumentError);
}

TEST(EtcIo, SkipsBlankLinesAndCarriageReturns) {
  std::stringstream s("app,m0,m1\r\na0,1.5,2.5\r\n\na1,3.5,4.5\n");
  const auto etc = sched::loadEtcCsv(s);
  EXPECT_EQ(etc.apps(), 2u);
  EXPECT_DOUBLE_EQ(etc(0, 1), 2.5);
  EXPECT_DOUBLE_EQ(etc(1, 0), 3.5);
}

// Property: measured heterogeneities track the requested ones across a sweep
// (the CVB construction's defining property).
class EtcHeterogeneity
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(EtcHeterogeneity, MeasuredTracksRequested) {
  const auto [taskHet, machineHet] = GetParam();
  sched::EtcOptions options;
  options.apps = 400;       // large instance for stable statistics
  options.machines = 40;
  options.taskHeterogeneity = taskHet;
  options.machineHeterogeneity = machineHet;
  Pcg32 rng(17);
  const auto etc = sched::generateEtc(options, rng);

  // Machine heterogeneity: CV across machines within a row, averaged.
  std::vector<double> rowCvs;
  std::vector<double> rowMeans;
  for (std::size_t i = 0; i < options.apps; ++i) {
    std::vector<double> row(options.machines);
    for (std::size_t j = 0; j < options.machines; ++j) {
      row[j] = etc(i, j);
    }
    const Summary s = summarize(row);
    rowCvs.push_back(s.heterogeneity());
    rowMeans.push_back(s.mean);
  }
  const double measuredMachineHet = summarize(rowCvs).mean;
  EXPECT_NEAR(measuredMachineHet, machineHet, 0.05 + 0.1 * machineHet);

  // Task heterogeneity: CV of the per-task central values.
  const double measuredTaskHet = summarize(rowMeans).heterogeneity();
  // The row mean also carries machine-level noise (variance shrinks with
  // 1/machines); the tolerance accounts for it.
  EXPECT_NEAR(measuredTaskHet, taskHet, 0.06 + 0.15 * taskHet);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EtcHeterogeneity,
    ::testing::Values(std::pair{0.1, 0.1}, std::pair{0.3, 0.3},
                      std::pair{0.7, 0.7}, std::pair{0.3, 0.9},
                      std::pair{0.9, 0.3}, std::pair{1.2, 0.5}));

}  // namespace
}  // namespace robust

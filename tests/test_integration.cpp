// Integration tests: the full Fig. 3 and Fig. 4 experiment pipelines,
// cross-module agreement, determinism across thread counts, and the
// paper's qualitative findings as assertions.
#include <gtest/gtest.h>

#include <cmath>

#include "robust/core/validation.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/experiment.hpp"
#include "robust/scheduling/experiment.hpp"
#include "robust/util/stats.hpp"
#include "eq6_oracle.hpp"

namespace robust {
namespace {

// ------------------------------------------------------------- Fig. 3

class Fig3Pipeline : public ::testing::Test {
 protected:
  static const std::vector<sched::Fig3Row>& rows() {
    static const std::vector<sched::Fig3Row> cached = [] {
      sched::Fig3Options options;
      options.mappings = 300;
      options.seed = 77;
      return sched::runFig3(options);
    }();
    return cached;
  }
};

TEST_F(Fig3Pipeline, ProducesRequestedRows) {
  EXPECT_EQ(rows().size(), 300u);
  for (const auto& row : rows()) {
    EXPECT_GT(row.makespan, 0.0);
    EXPECT_GE(row.robustness, 0.0);
    EXPECT_GE(row.loadBalance, 0.0);
    EXPECT_LE(row.loadBalance, 1.0);
    EXPECT_GE(row.maxMachineCount, row.makespanMachineCount);
  }
}

TEST_F(Fig3Pipeline, RobustnessCorrelatesWithMakespan) {
  std::vector<double> ms;
  std::vector<double> rho;
  for (const auto& row : rows()) {
    ms.push_back(row.makespan);
    rho.push_back(row.robustness);
  }
  EXPECT_GT(pearson(ms, rho), 0.5);  // "generally correlated"
}

TEST_F(Fig3Pipeline, S1ClustersLieExactlyOnTheirLines) {
  // Section 4.2: for mappings in S1(x), rho = (tau-1) * M / sqrt(x).
  const double tau = 1.2;
  for (const auto& row : rows()) {
    const double line =
        (tau - 1.0) * row.makespan /
        std::sqrt(static_cast<double>(row.maxMachineCount));
    if (row.inS1) {
      EXPECT_NEAR(row.robustness, line, 1e-9 * row.makespan);
    } else {
      // Outliers lie strictly below the line for their own n(m(C)).
      const double ownLine =
          (tau - 1.0) * row.makespan /
          std::sqrt(static_cast<double>(row.makespanMachineCount));
      EXPECT_LE(row.robustness, ownLine + 1e-9);
    }
  }
}

TEST_F(Fig3Pipeline, SimilarMakespansDifferInRobustness) {
  // The paper's headline: the metric separates mappings that makespan
  // cannot. Find at least one pair within 2% makespan whose robustness
  // differs by >= 40%.
  const auto& r = rows();
  bool found = false;
  for (std::size_t i = 0; i < r.size() && !found; ++i) {
    for (std::size_t j = i + 1; j < r.size() && !found; ++j) {
      const double msRatio = r[i].makespan / r[j].makespan;
      if (msRatio < 0.98 || msRatio > 1.02) {
        continue;
      }
      const double lo = std::min(r[i].robustness, r[j].robustness);
      const double hi = std::max(r[i].robustness, r[j].robustness);
      found = lo > 0.0 && hi / lo > 1.4;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Fig3Determinism, IndependentOfThreadCount) {
  sched::Fig3Options options;
  options.mappings = 60;
  options.seed = 99;
  options.threads = 1;
  const auto serial = sched::runFig3(options);
  options.threads = 4;
  const auto parallel = sched::runFig3(options);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].makespan, parallel[i].makespan);
    EXPECT_DOUBLE_EQ(serial[i].robustness, parallel[i].robustness);
  }
}

// ------------------------------------------------------------- Fig. 4

class Fig4Pipeline : public ::testing::Test {
 protected:
  static const hiperd::Fig4Result& result() {
    static const hiperd::Fig4Result cached = [] {
      hiperd::Fig4Options options;
      options.mappings = 150;
      options.seed = 2003;
      return hiperd::runFig4(options);
    }();
    return cached;
  }
};

TEST_F(Fig4Pipeline, ProducesAlignedRowsAndMappings) {
  EXPECT_EQ(result().rows.size(), 150u);
  EXPECT_EQ(result().mappings.size(), 150u);
  EXPECT_EQ(result().generated.scenario.graph.paths().size(), 19u);
}

TEST_F(Fig4Pipeline, SlackAndRobustnessSignsAgree) {
  for (const auto& row : result().rows) {
    if (row.slack < 0.0) {
      EXPECT_EQ(row.robustness, 0.0);
    }
    EXPECT_EQ(row.robustness, std::floor(row.robustness));  // floored metric
  }
}

TEST_F(Fig4Pipeline, RobustnessCorrelatesWithSlack) {
  std::vector<double> slack;
  std::vector<double> rho;
  for (const auto& row : result().rows) {
    slack.push_back(row.slack);
    rho.push_back(row.robustness);
  }
  EXPECT_GT(pearson(slack, rho), 0.5);
}

TEST_F(Fig4Pipeline, MostMappingsFeasibleAtOperatingPoint) {
  std::size_t feasible = 0;
  for (const auto& row : result().rows) {
    feasible += row.slack >= 0.0;
  }
  // Calibration targets put the random-mapping population mostly inside
  // the feasible region (the paper's scatter has no infeasible points).
  EXPECT_GT(feasible * 10, result().rows.size() * 8);  // > 80%
}

TEST_F(Fig4Pipeline, Table2PairExists) {
  const auto pair = hiperd::findTable2Pair(result().rows, 0.01, 5.0);
  ASSERT_TRUE(pair.has_value());
  const auto [lo, hi] = *pair;
  const auto& a = result().rows[lo];
  const auto& b = result().rows[hi];
  EXPECT_LE(std::fabs(a.slack - b.slack), 0.01);
  EXPECT_GE(b.robustness / a.robustness, 1.5);
}

TEST_F(Fig4Pipeline, LambdaStarMatchesRadius) {
  // For every feasible mapping the reported critical loads lambda* must lie
  // at Euclidean distance >= metric (the metric is the floored minimum).
  const auto& scenario = result().generated.scenario;
  for (std::size_t m = 0; m < result().rows.size(); ++m) {
    const auto& row = result().rows[m];
    if (row.slack < 0.0 || row.lambdaStar.empty()) {
      continue;
    }
    const double dist = num::distance2(row.lambdaStar, scenario.lambdaOrig);
    EXPECT_GE(dist + 1e-9, row.robustness);
    EXPECT_LE(dist, row.robustness + 1.0 + 1e-9);  // within the floor gap
  }
}

TEST(Fig4Determinism, IndependentOfThreadCount) {
  hiperd::Fig4Options options;
  options.mappings = 40;
  options.seed = 5;
  options.threads = 1;
  const auto serial = hiperd::runFig4(options);
  options.threads = 4;
  const auto parallel = hiperd::runFig4(options);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.rows[i].slack, parallel.rows[i].slack);
    EXPECT_DOUBLE_EQ(serial.rows[i].robustness, parallel.rows[i].robustness);
  }
}

// ------------------------------------------- cross-module consistency

TEST(CrossModule, HiperdAnalyticRadiiMatchMonteCarloOracle) {
  hiperd::Fig4Options options;
  options.mappings = 1;
  options.seed = 31;
  const auto result = hiperd::runFig4(options);
  // Every per-feature radius and the unfloored minimum against the Eq. 6
  // closed form over the derived features.
  const auto problem = core::CompiledProblem::compile(
      result.generated.scenario.compile().toSpec(result.mappings[0]));
  const auto exact = problem.evaluate();
  const auto& features = problem.features();
  const auto& origin = problem.parameter().origin;
  ASSERT_EQ(exact.radii.size(), features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    const double oracle = eq6::radius(features[i], origin, core::NormKind::L2);
    EXPECT_NEAR(exact.radii[i].radius, oracle, 1e-9 * oracle) << i;
  }
  const double exactMin = exact.radii[exact.bindingFeature].radius;
  const double oracleMin = eq6::metric(features, origin, core::NormKind::L2);
  EXPECT_NEAR(exactMin, oracleMin, 1e-9 * oracleMin);
}

TEST(CrossModule, ValidationConfirmsHiperdMetric) {
  hiperd::Fig4Options options;
  options.mappings = 3;
  options.seed = 57;
  const auto result = hiperd::runFig4(options);
  for (std::size_t m = 0; m < result.mappings.size(); ++m) {
    if (result.rows[m].slack < 0.0) {
      continue;
    }
    core::ValidationOptions vopts;
    vopts.samples = 500;
    const auto validation = core::validateRadius(
        core::CompiledProblem::compile(
            result.generated.scenario.compile().toSpec(result.mappings[m])),
        result.rows[m].robustness, vopts);
    EXPECT_EQ(validation.violationsInside, 0) << "mapping " << m;
  }
}

}  // namespace
}  // namespace robust

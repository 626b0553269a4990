// Unit tests for the Fig. 4 experiment driver helpers (pair selection) and
// the Fig. 3 driver's row invariants under non-default options.
#include <gtest/gtest.h>

#include <cmath>

#include "robust/hiperd/experiment.hpp"
#include "robust/scheduling/experiment.hpp"
#include "robust/util/error.hpp"

namespace robust {
namespace {

hiperd::Fig4Row row(double slack, double robustness) {
  hiperd::Fig4Row r;
  r.slack = slack;
  r.robustness = robustness;
  return r;
}

TEST(FindTable2Pair, PicksLargestRatioWithinTolerance) {
  const std::vector<hiperd::Fig4Row> rows = {
      row(0.50, 100.0),  // pairs with the next one: ratio 4
      row(0.502, 400.0),
      row(0.30, 100.0),  // pairs with the next one: ratio 2 (farther slack)
      row(0.304, 200.0),
      row(0.80, 50.0),   // alone in its slack window
  };
  const auto [lo, hi] = hiperd::findTable2Pair(rows, 0.005, 1.0).value();
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 1u);
}

TEST(FindTable2Pair, OrdersSmallerRobustnessFirst) {
  const std::vector<hiperd::Fig4Row> rows = {
      row(0.40, 300.0),
      row(0.401, 100.0),
  };
  const auto [lo, hi] = hiperd::findTable2Pair(rows, 0.01, 1.0).value();
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 0u);
}

TEST(FindTable2Pair, RespectsMinRobustness) {
  const std::vector<hiperd::Fig4Row> rows = {
      row(0.10, 1.0),  row(0.101, 10.0),   // ratio 10 but below threshold
      row(0.50, 100.0), row(0.501, 150.0), // ratio 1.5, eligible
  };
  const auto [lo, hi] = hiperd::findTable2Pair(rows, 0.01, 50.0).value();
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 3u);
}

TEST(FindTable2Pair, EmptyWhenNoEligiblePair) {
  // No eligible pair is a result, not an error; a single row still throws.
  const std::vector<hiperd::Fig4Row> none = {
      row(0.1, 100.0), row(0.5, 200.0),  // slack gap too wide
  };
  EXPECT_FALSE(hiperd::findTable2Pair(none, 0.01, 1.0).has_value());
  const std::vector<hiperd::Fig4Row> single = {row(0.1, 100.0)};
  EXPECT_THROW((void)hiperd::findTable2Pair(single, 0.01, 1.0),
               InvalidArgumentError);
}

TEST(FindTable2Pair, SeededFig4SetWithoutAPairIsEmpty) {
  // A valid Fig. 4 set with no Table 2 pair: at seed 4 only a few of the
  // 200 mappings are feasible and no two share a 0.005 slack window.
  hiperd::Fig4Options options;
  options.mappings = 200;
  options.seed = 4;
  const hiperd::Fig4Result result = hiperd::runFig4(options);
  ASSERT_EQ(result.rows.size(), 200u);
  std::size_t feasible = 0;
  for (const hiperd::Fig4Row& r : result.rows) {
    feasible += r.robustness > 0.0 ? 1 : 0;
  }
  EXPECT_GE(feasible, 2u);
  EXPECT_FALSE(hiperd::findTable2Pair(result.rows).has_value());
}

TEST(Fig3Driver, NonDefaultInstanceShapes) {
  sched::Fig3Options options;
  options.mappings = 50;
  options.etc.apps = 8;
  options.etc.machines = 3;
  options.tau = 1.4;
  options.seed = 5;
  const auto rows = sched::runFig3(options);
  ASSERT_EQ(rows.size(), 50u);
  for (const auto& r : rows) {
    // Counts must partition 8 applications over 3 machines.
    EXPECT_LE(r.makespanMachineCount, 8u);
    EXPECT_LE(r.maxMachineCount, 8u);
    EXPECT_GE(r.maxMachineCount, (8u + 2u) / 3u);  // ceil(8/3) pigeonhole
    // S1 membership implies the exact line (tau = 1.4 here).
    if (r.inS1) {
      EXPECT_NEAR(r.robustness,
                  0.4 * r.makespan /
                      std::sqrt(static_cast<double>(r.maxMachineCount)),
                  1e-9 * r.makespan);
    }
  }
  EXPECT_THROW((void)sched::runFig3(sched::Fig3Options{.mappings = 0}),
               InvalidArgumentError);
}

TEST(Fig4Driver, ValidatesOptions) {
  hiperd::Fig4Options bad;
  bad.mappings = 0;
  EXPECT_THROW((void)hiperd::runFig4(bad), InvalidArgumentError);
}

}  // namespace
}  // namespace robust

// The discrete machine-failure model: combinatorial radius, property tests,
// and its subsumption under the general Section 3.2 floor rule (the floored
// metric of failureSpec() equals failureRadius()).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/core/failure.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"
#include "snapshot_lookup.hpp"

namespace {

using namespace robust;
using core::FailureModel;
using testing_util::gaugeValue;

FailureModel model(std::size_t machines,
                   std::vector<std::vector<std::size_t>> hosts) {
  FailureModel m;
  m.machines = machines;
  m.replicaHosts = std::move(hosts);
  return m;
}

// True when every task keeps at least one live replica after the machines
// in `failed` drop out.
bool survivesFailures(const FailureModel& model,
                      std::span<const std::size_t> failed) {
  std::vector<bool> down(model.machines, false);
  for (std::size_t m : failed) {
    down[m] = true;
  }
  for (const auto& hosts : model.replicaHosts) {
    bool alive = false;
    for (std::size_t h : hosts) {
      if (!down[h]) {
        alive = true;
        break;
      }
    }
    if (!alive) {
      return false;
    }
  }
  return true;
}

// Exhaustive oracle: the largest k such that EVERY k-subset of machines can
// fail without killing a task (checked by bitmask enumeration).
std::size_t bruteForceRadius(const FailureModel& m) {
  const std::size_t M = m.machines;
  std::size_t radius = M;
  for (std::uint64_t mask = 1; mask < (1ull << M); ++mask) {
    std::vector<std::size_t> failed;
    for (std::size_t j = 0; j < M; ++j) {
      if (mask & (1ull << j)) {
        failed.push_back(j);
      }
    }
    if (!survivesFailures(m, failed)) {
      radius = std::min(radius, failed.size() - 1);
    }
  }
  return radius;
}

TEST(Failure, DistinctHostCountIgnoresDuplicates) {
  const std::vector<std::size_t> hosts{2, 0, 2, 2, 0};
  EXPECT_EQ(core::distinctHostCount(hosts), 2u);
}

TEST(Failure, SurvivesWhenEveryTaskKeepsALiveReplica) {
  const FailureModel m = model(4, {{0, 1}, {2, 3}});
  EXPECT_TRUE(survivesFailures(m, std::vector<std::size_t>{0, 2}));
  EXPECT_FALSE(survivesFailures(m, std::vector<std::size_t>{0, 1}));
}

TEST(Failure, RadiusIsMinDistinctHostsMinusOne) {
  // Task 0 on 3 distinct machines, task 1 on 2, task 2 on 2-but-duplicated.
  const FailureModel m = model(5, {{0, 1, 2}, {3, 4}, {0, 0, 3}});
  EXPECT_EQ(core::failureRadius(m), 1u);
}

TEST(Failure, NoTasksSurvivesEverything) {
  EXPECT_EQ(core::failureRadius(model(3, {})), 3u);
}

TEST(Failure, RadiusMatchesExhaustiveOracleOnRandomModels) {
  Pcg32 rng(11, 3);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t M = 2 + rng.nextBounded(5);       // 2..6 machines
    const std::size_t T = 1 + rng.nextBounded(4);       // 1..4 tasks
    std::vector<std::vector<std::size_t>> hosts(T);
    for (auto& h : hosts) {
      const std::size_t replicas = 1 + rng.nextBounded(3);
      for (std::size_t r = 0; r < replicas; ++r) {
        h.push_back(rng.nextBounded(static_cast<std::uint32_t>(M)));
      }
    }
    const FailureModel m = model(M, std::move(hosts));
    EXPECT_EQ(core::failureRadius(m), bruteForceRadius(m)) << "trial " << trial;
  }
}

TEST(Failure, RadiusIsMonotoneNonIncreasingInAddedTasks) {
  // Adding a task can only shrink (or keep) the guaranteed radius.
  FailureModel m = model(6, {{0, 1, 2, 3}});
  std::size_t prev = core::failureRadius(m);
  const std::vector<std::vector<std::size_t>> extra{
      {0, 1, 2}, {3, 4, 5}, {1, 4}, {2}};
  for (const auto& hosts : extra) {
    m.replicaHosts.push_back(hosts);
    const std::size_t now = core::failureRadius(m);
    EXPECT_LE(now, prev);
    prev = now;
  }
  EXPECT_EQ(prev, 0u);  // the single-host task pins the radius at 0
}

TEST(Failure, ReplicationOntoDistinctMachinesRaisesTheRadius) {
  // One replica each: any single failure kills a task.
  const FailureModel single = model(4, {{0}, {1}, {2}});
  EXPECT_EQ(core::failureRadius(single), 0u);
  // A second replica on a distinct machine: every task survives one failure.
  const FailureModel replicated = model(4, {{0, 3}, {1, 0}, {2, 1}});
  EXPECT_GT(core::failureRadius(replicated), core::failureRadius(single));
  // A second replica on the SAME machine buys nothing.
  const FailureModel colocated = model(4, {{0, 0}, {1, 1}, {2, 2}});
  EXPECT_EQ(core::failureRadius(colocated), 0u);
}

TEST(Failure, RejectsHostlessTasksAndBadIndices) {
  EXPECT_THROW((void)core::failureRadius(model(2, {{}})),
               InvalidArgumentError);
  EXPECT_THROW((void)core::failureRadius(model(2, {{5}})),
               InvalidArgumentError);
  EXPECT_THROW((void)core::failureRadius(model(0, {})),
               InvalidArgumentError);
}

// Section 3.2 subsumption: the general engine, given failureSpec(), floors
// the continuous L1 metric to exactly the combinatorial radius.
TEST(Failure, FlooredMetricOfFailureSpecEqualsFailureRadius) {
  Pcg32 rng(23, 9);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t M = 2 + rng.nextBounded(5);
    const std::size_t T = 1 + rng.nextBounded(4);
    std::vector<std::vector<std::size_t>> hosts(T);
    for (auto& h : hosts) {
      const std::size_t replicas = 1 + rng.nextBounded(3);
      for (std::size_t r = 0; r < replicas; ++r) {
        h.push_back(rng.nextBounded(static_cast<std::uint32_t>(M)));
      }
    }
    const FailureModel m = model(M, std::move(hosts));
    const core::RobustnessReport report =
        core::CompiledProblem::compile(core::failureSpec(m)).evaluate();
    EXPECT_EQ(report.metric,
              static_cast<double>(core::failureRadius(m)))
        << "trial " << trial;
  }
}

// The paper's Section 3.2 fixture shape: a mapping whose continuous radius
// is fractional must floor down, and the failure model's integral radius is
// that floor by construction.
TEST(Failure, FloorRuleFixture) {
  const FailureModel m = model(4, {{0, 1, 2}, {1, 2, 3}});
  // Each task has 3 distinct hosts: radius 2. The continuous L1 radius of
  // the binding "live replicas >= 1" feature is (3 - 1) / 1 = 2 exactly;
  // flooring is the identity here but the report must still be marked
  // floored (discrete subspace).
  const core::RobustnessReport report =
      core::CompiledProblem::compile(core::failureSpec(m)).evaluate();
  EXPECT_TRUE(report.floored);
  EXPECT_EQ(report.metric, 2.0);
  EXPECT_EQ(core::failureRadius(m), 2u);
}

TEST(Failure, RadiusGaugeRecordedWhenObsOn) {
  obs::setEnabled(true);
  obs::resetMetrics();
  const FailureModel m = model(4, {{0, 1}, {2, 3}});
  EXPECT_EQ(core::failureRadius(m), 1u);
  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  EXPECT_EQ(gaugeValue(snap, "core.failure.radius"), 1);
  obs::setEnabled(false);
}

TEST(Failure, NoGaugeRecordedWhenObsOff) {
  obs::setEnabled(false);
  obs::resetMetrics();
  const FailureModel m = model(5, {{0, 1, 2}});
  EXPECT_EQ(core::failureRadius(m), 2u);
  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  EXPECT_EQ(gaugeValue(snap, "core.failure.radius"), 0);
}

}  // namespace

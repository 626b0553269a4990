// End-to-end tests of the replicated cloud allocation: memory feasibility
// as hard constraints, the discrete failure radius, and replication-aware
// search — reported through the robust::obs run report.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "robust/obs/metrics.hpp"
#include "robust/obs/report.hpp"
#include "robust/scheduling/cloud_system.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"
#include "snapshot_lookup.hpp"

namespace {

using namespace robust;
using testing_util::gaugeValue;
using sched::CloudScenario;
using sched::CloudSystem;
using sched::Mapping;

// 3 tasks x 3 machines, uniform speed, generous memory, R = 2.
CloudSystem uniformCloud(double capacity, std::size_t replication = 2) {
  sched::EtcMatrix etc(3, 3);
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t j = 0; j < 3; ++j) {
      etc(t, j) = 10.0;
    }
  }
  return CloudSystem(CloudScenario{std::move(etc), num::Vec{2.0, 2.0, 2.0},
                                   num::Vec(3, capacity), replication,
                                   /*tau=*/1.5});
}

TEST(Cloud, ValidatesScenarioShape) {
  sched::EtcMatrix etc(2, 2);
  etc(0, 0) = etc(0, 1) = etc(1, 0) = etc(1, 1) = 1.0;
  EXPECT_THROW(CloudSystem(CloudScenario{etc, num::Vec{1.0}, num::Vec{4.0, 4.0},
                                         1, 1.2}),
               InvalidArgumentError);
  EXPECT_THROW(CloudSystem(CloudScenario{etc, num::Vec{1.0, 1.0},
                                         num::Vec{4.0, 4.0}, 0, 1.2}),
               InvalidArgumentError);
  EXPECT_THROW(CloudSystem(CloudScenario{etc, num::Vec{1.0, 1.0},
                                         num::Vec{4.0, 4.0}, 1, 0.9}),
               InvalidArgumentError);
}

TEST(Cloud, GreedyPlacesReplicasOnDistinctMachines) {
  const CloudSystem cloud = uniformCloud(100.0);
  const Mapping greedy = cloud.greedyMapping();
  ASSERT_EQ(greedy.apps(), cloud.slots());
  for (std::size_t t = 0; t < cloud.tasks(); ++t) {
    EXPECT_NE(greedy.machineOf(2 * t), greedy.machineOf(2 * t + 1))
        << "replicas of task " << t << " share a machine";
  }
  EXPECT_EQ(cloud.failureRadius(greedy), 1u);
  EXPECT_TRUE(cloud.isFeasible(greedy));
}

TEST(Cloud, MemoryInfeasibleGreedyIsRejected) {
  // Capacity 3 per machine but two replicas of demand 2 must share some
  // machine (6 slots on 3 machines): greedy overcommits and analyze()
  // reports the origin infeasible instead of a radius.
  const CloudSystem cloud = uniformCloud(3.0);
  const Mapping greedy = cloud.greedyMapping();
  EXPECT_FALSE(cloud.isFeasible(greedy));
  EXPECT_GT(cloud.memoryViolation(greedy), 0.0);

  const core::RobustnessReport report = cloud.analyze(greedy);
  EXPECT_TRUE(report.infeasibleOrigin);
  EXPECT_EQ(report.metric, 0.0);
}

TEST(Cloud, AnalyzeYieldsPositiveConstrainedMetricWhenFeasible) {
  const CloudSystem cloud = uniformCloud(100.0);
  const core::RobustnessReport report = cloud.analyze(cloud.greedyMapping());
  EXPECT_FALSE(report.infeasibleOrigin);
  EXPECT_TRUE(std::isfinite(report.metric));
  EXPECT_GT(report.metric, 0.0);
}

TEST(Cloud, TighterMemoryCannotShrinkTheConstrainedMetric) {
  // Same placement, tighter (but still feasible) memory: the feasibility
  // region shrinks, so perturbations that used to count as violations fall
  // outside it and the nearest feasible violation can only move farther —
  // the constrained metric is monotone non-decreasing in tightening.
  const CloudSystem roomy = uniformCloud(100.0);
  const Mapping mapping = roomy.greedyMapping();
  const double roomyMetric = roomy.analyze(mapping).metric;
  const CloudSystem tight = uniformCloud(4.5);
  ASSERT_TRUE(tight.isFeasible(mapping));
  const double tightMetric = tight.analyze(mapping).metric;
  EXPECT_GE(tightMetric, roomyMetric - 1e-9);
}

TEST(Cloud, FailureModelMirrorsSlotAssignment) {
  const CloudSystem cloud = uniformCloud(100.0);
  const Mapping all0(std::vector<std::size_t>(cloud.slots(), 0), 3);
  EXPECT_EQ(cloud.failureRadius(all0), 0u);
  const core::FailureModel model = cloud.failureModel(all0);
  EXPECT_EQ(model.machines, 3u);
  ASSERT_EQ(model.replicaHosts.size(), 3u);
  EXPECT_EQ(model.replicaHosts[0], (std::vector<std::size_t>{0, 0}));
}

TEST(Cloud, LocalSearchStrictlyRaisesTheFailureRadius) {
  const CloudSystem cloud = uniformCloud(100.0);
  // Worst start: every replica on machine 0 — radius 0, fully co-located.
  const Mapping start(std::vector<std::size_t>(cloud.slots(), 0), 3);
  ASSERT_EQ(cloud.failureRadius(start), 0u);
  const Mapping improved = cloud.improve(start);
  EXPECT_TRUE(cloud.isFeasible(improved));
  EXPECT_GT(cloud.failureRadius(improved), cloud.failureRadius(start));
}

TEST(Cloud, SearchObjectivePenalizesInfeasibilityAboveAnyFeasibleScore) {
  const CloudSystem tight = uniformCloud(4.0);
  const auto objective = tight.searchObjective();
  const Mapping all0(std::vector<std::size_t>(tight.slots(), 0), 3);
  const Mapping spread = tight.greedyMapping();
  ASSERT_FALSE(tight.isFeasible(all0));
  ASSERT_TRUE(tight.isFeasible(spread));
  EXPECT_GT(objective(all0), objective(spread));
  EXPECT_GT(objective(all0), 1e8);
}

TEST(Cloud, EndToEndObsRunReportCarriesTheFailureRadius) {
  obs::setEnabled(true);
  obs::resetMetrics();

  const CloudSystem cloud = uniformCloud(5.0);
  const Mapping start(std::vector<std::size_t>(cloud.slots(), 0), 3);
  const Mapping improved = cloud.improve(start);
  ASSERT_TRUE(cloud.isFeasible(improved));
  const std::size_t radius = cloud.failureRadius(improved);
  EXPECT_GE(radius, 1u);

  const obs::MetricsSnapshot snap = obs::snapshotMetrics();
  EXPECT_EQ(gaugeValue(snap, "core.failure.radius"),
            static_cast<std::int64_t>(radius));

  obs::RunReport run;
  run.tool = "test_sched_cloud";
  run.benchmarks.push_back(obs::BenchResult{
      "failure_radius", static_cast<double>(radius), "machines"});
  std::ostringstream out;
  obs::writeRunReport(out, run);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"core.failure.radius\""), std::string::npos);
  EXPECT_NE(json.find("\"failure_radius\""), std::string::npos);
  obs::setEnabled(false);
}

TEST(Cloud, SpecShapesMatchTheScenario) {
  const CloudSystem cloud = uniformCloud(100.0);
  const Mapping greedy = cloud.greedyMapping();
  const core::ProblemSpec spec = cloud.toSpec(greedy);
  ASSERT_EQ(spec.subspaces.size(), 2u);
  EXPECT_EQ(spec.subspaces[0].origin.size(), cloud.tasks());
  EXPECT_EQ(spec.subspaces[1].origin.size(), cloud.machines());
  EXPECT_EQ(spec.features.size(), spec.constraints.size());
  for (const core::LinearConstraint& c : spec.constraints) {
    EXPECT_EQ(c.coeffs.size(), cloud.tasks() + cloud.machines());
  }
}

}  // namespace

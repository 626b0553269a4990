// Tests for the HiPer-D DAG model: construction validation, path
// enumeration semantics (trigger vs update paths), reachability, and the
// Graphviz export.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "robust/hiperd/graph.hpp"
#include "robust/util/error.hpp"

namespace robust::hiperd {
namespace {

NodeRef sensor(std::size_t i) { return NodeRef{NodeKind::Sensor, i}; }
NodeRef app(std::size_t i) { return NodeRef{NodeKind::Application, i}; }
NodeRef actuator(std::size_t i) { return NodeRef{NodeKind::Actuator, i}; }

/// A miniature Fig. 2-style system:
///
///   s0 -> a0 -> a1 -> act0                (trigger path of s0)
///   s1 -> a2 ---^ (update input into a1)  (update path of s1)
///   s1 -> a2 -> a3 -> act1                (trigger path of s1, continuing)
///
/// a1 has two inputs: a0 (trigger) and a2 (update).
SystemGraph miniSystem() {
  SystemGraph g;
  g.addSensor("s0", 1.0);
  g.addSensor("s1", 2.0);
  g.addApplication("a0");
  g.addApplication("a1");
  g.addApplication("a2");
  g.addApplication("a3");
  g.addActuator("act0");
  g.addActuator("act1");
  g.addEdge(sensor(0), app(0));
  g.addEdge(app(0), app(1), /*trigger=*/true);
  g.addEdge(app(1), actuator(0));
  g.addEdge(sensor(1), app(2));
  g.addEdge(app(2), app(1), /*trigger=*/false);  // update input
  g.addEdge(app(2), app(3));
  g.addEdge(app(3), actuator(1));
  g.finalize();
  return g;
}

// ----------------------------------------------------------- structure

TEST(SystemGraph, CountsAndNames) {
  const SystemGraph g = miniSystem();
  EXPECT_EQ(g.sensorCount(), 2u);
  EXPECT_EQ(g.applicationCount(), 4u);
  EXPECT_EQ(g.actuatorCount(), 2u);
  EXPECT_EQ(g.edgeCount(), 7u);
  EXPECT_EQ(g.sensorName(0), "s0");
  EXPECT_EQ(g.applicationName(3), "a3");
  EXPECT_EQ(g.actuatorName(1), "act1");
  EXPECT_DOUBLE_EQ(g.sensorRate(1), 2.0);
}

TEST(SystemGraph, AdjacencyQueries) {
  const SystemGraph g = miniSystem();
  // a2 feeds a1 (update input) and a3.
  const auto& out = g.outEdgesOfApp(2);
  ASSERT_EQ(out.size(), 2u);
  std::vector<std::size_t> successors;
  for (std::size_t eid : out) {
    EXPECT_EQ(g.edge(eid).from.index, 2u);
    ASSERT_EQ(g.edge(eid).to.kind, NodeKind::Application);
    successors.push_back(g.edge(eid).to.index);
  }
  std::sort(successors.begin(), successors.end());
  EXPECT_EQ(successors, (std::vector<std::size_t>{1, 3}));
}

TEST(SystemGraph, Reachability) {
  const SystemGraph g = miniSystem();
  EXPECT_TRUE(g.sensorReachesApp(0, 0));
  EXPECT_TRUE(g.sensorReachesApp(0, 1));
  EXPECT_FALSE(g.sensorReachesApp(0, 2));
  EXPECT_FALSE(g.sensorReachesApp(0, 3));
  EXPECT_TRUE(g.sensorReachesApp(1, 1));  // via the update edge
  EXPECT_TRUE(g.sensorReachesApp(1, 2));
  EXPECT_TRUE(g.sensorReachesApp(1, 3));
  EXPECT_FALSE(g.sensorReachesApp(1, 0));
}

// ----------------------------------------------------------- enumeration

TEST(SystemGraph, EnumeratesExpectedPaths) {
  const SystemGraph g = miniSystem();
  const auto& paths = g.paths();
  ASSERT_EQ(paths.size(), 3u);

  // Identify paths by driving sensor + kind.
  int triggerS0 = 0;
  int updateS1 = 0;
  int triggerS1 = 0;
  for (const Path& p : paths) {
    if (p.kind == PathKind::Trigger && p.drivingSensor == 0) {
      ++triggerS0;
      EXPECT_EQ(p.apps, (std::vector<std::size_t>{0, 1}));
      EXPECT_EQ(p.terminal, actuator(0));
      EXPECT_EQ(p.edges.size(), 3u);  // s0->a0, a0->a1, a1->act0
    } else if (p.kind == PathKind::Update) {
      ++updateS1;
      EXPECT_EQ(p.drivingSensor, 1u);
      EXPECT_EQ(p.apps, (std::vector<std::size_t>{2}));
      EXPECT_EQ(p.terminal, app(1));  // ends AT the multi-input app
      EXPECT_EQ(p.edges.size(), 2u);  // s1->a2, a2->a1
    } else {
      ++triggerS1;
      EXPECT_EQ(p.apps, (std::vector<std::size_t>{2, 3}));
      EXPECT_EQ(p.terminal, actuator(1));
    }
  }
  EXPECT_EQ(triggerS0, 1);
  EXPECT_EQ(updateS1, 1);
  EXPECT_EQ(triggerS1, 1);
}

TEST(SystemGraph, BranchingMultipliesPaths) {
  SystemGraph g;
  g.addSensor("s", 1.0);
  g.addApplication("a");
  g.addApplication("b");
  g.addApplication("c");
  g.addActuator("t0");
  g.addActuator("t1");
  g.addEdge(sensor(0), app(0));
  g.addEdge(app(0), app(1));
  g.addEdge(app(0), app(2));
  g.addEdge(app(1), actuator(0));
  g.addEdge(app(2), actuator(1));
  g.finalize();
  EXPECT_EQ(g.paths().size(), 2u);  // a->b->t0 and a->c->t1
}

TEST(SystemGraph, SingleInputTriggerFlagIrrelevant) {
  // A false trigger flag on a single-input application must not end paths.
  SystemGraph g;
  g.addSensor("s", 1.0);
  g.addApplication("a");
  g.addActuator("t");
  g.addEdge(sensor(0), app(0), /*trigger=*/false);
  g.addEdge(app(0), actuator(0));
  g.finalize();
  ASSERT_EQ(g.paths().size(), 1u);
  EXPECT_EQ(g.paths()[0].kind, PathKind::Trigger);
}

// ------------------------------------------------------------ validation

TEST(SystemGraph, RejectsCycle) {
  SystemGraph g;
  g.addSensor("s", 1.0);
  g.addApplication("a");
  g.addApplication("b");
  g.addActuator("t");
  g.addEdge(sensor(0), app(0));
  g.addEdge(app(0), app(1), true);
  g.addEdge(app(1), app(0), false);  // cycle (update edge, still a cycle)
  g.addEdge(app(1), actuator(0));
  EXPECT_THROW(g.finalize(), InvalidArgumentError);
}

TEST(SystemGraph, RejectsInputlessApplication) {
  SystemGraph g;
  g.addSensor("s", 1.0);
  g.addApplication("a");
  g.addApplication("orphan");
  g.addActuator("t");
  g.addEdge(sensor(0), app(0));
  g.addEdge(app(0), actuator(0));
  g.addEdge(app(1), actuator(0));  // orphan has an output but no input
  EXPECT_THROW(g.finalize(), InvalidArgumentError);
}

TEST(SystemGraph, RejectsOutputlessApplication) {
  SystemGraph g;
  g.addSensor("s", 1.0);
  g.addApplication("a");
  g.addActuator("t");
  g.addEdge(sensor(0), app(0));
  EXPECT_THROW(g.finalize(), InvalidArgumentError);
}

TEST(SystemGraph, RejectsMultiInputWithoutExactlyOneTrigger) {
  for (const bool bothTriggers : {true, false}) {
    SystemGraph g;
    g.addSensor("s", 1.0);
    g.addApplication("a");
    g.addApplication("b");
    g.addApplication("merge");
    g.addActuator("t");
    g.addEdge(sensor(0), app(0));
    g.addEdge(sensor(0), app(1));
    g.addEdge(app(0), app(2), bothTriggers);
    g.addEdge(app(1), app(2), bothTriggers);  // 2 triggers or 0 triggers
    g.addEdge(app(2), actuator(0));
    EXPECT_THROW(g.finalize(), InvalidArgumentError);
  }
}

TEST(SystemGraph, RejectsUnreachableApplication) {
  SystemGraph g;
  g.addSensor("s", 1.0);
  g.addApplication("a");
  g.addApplication("b");
  g.addActuator("t");
  g.addEdge(sensor(0), app(0));
  g.addEdge(app(0), actuator(0));
  // b's only input is from b itself? Can't self-loop; give it an input from
  // a but then remove reachability is impossible; instead give b an input
  // edge from an app that makes a cycle-free but sensor-unreachable pair.
  // Simplest violation: b has an input from... nothing reachable. An app
  // with input only from another inputless app is caught by the inputless
  // check first, so unreachability is exercised via a sensorless graph
  // being impossible; the check still guards programmatic edge removal.
  g.addEdge(app(1), actuator(0));
  EXPECT_THROW(g.finalize(), InvalidArgumentError);
}

TEST(SystemGraph, RejectsBadEdgeShapes) {
  SystemGraph g;
  g.addSensor("s", 1.0);
  g.addApplication("a");
  g.addActuator("t");
  EXPECT_THROW(g.addEdge(sensor(0), actuator(0)), InvalidArgumentError);
  EXPECT_THROW(g.addEdge(actuator(0), app(0)), InvalidArgumentError);
  EXPECT_THROW(g.addEdge(app(0), sensor(0)), InvalidArgumentError);
  EXPECT_THROW(g.addEdge(app(0), app(0)), InvalidArgumentError);
  EXPECT_THROW(g.addEdge(app(0), app(5)), InvalidArgumentError);
}

TEST(SystemGraph, RejectsMutationAfterFinalize) {
  SystemGraph g = miniSystem();
  EXPECT_THROW(g.addSensor("late", 1.0), InvalidArgumentError);
  EXPECT_THROW(g.addEdge(sensor(0), app(1)), InvalidArgumentError);
  EXPECT_THROW(g.finalize(), InvalidArgumentError);
}

TEST(SystemGraph, QueriesRequireFinalize) {
  SystemGraph g;
  g.addSensor("s", 1.0);
  g.addApplication("a");
  g.addActuator("t");
  g.addEdge(sensor(0), app(0));
  g.addEdge(app(0), actuator(0));
  EXPECT_THROW((void)g.paths(), StateError);
  EXPECT_THROW((void)g.sensorReachesApp(0, 0), StateError);
}

TEST(SystemGraph, RejectsNonPositiveSensorRate) {
  SystemGraph g;
  EXPECT_THROW(g.addSensor("s", 0.0), InvalidArgumentError);
  EXPECT_THROW(g.addSensor("s", -1.0), InvalidArgumentError);
}

// ------------------------------------------------------------------ dot

TEST(SystemGraph, DotExportContainsAllNodesAndStyles) {
  const SystemGraph g = miniSystem();
  std::ostringstream oss;
  g.writeDot(oss);
  const std::string dot = oss.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);   // sensors
  EXPECT_NE(dot.find("shape=circle"), std::string::npos);    // apps
  EXPECT_NE(dot.find("shape=box"), std::string::npos);       // actuators
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);    // update edge
  EXPECT_NE(dot.find("s0 -> a0"), std::string::npos);
  EXPECT_NE(dot.find("a3 -> t1"), std::string::npos);
}

}  // namespace
}  // namespace robust::hiperd

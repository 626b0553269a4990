// The HiPer-D application model of Section 3.2: a DAG of continuously
// executing, communicating applications fed by sensors and draining into
// actuators (Fig. 2 of the paper).
//
// A *path* is a chain of producer-consumer pairs that starts at a sensor
// (the driving sensor) and ends at an actuator (a "trigger path") or at a
// multiple-input application (an "update path"). When a walk reaches a
// multiple-input application through its designated trigger edge it
// continues through; through any other edge the path ends there (the
// multiple-input application *receives* the update but is not part of it).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace robust::hiperd {

/// Kind of graph node.
enum class NodeKind { Sensor, Application, Actuator };

/// Identifies a node: its kind plus an index within that kind's own space
/// (sensor 0..S-1, application 0..A-1, actuator 0..T-1).
struct NodeRef {
  NodeKind kind = NodeKind::Application;
  std::size_t index = 0;

  friend bool operator==(const NodeRef&, const NodeRef&) = default;
};

/// A directed edge. Sensor->app edges inject data; app->app edges are
/// inter-application transfers; app->actuator edges drive actuators.
struct Edge {
  NodeRef from;
  NodeRef to;
  bool trigger = true;  ///< into a multiple-input application: true when the
                        ///< walk continues through (the "trigger" input)
};

/// Path classification per the paper.
enum class PathKind { Trigger, Update };

/// One enumerated path: P_k of the paper.
struct Path {
  std::size_t drivingSensor = 0;       ///< sensor index the path starts at
  std::vector<std::size_t> apps;       ///< application indices, in chain order
  std::vector<std::size_t> edges;      ///< traversed edge ids, in chain order
                                       ///< (sensor edge, inter-app edges, and
                                       ///< the terminal edge)
  PathKind kind = PathKind::Trigger;
  NodeRef terminal;                    ///< actuator (trigger) or the fed
                                       ///< multiple-input app (update)
};

/// Builder + immutable view of the sensor/application/actuator DAG.
///
/// Usage: add nodes and edges, then finalize(); structural queries and path
/// enumeration are only available on a finalized graph.
class SystemGraph {
 public:
  /// Adds a sensor with the given maximum periodic output data rate
  /// (1/R is the throughput bound of every application it drives).
  std::size_t addSensor(std::string name, double rate);

  /// Adds an application node.
  std::size_t addApplication(std::string name);

  /// Adds an actuator node.
  std::size_t addActuator(std::string name);

  /// Adds a directed edge; see Edge for the `trigger` semantics. Valid
  /// shapes: sensor->app, app->app, app->actuator.
  std::size_t addEdge(NodeRef from, NodeRef to, bool trigger = true);

  /// Validates the structure (acyclic, every app reachable from a sensor and
  /// draining somewhere, exactly one trigger edge into each multi-input app)
  /// and enumerates all paths. Throws InvalidArgumentError on violations.
  void finalize();

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }
  [[nodiscard]] std::size_t sensorCount() const noexcept {
    return sensors_.size();
  }
  [[nodiscard]] std::size_t applicationCount() const noexcept {
    return applications_.size();
  }
  [[nodiscard]] std::size_t actuatorCount() const noexcept {
    return actuators_.size();
  }
  [[nodiscard]] std::size_t edgeCount() const noexcept { return edges_.size(); }

  [[nodiscard]] const std::string& sensorName(std::size_t i) const;
  [[nodiscard]] const std::string& applicationName(std::size_t i) const;
  [[nodiscard]] const std::string& actuatorName(std::size_t i) const;

  /// Sensor output data rate.
  [[nodiscard]] double sensorRate(std::size_t i) const;

  /// The edge with the given id.
  [[nodiscard]] const Edge& edge(std::size_t id) const;

  /// Ids of edges leaving application `app` (to apps or actuators).
  [[nodiscard]] const std::vector<std::size_t>& outEdgesOfApp(
      std::size_t app) const;

  /// All enumerated paths (requires finalize()).
  [[nodiscard]] const std::vector<Path>& paths() const;

  /// R(a_i) per application: the highest rate of a sensor driving a path
  /// that contains it, or 0 for an application on no path (requires
  /// finalize()). 1/R(a_i) is the application's throughput bound.
  [[nodiscard]] std::vector<double> drivingRates() const;

  /// True when sensor `sensor` can reach application `app` along edges
  /// (requires finalize()); governs which b_ijz coefficients may be non-zero.
  [[nodiscard]] bool sensorReachesApp(std::size_t sensor,
                                      std::size_t app) const;

  /// Emits the DAG in Graphviz dot format (Fig. 2 regeneration).
  void writeDot(std::ostream& os) const;

 private:
  void requireFinalized() const;
  void checkAcyclic() const;
  void enumeratePaths();
  void computeReachability();

  struct Sensor {
    std::string name;
    double rate;
  };

  std::vector<Sensor> sensors_;
  std::vector<std::string> applications_;
  std::vector<std::string> actuators_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> outOfApp_;
  std::vector<std::vector<std::size_t>> inOfApp_;
  std::vector<std::vector<std::size_t>> outOfSensor_;
  std::vector<Path> paths_;
  std::vector<std::vector<bool>> sensorReach_;  // [sensor][app]
  bool finalized_ = false;
};

}  // namespace robust::hiperd

#include "robust/hiperd/graph.hpp"

#include <algorithm>
#include <deque>
#include <ostream>

#include "robust/util/error.hpp"

namespace robust::hiperd {

namespace {
/// Guard against path explosion in pathological graphs; the model targets
/// tens of paths (the paper's system has 19).
constexpr std::size_t kMaxPaths = 100000;
}  // namespace

std::size_t SystemGraph::addSensor(std::string name, double rate) {
  ROBUST_REQUIRE(!finalized_, "SystemGraph: already finalized");
  ROBUST_REQUIRE(rate > 0.0, "SystemGraph: sensor rate must be positive");
  sensors_.push_back(Sensor{std::move(name), rate});
  outOfSensor_.emplace_back();
  return sensors_.size() - 1;
}

std::size_t SystemGraph::addApplication(std::string name) {
  ROBUST_REQUIRE(!finalized_, "SystemGraph: already finalized");
  applications_.push_back(std::move(name));
  outOfApp_.emplace_back();
  inOfApp_.emplace_back();
  return applications_.size() - 1;
}

std::size_t SystemGraph::addActuator(std::string name) {
  ROBUST_REQUIRE(!finalized_, "SystemGraph: already finalized");
  actuators_.push_back(std::move(name));
  return actuators_.size() - 1;
}

std::size_t SystemGraph::addEdge(NodeRef from, NodeRef to, bool trigger) {
  ROBUST_REQUIRE(!finalized_, "SystemGraph: already finalized");
  const bool validShape =
      (from.kind == NodeKind::Sensor && to.kind == NodeKind::Application) ||
      (from.kind == NodeKind::Application &&
       to.kind == NodeKind::Application) ||
      (from.kind == NodeKind::Application && to.kind == NodeKind::Actuator);
  ROBUST_REQUIRE(validShape,
                 "SystemGraph: edges must be sensor->app, app->app, or "
                 "app->actuator");
  auto checkIndex = [&](const NodeRef& n) {
    switch (n.kind) {
      case NodeKind::Sensor:
        ROBUST_REQUIRE(n.index < sensors_.size(),
                       "SystemGraph: sensor index out of range");
        break;
      case NodeKind::Application:
        ROBUST_REQUIRE(n.index < applications_.size(),
                       "SystemGraph: application index out of range");
        break;
      case NodeKind::Actuator:
        ROBUST_REQUIRE(n.index < actuators_.size(),
                       "SystemGraph: actuator index out of range");
        break;
    }
  };
  checkIndex(from);
  checkIndex(to);
  ROBUST_REQUIRE(!(from.kind == NodeKind::Application &&
                   to.kind == NodeKind::Application &&
                   from.index == to.index),
                 "SystemGraph: self-loop");

  edges_.push_back(Edge{from, to, trigger});
  const std::size_t id = edges_.size() - 1;
  if (from.kind == NodeKind::Sensor) {
    outOfSensor_[from.index].push_back(id);
  } else {
    outOfApp_[from.index].push_back(id);
  }
  if (to.kind == NodeKind::Application) {
    inOfApp_[to.index].push_back(id);
  }
  return id;
}

void SystemGraph::requireFinalized() const {
  if (!finalized_) {
    throw StateError("SystemGraph: finalize() has not been called");
  }
}

void SystemGraph::checkAcyclic() const {
  // Kahn's algorithm on the application sub-graph (only app->app edges can
  // participate in a cycle).
  std::vector<std::size_t> indegree(applications_.size(), 0);
  for (const Edge& e : edges_) {
    if (e.from.kind == NodeKind::Application &&
        e.to.kind == NodeKind::Application) {
      ++indegree[e.to.index];
    }
  }
  std::deque<std::size_t> ready;
  for (std::size_t a = 0; a < applications_.size(); ++a) {
    if (indegree[a] == 0) {
      ready.push_back(a);
    }
  }
  std::size_t visited = 0;
  while (!ready.empty()) {
    const std::size_t a = ready.front();
    ready.pop_front();
    ++visited;
    for (std::size_t eid : outOfApp_[a]) {
      const Edge& e = edges_[eid];
      if (e.to.kind == NodeKind::Application && --indegree[e.to.index] == 0) {
        ready.push_back(e.to.index);
      }
    }
  }
  ROBUST_REQUIRE(visited == applications_.size(),
                 "SystemGraph: application graph contains a cycle");
}

void SystemGraph::enumeratePaths() {
  paths_.clear();
  // Effective trigger flag: single-input applications always continue the
  // walk regardless of the stored flag.
  auto isTriggerEntry = [&](std::size_t edgeId) {
    const Edge& e = edges_[edgeId];
    ROBUST_REQUIRE(e.to.kind == NodeKind::Application,
                   "internal: trigger query on a non-application edge");
    return inOfApp_[e.to.index].size() < 2 || e.trigger;
  };

  struct Frame {
    std::vector<std::size_t> apps;
    std::vector<std::size_t> edges;
  };

  for (std::size_t s = 0; s < sensors_.size(); ++s) {
    for (std::size_t firstEdge : outOfSensor_[s]) {
      // Iterative DFS over (entering edge) decisions.
      struct State {
        std::size_t enteringEdge;
        Frame frame;
      };
      std::vector<State> stack;
      stack.push_back(State{firstEdge, Frame{{}, {}}});
      while (!stack.empty()) {
        State state = std::move(stack.back());
        stack.pop_back();
        const Edge& entry = edges_[state.enteringEdge];
        Frame frame = std::move(state.frame);
        frame.edges.push_back(state.enteringEdge);

        const std::size_t app = entry.to.index;
        if (!isTriggerEntry(state.enteringEdge)) {
          // Update path: the multiple-input application receives the result.
          Path path;
          path.drivingSensor = s;
          path.apps = std::move(frame.apps);
          path.edges = std::move(frame.edges);
          path.kind = PathKind::Update;
          path.terminal = NodeRef{NodeKind::Application, app};
          paths_.push_back(std::move(path));
          ROBUST_REQUIRE(paths_.size() <= kMaxPaths,
                         "SystemGraph: path explosion");
          continue;
        }

        frame.apps.push_back(app);
        for (std::size_t eid : outOfApp_[app]) {
          const Edge& e = edges_[eid];
          if (e.to.kind == NodeKind::Actuator) {
            Path path;
            path.drivingSensor = s;
            path.apps = frame.apps;
            path.edges = frame.edges;
            path.edges.push_back(eid);
            path.kind = PathKind::Trigger;
            path.terminal = e.to;
            paths_.push_back(std::move(path));
            ROBUST_REQUIRE(paths_.size() <= kMaxPaths,
                           "SystemGraph: path explosion");
          } else {
            stack.push_back(State{eid, frame});
          }
        }
      }
    }
  }
}

void SystemGraph::computeReachability() {
  sensorReach_.assign(sensors_.size(),
                      std::vector<bool>(applications_.size(), false));
  for (std::size_t s = 0; s < sensors_.size(); ++s) {
    std::deque<std::size_t> frontier;
    for (std::size_t eid : outOfSensor_[s]) {
      const std::size_t app = edges_[eid].to.index;
      if (!sensorReach_[s][app]) {
        sensorReach_[s][app] = true;
        frontier.push_back(app);
      }
    }
    while (!frontier.empty()) {
      const std::size_t a = frontier.front();
      frontier.pop_front();
      for (std::size_t eid : outOfApp_[a]) {
        const Edge& e = edges_[eid];
        if (e.to.kind == NodeKind::Application &&
            !sensorReach_[s][e.to.index]) {
          sensorReach_[s][e.to.index] = true;
          frontier.push_back(e.to.index);
        }
      }
    }
  }
}

void SystemGraph::finalize() {
  ROBUST_REQUIRE(!finalized_, "SystemGraph: already finalized");
  ROBUST_REQUIRE(!sensors_.empty(), "SystemGraph: no sensors");
  ROBUST_REQUIRE(!applications_.empty(), "SystemGraph: no applications");

  for (std::size_t a = 0; a < applications_.size(); ++a) {
    ROBUST_REQUIRE(!inOfApp_[a].empty(),
                   "SystemGraph: application '" + applications_[a] +
                       "' has no input");
    if (inOfApp_[a].size() >= 2) {
      std::size_t triggers = 0;
      for (std::size_t eid : inOfApp_[a]) {
        if (edges_[eid].trigger) {
          ++triggers;
        }
      }
      ROBUST_REQUIRE(triggers == 1,
                     "SystemGraph: multiple-input application '" +
                         applications_[a] +
                         "' must have exactly one trigger input");
    }
  }
  checkAcyclic();
  computeReachability();

  // Every application must be reachable from some sensor.
  for (std::size_t a = 0; a < applications_.size(); ++a) {
    bool reached = false;
    for (std::size_t s = 0; s < sensors_.size() && !reached; ++s) {
      reached = sensorReach_[s][a];
    }
    ROBUST_REQUIRE(reached, "SystemGraph: application '" + applications_[a] +
                                "' unreachable from every sensor");
  }
  // Every application must drain into an actuator or a downstream
  // application; otherwise its trigger path would silently dead-end.
  for (std::size_t a = 0; a < applications_.size(); ++a) {
    ROBUST_REQUIRE(!outOfApp_[a].empty(),
                   "SystemGraph: application '" + applications_[a] +
                       "' has no output");
  }

  finalized_ = true;
  enumeratePaths();
}

const std::string& SystemGraph::sensorName(std::size_t i) const {
  ROBUST_REQUIRE(i < sensors_.size(), "sensorName: index out of range");
  return sensors_[i].name;
}

const std::string& SystemGraph::applicationName(std::size_t i) const {
  ROBUST_REQUIRE(i < applications_.size(),
                 "applicationName: index out of range");
  return applications_[i];
}

const std::string& SystemGraph::actuatorName(std::size_t i) const {
  ROBUST_REQUIRE(i < actuators_.size(), "actuatorName: index out of range");
  return actuators_[i];
}

double SystemGraph::sensorRate(std::size_t i) const {
  ROBUST_REQUIRE(i < sensors_.size(), "sensorRate: index out of range");
  return sensors_[i].rate;
}

const Edge& SystemGraph::edge(std::size_t id) const {
  ROBUST_REQUIRE(id < edges_.size(), "edge: id out of range");
  return edges_[id];
}

const std::vector<std::size_t>& SystemGraph::outEdgesOfApp(
    std::size_t app) const {
  ROBUST_REQUIRE(app < applications_.size(),
                 "outEdgesOfApp: index out of range");
  return outOfApp_[app];
}

const std::vector<Path>& SystemGraph::paths() const {
  requireFinalized();
  return paths_;
}

std::vector<double> SystemGraph::drivingRates() const {
  std::vector<double> rates(applications_.size(), 0.0);
  for (const Path& path : paths()) {
    const double rate = sensors_[path.drivingSensor].rate;
    for (std::size_t app : path.apps) {
      rates[app] = std::max(rates[app], rate);
    }
  }
  return rates;
}

bool SystemGraph::sensorReachesApp(std::size_t sensor, std::size_t app) const {
  requireFinalized();
  ROBUST_REQUIRE(sensor < sensors_.size() && app < applications_.size(),
                 "sensorReachesApp: index out of range");
  return sensorReach_[sensor][app];
}

void SystemGraph::writeDot(std::ostream& os) const {
  os << "digraph hiperd {\n  rankdir=LR;\n";
  for (std::size_t s = 0; s < sensors_.size(); ++s) {
    os << "  s" << s << " [shape=diamond,label=\"" << sensors_[s].name
       << "\"];\n";
  }
  for (std::size_t a = 0; a < applications_.size(); ++a) {
    os << "  a" << a << " [shape=circle,label=\"" << applications_[a]
       << "\"];\n";
  }
  for (std::size_t t = 0; t < actuators_.size(); ++t) {
    os << "  t" << t << " [shape=box,label=\"" << actuators_[t] << "\"];\n";
  }
  auto nodeId = [](const NodeRef& n) {
    const char prefix =
        n.kind == NodeKind::Sensor ? 's'
                                   : (n.kind == NodeKind::Application ? 'a'
                                                                      : 't');
    std::string id(1, prefix);
    id += std::to_string(n.index);  // not `+`: GCC 12 -Wrestrict (bug 105651)
    return id;
  };
  for (const Edge& e : edges_) {
    os << "  " << nodeId(e.from) << " -> " << nodeId(e.to);
    if (e.to.kind == NodeKind::Application &&
        inOfApp_[e.to.index].size() >= 2 && !e.trigger) {
      os << " [style=dashed]";  // update input
    }
    os << ";\n";
  }
  os << "}\n";
}

}  // namespace robust::hiperd

#include "robust/hiperd/generator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "robust/random/distributions.hpp"
#include "robust/util/error.hpp"

namespace robust::hiperd {

namespace {

/// Edge list assembled before committing to a SystemGraph, so trigger flags
/// can be decided once the in-degree structure is known.
struct DraftEdge {
  NodeRef from;
  NodeRef to;
  bool trigger = true;
};

/// Builds one layered random DAG draw. Guaranteed to pass finalize():
/// layered edges are acyclic, every application gets an input (layer-1 apps
/// from sensors, deeper apps from shallower apps) and an output (deepest
/// apps to actuators), and each multi-input application gets exactly one
/// trigger input.
SystemGraph buildDag(const ScenarioOptions& options, Pcg32& rng) {
  const std::size_t apps = options.applications;
  const std::size_t layerCount = std::max<std::size_t>(1, options.layers);

  std::vector<std::size_t> layer(apps);
  for (std::size_t i = 0; i < apps; ++i) {
    layer[i] = 1 + rng.nextBounded(static_cast<std::uint32_t>(layerCount));
  }
  layer[0] = 1;  // guarantee a non-empty first layer
  const std::size_t deepest = *std::max_element(layer.begin(), layer.end());

  auto appsInLayersBelow = [&](std::size_t l) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < apps; ++i) {
      if (layer[i] < l) {
        out.push_back(i);
      }
    }
    return out;
  };
  auto appsInLayersAbove = [&](std::size_t l) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < apps; ++i) {
      if (layer[i] > l) {
        out.push_back(i);
      }
    }
    return out;
  };

  std::vector<DraftEdge> edges;
  std::set<std::pair<std::size_t, std::size_t>> appEdgeSet;  // app->app dedup
  std::vector<std::size_t> outDegree(apps, 0);

  auto sensorRef = [](std::size_t s) { return NodeRef{NodeKind::Sensor, s}; };
  auto appRef = [](std::size_t a) {
    return NodeRef{NodeKind::Application, a};
  };
  auto actuatorRef = [](std::size_t t) {
    return NodeRef{NodeKind::Actuator, t};
  };
  const auto sensorCount =
      static_cast<std::uint32_t>(options.sensorRates.size());
  const auto actuatorCount = static_cast<std::uint32_t>(options.actuators);

  // Input spine: every application gets exactly one input here.
  for (std::size_t i = 0; i < apps; ++i) {
    if (layer[i] == 1) {
      edges.push_back(
          DraftEdge{sensorRef(rng.nextBounded(sensorCount)), appRef(i)});
    } else {
      const auto below = appsInLayersBelow(layer[i]);
      if (below.empty()) {
        edges.push_back(
            DraftEdge{sensorRef(rng.nextBounded(sensorCount)), appRef(i)});
      } else {
        const std::size_t parent = below[rng.nextBounded(
            static_cast<std::uint32_t>(below.size()))];
        edges.push_back(DraftEdge{appRef(parent), appRef(i)});
        appEdgeSet.emplace(parent, i);
        ++outDegree[parent];
      }
    }
  }
  // Output spine: every application with no output yet gets one.
  for (std::size_t i = 0; i < apps; ++i) {
    if (outDegree[i] > 0) {
      continue;
    }
    const auto above = appsInLayersAbove(layer[i]);
    if (layer[i] == deepest || above.empty()) {
      edges.push_back(
          DraftEdge{appRef(i), actuatorRef(rng.nextBounded(actuatorCount))});
    } else {
      const std::size_t child =
          above[rng.nextBounded(static_cast<std::uint32_t>(above.size()))];
      if (appEdgeSet.emplace(i, child).second) {
        edges.push_back(DraftEdge{appRef(i), appRef(child)});
      } else {
        edges.push_back(DraftEdge{
            appRef(i), actuatorRef(rng.nextBounded(actuatorCount))});
      }
    }
    ++outDegree[i];
  }
  // Extra merge/branch edges create multiple-input applications (update
  // paths) and path branching.
  for (std::size_t a = 0; a < apps; ++a) {
    for (std::size_t b = 0; b < apps; ++b) {
      if (layer[a] < layer[b] &&
          rng.nextDouble() < options.extraEdgeProbability &&
          !appEdgeSet.contains({a, b})) {
        appEdgeSet.emplace(a, b);
        edges.push_back(DraftEdge{appRef(a), appRef(b)});
        ++outDegree[a];
      }
    }
  }

  // Exactly one trigger input per multiple-input application.
  std::vector<std::vector<std::size_t>> inEdgesOf(apps);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (edges[e].to.kind == NodeKind::Application) {
      inEdgesOf[edges[e].to.index].push_back(e);
    }
  }
  for (std::size_t i = 0; i < apps; ++i) {
    if (inEdgesOf[i].size() < 2) {
      continue;
    }
    const std::size_t triggerSlot = inEdgesOf[i][rng.nextBounded(
        static_cast<std::uint32_t>(inEdgesOf[i].size()))];
    for (std::size_t e : inEdgesOf[i]) {
      edges[e].trigger = (e == triggerSlot);
    }
  }

  // Not `"s" + std::to_string(n)`: GCC 12 -Wrestrict (bug 105651).
  const auto nodeName = [](const char* prefix, std::size_t n) {
    std::string name = prefix;
    name += std::to_string(n);
    return name;
  };
  SystemGraph graph;
  for (std::size_t s = 0; s < options.sensorRates.size(); ++s) {
    graph.addSensor(nodeName("s", s + 1), options.sensorRates[s]);
  }
  for (std::size_t i = 0; i < apps; ++i) {
    graph.addApplication(nodeName("a", i + 1));
  }
  for (std::size_t t = 0; t < options.actuators; ++t) {
    graph.addActuator(nodeName("act", t + 1));
  }
  for (const DraftEdge& e : edges) {
    graph.addEdge(e.from, e.to, e.trigger);
  }
  graph.finalize();
  return graph;
}

}  // namespace

GeneratedScenario generateScenario(const ScenarioOptions& options,
                                   std::uint64_t seed) {
  ROBUST_REQUIRE(options.applications > 0 && options.machines > 0 &&
                     options.actuators > 0,
                 "generateScenario: counts must be positive");
  ROBUST_REQUIRE(options.sensorRates.size() == options.lambdaOrig.size() &&
                     !options.sensorRates.empty(),
                 "generateScenario: sensorRates/lambdaOrig mismatch");
  ROBUST_REQUIRE(options.latencySpread >= 0.0 && options.latencySpread < 1.0,
                 "generateScenario: latencySpread must lie in [0,1)");
  ROBUST_REQUIRE(options.targetThroughputUtil > 0.0 &&
                     options.targetThroughputUtil < 1.0 &&
                     options.targetLatencyUtil > 0.0 &&
                     options.targetLatencyUtil < 1.0,
                 "generateScenario: target utilizations must lie in (0,1)");

  GeneratedScenario result;

  // --- DAG: retry until the path count matches the target (Section 4.3's
  // 19 paths), keeping the closest draw as a fallback.
  std::optional<SystemGraph> best;
  std::size_t bestDiff = std::numeric_limits<std::size_t>::max();
  for (int attempt = 0; attempt < options.maxDagAttempts; ++attempt) {
    Pcg32 rng = makeStream(seed, static_cast<std::uint64_t>(attempt));
    SystemGraph graph = buildDag(options, rng);
    const std::size_t count = graph.paths().size();
    const std::size_t diff = count > options.targetPaths
                                 ? count - options.targetPaths
                                 : options.targetPaths - count;
    ++result.dagAttempts;
    if (diff < bestDiff) {
      bestDiff = diff;
      best = std::move(graph);
    }
    if (bestDiff == 0) {
      break;
    }
  }
  result.exactPathCount = bestDiff == 0;
  HiperdScenario& scenario = result.scenario;
  scenario.graph = std::move(*best);
  scenario.machines = options.machines;
  scenario.lambdaOrig = options.lambdaOrig;

  const std::size_t apps = options.applications;
  const std::size_t sensors = options.sensorRates.size();

  // --- Computation coefficients: CVB sampling with reachability zeros.
  Pcg32 rngCoeff = makeStream(seed, 1u << 20);
  std::vector<std::vector<num::Vec>> b(
      apps, std::vector<num::Vec>(options.machines, num::Vec(sensors, 0.0)));
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t z = 0; z < sensors; ++z) {
      if (!scenario.graph.sensorReachesApp(z, i)) {
        continue;  // b_ijz = 0: no route from sensor z to application a_i
      }
      const double central = rnd::gammaMeanCv(rngCoeff, options.coeffMean,
                                              options.taskHeterogeneity);
      for (std::size_t j = 0; j < options.machines; ++j) {
        b[i][j][z] = rnd::gammaMeanCv(rngCoeff, central,
                                      options.machineHeterogeneity);
      }
    }
  }

  // --- Communication coefficients (zero in the paper's experiments).
  Pcg32 rngComm = makeStream(seed, (1u << 20) + 1);
  std::vector<num::Vec> commCoeffs(scenario.graph.edgeCount(),
                                   num::Vec(sensors, 0.0));
  if (options.commCoeffMean > 0.0) {
    for (std::size_t e = 0; e < scenario.graph.edgeCount(); ++e) {
      const Edge& edge = scenario.graph.edge(e);
      if (edge.from.kind != NodeKind::Application) {
        continue;  // sensor injections carry no modeled transfer cost
      }
      for (std::size_t z = 0; z < sensors; ++z) {
        if (scenario.graph.sensorReachesApp(z, edge.from.index)) {
          commCoeffs[e][z] = rnd::gammaMeanCv(rngComm, options.commCoeffMean,
                                              options.taskHeterogeneity);
        }
      }
    }
  }

  // --- Calibration (documented substitution): scale coefficients so that
  // the round-robin reference mapping peaks at targetThroughputUtil.
  const std::vector<double> maxRate = scenario.graph.drivingRates();
  std::vector<std::size_t> refCounts(options.machines, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    ++refCounts[i % options.machines];
  }
  double peakUtil = 0.0;
  for (std::size_t i = 0; i < apps; ++i) {
    if (maxRate[i] <= 0.0) {
      continue;
    }
    const std::size_t j = i % options.machines;
    const double tc = multitaskFactor(refCounts[j]) *
                      num::dot(b[i][j], scenario.lambdaOrig);
    peakUtil = std::max(peakUtil, tc * maxRate[i]);  // tc / (1/rate)
  }
  const double coeffScale =
      peakUtil > 0.0 ? options.targetThroughputUtil / peakUtil : 1.0;
  result.coefficientScale = coeffScale;
  for (auto& perMachine : b) {
    for (auto& coeffs : perMachine) {
      for (double& c : coeffs) {
        c *= coeffScale;
      }
    }
  }
  for (auto& coeffs : commCoeffs) {
    for (double& c : coeffs) {
      c *= coeffScale;
    }
  }

  scenario.compute.resize(apps);
  for (std::size_t i = 0; i < apps; ++i) {
    scenario.compute[i].reserve(options.machines);
    for (std::size_t j = 0; j < options.machines; ++j) {
      scenario.compute[i].push_back(LoadFunction::linear(b[i][j]));
    }
  }
  scenario.comm.reserve(scenario.graph.edgeCount());
  for (std::size_t e = 0; e < scenario.graph.edgeCount(); ++e) {
    scenario.comm.push_back(LoadFunction::linear(commCoeffs[e]));
  }

  // --- Latency limits: centered on the reference mapping's nominal path
  // latencies at targetLatencyUtil, with the paper's relative spread.
  Pcg32 rngLimits = makeStream(seed, (1u << 20) + 2);
  const auto& paths = scenario.graph.paths();
  scenario.latencyLimits.resize(paths.size());
  for (std::size_t k = 0; k < paths.size(); ++k) {
    double nominal = 0.0;
    for (std::size_t app : paths[k].apps) {
      const std::size_t j = app % options.machines;
      nominal += multitaskFactor(refCounts[j]) *
                 num::dot(b[app][j], scenario.lambdaOrig);
    }
    for (std::size_t eid : paths[k].edges) {
      nominal += num::dot(commCoeffs[eid], scenario.lambdaOrig);
    }
    // Degenerate all-zero path (possible only with empty update paths):
    // give it a unit-scale limit so the constraint is trivially satisfied.
    const double center = nominal > 0.0
                              ? nominal / options.targetLatencyUtil
                              : 1.0;
    scenario.latencyLimits[k] =
        center * rngLimits.uniform(1.0 - options.latencySpread,
                                   1.0 + options.latencySpread);
  }

  validateScenario(scenario);
  return result;
}

}  // namespace robust::hiperd

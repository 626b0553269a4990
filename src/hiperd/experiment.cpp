#include "robust/hiperd/experiment.hpp"

#include <algorithm>
#include <cmath>

#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/util/error.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::hiperd {

Fig4Result runFig4(const Fig4Options& options) {
  ROBUST_REQUIRE(options.mappings > 0, "runFig4: no mappings requested");

  Fig4Result result;
  result.generated = generateScenario(options.scenario, options.seed);
  const HiperdScenario& scenario = result.generated.scenario;

  // Draw all mappings up front (cheap) so rows can be computed in parallel.
  result.mappings.reserve(options.mappings);
  for (std::size_t m = 0; m < options.mappings; ++m) {
    Pcg32 rng = makeStream(options.seed, /*id=*/(1u << 24) + m);
    result.mappings.push_back(sched::randomMapping(
        scenario.graph.applicationCount(), scenario.machines, rng));
  }

  // Slack and robustness share one compiled scenario (the DAG-derived
  // structure is mapping-independent). One contiguous block of mappings per
  // worker, each with its own reusable workspace, keeps results
  // bit-identical for every thread count.
  const CompiledScenario compiled = scenario.compile();
  result.rows.resize(options.mappings);
  forEachBlock<ScenarioWorkspace>(
      options.mappings, options.threads,
      [&](std::size_t lo, std::size_t hi, ScenarioWorkspace& workspace) {
        for (std::size_t m = lo; m < hi; ++m) {
          Fig4Row row;
          row.slack = compiled.slack(result.mappings[m], workspace);
          const auto& report =
              compiled.analyze(result.mappings[m], workspace);
          row.robustness =
              std::isfinite(report.metric) ? report.metric : -1.0;
          const auto& binding = report.radii[report.bindingFeature];
          row.bindingFeature = binding.feature;
          row.lambdaStar = binding.boundaryPoint;
          result.rows[m] = row;
        }
      });
  return result;
}

std::optional<std::pair<std::size_t, std::size_t>> findTable2Pair(
    const std::vector<Fig4Row>& rows, double slackTolerance,
    double minRobustness) {
  ROBUST_REQUIRE(rows.size() >= 2, "findTable2Pair: need at least two rows");

  // Sort indices by slack; eligible pairs are then slack-adjacent windows.
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rows[a].slack < rows[b].slack;
  });

  double bestRatio = 0.0;
  std::pair<std::size_t, std::size_t> best{0, 0};
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& a = rows[order[i]];
    if (a.robustness < minRobustness) {
      continue;
    }
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const auto& b = rows[order[j]];
      if (b.slack - a.slack > slackTolerance) {
        break;  // sorted: no further j can qualify
      }
      if (b.robustness < minRobustness) {
        continue;
      }
      const double ratio =
          std::max(a.robustness, b.robustness) /
          std::min(a.robustness, b.robustness);
      if (ratio > bestRatio) {
        bestRatio = ratio;
        if (a.robustness <= b.robustness) {
          best = {order[i], order[j]};
        } else {
          best = {order[j], order[i]};
        }
      }
    }
  }
  return bestRatio > 0.0 ? std::optional(best) : std::nullopt;
}

}  // namespace robust::hiperd

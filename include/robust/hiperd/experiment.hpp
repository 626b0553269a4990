// The Section 4.3 experiment driver: evaluate N random mappings of a
// generated HiPer-D scenario for slack and robustness (the data behind
// Fig. 4 and Table 2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "robust/hiperd/generator.hpp"
#include "robust/scheduling/mapping.hpp"

namespace robust::hiperd {

/// One evaluated mapping (one point of Fig. 4).
struct Fig4Row {
  double slack = 0.0;        ///< system-wide percentage slack (Section 4.3)
  double robustness = 0.0;   ///< rho (Eq. 11), floored, objects per data set
  std::string bindingFeature;///< constraint attaining the metric
  num::Vec lambdaStar;       ///< critical sensor loads at the boundary
};

/// Parameters; defaults are the paper's (1000 mappings on a 20-application,
/// 5-machine, 3-sensor, 19-path scenario).
struct Fig4Options {
  ScenarioOptions scenario;
  std::size_t mappings = 1000;
  std::uint64_t seed = 2003;
  std::size_t threads = 0;  ///< 0 = hardware concurrency
};

/// Experiment output: the generated scenario (for Table-2-style reporting),
/// the mappings, and one row per mapping, index-aligned.
struct Fig4Result {
  GeneratedScenario generated;
  std::vector<sched::Mapping> mappings;
  std::vector<Fig4Row> rows;
};

/// Runs the experiment; deterministic in (options, seed) regardless of the
/// thread count.
[[nodiscard]] Fig4Result runFig4(const Fig4Options& options);

/// Finds the Table 2 pair: among index pairs whose slack values differ by at
/// most `slackTolerance` and whose metrics are at least `minRobustness`
/// (excluding the near-violation corner, where tiny metrics make ratios
/// meaningless), the pair with the largest robustness ratio (max / min).
/// Returns {indexLow, indexHigh} ordered so the first has the smaller
/// robustness, or nothing when no pair is eligible (a legitimate outcome
/// for a valid Fig. 4 set); throws only when `rows` has fewer than two.
[[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>>
findTable2Pair(const std::vector<Fig4Row>& rows,
               double slackTolerance = 0.005, double minRobustness = 10.0);

}  // namespace robust::hiperd

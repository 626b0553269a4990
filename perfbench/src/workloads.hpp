// The three perfbench workloads. Each runs one untraced timed phase (end-to-
// end metrics) or, with RunConfig::trace, an untraced and a traced half
// (per-layer metrics), and checks every op against its oracle.
#pragma once

#include "harness.hpp"

namespace perfbench {

[[nodiscard]] Outcome runServe(const RunConfig& config);
[[nodiscard]] Outcome runPlan(const RunConfig& config);
[[nodiscard]] Outcome runBulk(const RunConfig& config);

}  // namespace perfbench

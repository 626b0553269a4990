// A third FePIA derivation (ours, following the paper's Section 2 recipe):
// robustness of a HiPer-D mapping against MACHINE SLOWDOWNS at fixed sensor
// loads.
//
// Step 1 — features: the same QoS set as Section 3.2 (per-application
//   computation times against throughput bounds, per-path latencies against
//   their limits). Communication times do not depend on machine speed in
//   this model and contribute constants.
// Step 2 — perturbation parameter: the slowdown vector s in R^{|M|}; s_j is
//   the factor by which machine m_j currently runs slower than assumed
//   (thermal throttling, background load, degraded hardware). Operating
//   point: s_orig = (1, ..., 1).
// Step 3 — impact: T_i^c(s) = s_{m(i)} * T_i^c(lambda_orig) — affine in s;
//   L_k(s) = sum_j s_j * (computation time of P_k's applications on m_j)
//   + (constant communication time) — affine in s.
// Step 4 — analysis: point-to-hyperplane radii; rho is the largest
//   Euclidean slowdown displacement (in any combination of machines) that
//   violates no QoS constraint.
//
// Together with the sensor-load metric of Section 3.2 this demonstrates the
// multi-parameter extension the paper defers to ref [1]: analyze each
// parameter separately; the mapping's combined robustness is the smaller
// metric (after normalizing to comparable units if desired).
#pragma once

#include "robust/hiperd/compiled_scenario.hpp"

namespace robust::hiperd {

/// The machine-slowdown FePIA derivation of `mapping` on the compiled
/// scenario, as a ProblemSpec. The perturbation parameter is continuous with
/// origin (1, ..., 1); features whose value does not depend on any machine
/// speed (e.g. pure-communication paths) are omitted.
[[nodiscard]] core::ProblemSpec slowdownSpec(
    const CompiledScenario& compiled, const sched::Mapping& mapping,
    core::AnalyzerOptions options = {});

}  // namespace robust::hiperd

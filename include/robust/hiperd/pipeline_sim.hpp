// Discrete-event pipeline simulation of HiPer-D paths: the empirical
// counterpart of the Section 3.2 constraints.
//
// Each path is simulated as a tandem queue: the driving sensor emits data
// sets at its period 1/R, every application in the chain is a FIFO server
// with deterministic service time T_i^c(lambda) (the multitasking factor
// already folds machine sharing into the service time — paths are simulated
// independently, the model's own approximation), and transfers add the
// fixed delays T_ip^n(lambda).
//
// The simulation makes the two QoS constraints *observable*:
//   * throughput (Eq. 10a): the tandem queue is stable iff every service
//     time is at most the emission period — exactly T_i^c <= 1/R(a_i). When
//     violated, per-data-set latency grows linearly at rate
//     (max service time - period).
//   * latency (Eq. 10c): in the stable regime the steady-state end-to-end
//     latency equals the analytic L_k(lambda) of Eq. 8.
#pragma once

#include <cstddef>
#include <vector>

#include "robust/hiperd/compiled_scenario.hpp"

namespace robust::hiperd {

/// Simulation outcome for one path.
struct PathSimResult {
  std::size_t path = 0;             ///< path index
  std::vector<double> latencies;    ///< per data set, in emission order
  bool stable = true;               ///< no service time exceeds the period
  double steadyLatency = 0.0;       ///< latency of the last data set
  double growthRate = 0.0;          ///< latency increase per data set
                                    ///< (0 when stable)
  bool latencyViolated = false;     ///< steady latency exceeds L_k^max
  bool throughputViolated = false;  ///< some T_i^c(lambda) > 1/R
};

/// Options for the pipeline simulation.
struct PipelineSimOptions {
  std::size_t dataSets = 200;  ///< emissions per driving sensor
};

/// Simulates every path of `mapping` at sensor loads `lambda`.
[[nodiscard]] std::vector<PathSimResult> simulatePaths(
    const CompiledScenario& compiled, const sched::Mapping& mapping,
    std::span<const double> lambda, const PipelineSimOptions& options = {});

}  // namespace robust::hiperd

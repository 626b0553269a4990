// Sensitivity analysis: which perturbation components endanger a feature.
//
// A radius report already carries the nearest boundary point pi*; the unit
// vector from pi_orig to pi* is the *critical direction* — the most
// dangerous way the parameter can move. Its components rank the parameter
// entries by blame: a designer hardening the system should attack the
// largest ones first (e.g. which sensor's load growth breaks QoS first, or
// which application's ETC error matters most).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "robust/core/feature.hpp"
#include "robust/core/report.hpp"

namespace robust::core {

/// Sensitivity of one feature's radius to the perturbation components.
struct SensitivityReport {
  std::string feature;          ///< feature name (from the radius report)
  num::Vec direction;           ///< unit critical direction (pi* - pi_orig)
  std::vector<std::size_t> ranking;  ///< component indices, most critical
                                     ///< (largest |direction|) first
};

/// Derives the sensitivity of `radius` relative to `parameter`. Requires a
/// finite radius with a boundary point; a zero radius (violated at origin)
/// yields a zero direction and an index-order ranking.
[[nodiscard]] SensitivityReport sensitivityOf(
    const RadiusReport& radius, const PerturbationParameter& parameter);

/// Convenience: sensitivity of the analysis' binding feature — the single
/// most dangerous direction for the whole mapping.
[[nodiscard]] SensitivityReport bindingSensitivity(
    const RobustnessReport& report, const PerturbationParameter& parameter);

}  // namespace robust::core

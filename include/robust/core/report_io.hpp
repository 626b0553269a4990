// Human-readable rendering of robustness reports — shared by the examples,
// the CLI, and anyone embedding the library in tooling.
#pragma once

#include <iosfwd>

#include "robust/core/feature.hpp"
#include "robust/core/report.hpp"

namespace robust::core {

/// Rendering options.
struct ReportPrintOptions {
  std::size_t maxRadii = 12;   ///< rows shown before eliding (0 = all)
  int precision = 5;           ///< significant digits
  bool showBoundaryPoints = false;  ///< include pi* per feature
};

/// Prints the full report: a per-feature radius table (elided beyond
/// maxRadii, binding feature always shown), the metric with its units, and
/// the binding feature's boundary point.
void printReport(std::ostream& os, const RobustnessReport& report,
                 const PerturbationParameter& parameter,
                 const ReportPrintOptions& options = {});

}  // namespace robust::core

#include "robust/core/report_io.hpp"

#include <cmath>
#include <ostream>

#include "robust/util/error.hpp"
#include "robust/util/table.hpp"

namespace robust::core {

std::string toString(NormKind norm) {
  switch (norm) {
    case NormKind::L1:
      return "l1";
    case NormKind::L2:
      return "l2";
    case NormKind::LInf:
      return "linf";
    case NormKind::Weighted:
      return "weighted";
  }
  return "?";
}


namespace {

std::string vecString(const num::Vec& v, int precision) {
  std::string out = "(";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += formatDouble(v[i], precision);
    if (i + 1 < v.size()) {
      out += ", ";
    }
  }
  return out + ")";
}

}  // namespace

void printReport(std::ostream& os, const RobustnessReport& report,
                 const PerturbationParameter& parameter,
                 const ReportPrintOptions& options) {
  TablePrinter table(options.showBoundaryPoints
                         ? std::vector<std::string>{"feature", "radius",
                                                    "method", "pi*"}
                         : std::vector<std::string>{"feature", "radius",
                                                    "method"});
  const std::size_t limit =
      options.maxRadii == 0 ? report.radii.size() : options.maxRadii;
  std::size_t shown = 0;
  bool elided = false;
  for (std::size_t i = 0; i < report.radii.size(); ++i) {
    const bool isBinding = i == report.bindingFeature;
    if (shown >= limit && !isBinding) {
      elided = true;
      continue;
    }
    const auto& r = report.radii[i];
    std::vector<std::string> row = {
        r.feature + (isBinding ? " *" : ""),
        std::isfinite(r.radius) ? formatDouble(r.radius, options.precision)
                                : "inf",
        r.method};
    if (options.showBoundaryPoints) {
      row.push_back(r.boundaryPoint.empty()
                        ? "-"
                        : vecString(r.boundaryPoint, options.precision));
    }
    table.addRow(std::move(row));
    ++shown;
  }
  table.print(os);
  if (elided) {
    os << "(" << report.radii.size() - shown
       << " more features elided; * marks the binding feature)\n";
  }
  os << "robustness metric rho = "
     << formatDouble(report.metric, options.precision);
  if (!parameter.units.empty()) {
    os << ' ' << parameter.units;
  }
  if (report.floored) {
    os << " (floored: discrete parameter)";
  }
  if (report.infeasibleOrigin) {
    os << " (origin violates a hard perturbation constraint)";
  }
  os << "\nbinding feature: "
     << report.radii[report.bindingFeature].feature << ", boundary point "
     << vecString(report.radii[report.bindingFeature].boundaryPoint,
                  options.precision)
     << "\n";
}

}  // namespace robust::core

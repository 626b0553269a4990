// Deriving a robustness metric for a NEW system with the four-step FePIA
// procedure — the workflow Section 2 of the paper prescribes for "an
// arbitrary system".
//
// System: a two-tier web service. Requests of two classes arrive at rates
// lambda = (l1, l2). The frontend's CPU time per request grows linearly;
// the database's time grows quadratically in total load (lock contention),
// so its boundary is a curve, not a hyperplane — exactly the convex case
// the paper's Section 3.2 closing paragraph discusses.
//
//   Step 1 (features + bounds): frontend time <= 40 ms, database time
//           <= 60 ms, end-to-end time <= 85 ms.
//   Step 2 (perturbation):      lambda, operating point (50, 30) req/s.
//   Step 3 (impact):            T_fe = 0.2 l1 + 0.3 l2
//                               T_db = 0.004 (l1 + l2)^2 + 0.1 l2
//                               T_e2e = T_fe + T_db
//   Step 4 (analysis):          robustness radii via the KKT-Newton convex
//                               solver (with its ray-search cross-check),
//                               checked against the nearest violation over
//                               sampled directions, then validated by
//                               sampling.
//
// Run: ./custom_fepia (exits 1 when a sampled check contradicts rho)
#include <iostream>
#include <span>

#include "robust/core/fepia.hpp"
#include "robust/core/validation.hpp"
#include "robust/curve/curve.hpp"
#include "robust/util/table.hpp"

int main() {
  using namespace robust;

  // Step 3: impact functions (with an analytic gradient for the database).
  auto dbTime = [](std::span<const double> l) {
    const double total = l[0] + l[1];
    return 0.004 * total * total + 0.1 * l[1];
  };
  auto dbGradient = [](std::span<const double> l) {
    const double total = l[0] + l[1];
    return num::Vec{0.008 * total, 0.008 * total + 0.1};
  };
  auto e2eTime = [dbTime](std::span<const double> l) {
    return 0.2 * l[0] + 0.3 * l[1] + dbTime(l);
  };

  const auto problem =
      core::FepiaBuilder(
          "per-tier and end-to-end response times stay within SLOs "
          "despite request-rate surges")
          .perturbation("lambda (request rates)", {50.0, 30.0},
                        /*discrete=*/false, "requests per second")
          .affineFeature("T_frontend", {0.2, 0.3}, 0.0,
                         core::ToleranceBounds::atMost(40.0))
          .feature("T_database",
                   core::ImpactFunction::callable(dbTime, dbGradient),
                   core::ToleranceBounds::atMost(60.0))
          .feature("T_end_to_end", core::ImpactFunction::callable(e2eTime),
                   core::ToleranceBounds::atMost(85.0))
          .compile();

  // Step 4: the analytic lane for the affine tier, KKT-Newton for the
  // curved ones.
  const auto report = problem.evaluate();
  const auto& binding = report.radii[report.bindingFeature];
  TablePrinter table({"feature", "radius", "method"});
  for (const auto& radius : report.radii) {
    table.addRow({radius.feature, formatDouble(radius.radius, 6),
                  radius.method});
  }
  table.print(std::cout);
  std::cout << "rho = " << formatDouble(report.metric, 6) << ", binding "
            << binding.feature << " at lambda* = ("
            << formatDouble(binding.boundaryPoint[0]) << ", "
            << formatDouble(binding.boundaryPoint[1]) << ")\n";

  // Sampled cross-check: the nearest violation along any sampled direction
  // can be no closer than rho, the distance to the nearest violation.
  curve::CurveOptions curveOptions;
  curveOptions.samples = 4096;
  const auto sampled = curve::computeCurve(problem, curveOptions);
  const double nearestSampled = sampled.radii.front();
  const bool sampledOk = nearestSampled >= report.metric;
  std::cout << "\nnearest violation over " << curveOptions.samples
            << " sampled directions: " << formatDouble(nearestSampled, 6)
            << (sampledOk ? " >= rho" : " < rho (contradicts rho)") << "\n";

  // Empirical validation of the guarantee.
  const auto validation = core::validateRadius(problem, report.metric);
  std::cout << "\nvalidation: " << validation.violationsInside << "/"
            << validation.samplesInside << " violations inside rho, "
            << validation.violationsAtBoundary << "/"
            << validation.samplesAtBoundary << " just beyond rho\n";

  // Operational what-if sweep: the derivation is compiled once; rho is
  // re-evaluated at shifted operating points from one reusable workspace
  // (bit-identical to recompiling at each origin, without the rebuild).
  std::cout << "\nrho at shifted operating points (compiled engine):\n";
  TablePrinter sweep({"lambda_orig", "rho"});
  core::EvalWorkspace workspace;
  for (const double shift : {0.0, 10.0, 20.0, 30.0}) {
    const num::Vec origin = {50.0 + shift, 30.0 + shift};
    core::AnalysisInstance query;
    query.origin = origin;
    const auto& shifted = problem.evaluate(query, workspace);
    std::string point = "(";
    point += formatDouble(origin[0]);
    point += ", ";
    point += formatDouble(origin[1]);
    point += ")";
    sweep.addRow({std::move(point), formatDouble(shifted.metric, 6)});
  }
  sweep.print(std::cout);
  return sampledOk && validation.violationsInside == 0 ? 0 : 1;
}

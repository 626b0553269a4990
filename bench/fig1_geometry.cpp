// Regenerates Figure 1 of the paper: the geometry of the robustness radius
// for a single feature and a 2-element perturbation vector. For a
// two-application machine with F(C) = C_1 + C_2 and the requirement
// F <= tau * M_orig, the boundary {f = beta_max} is a line; the harness
// prints the boundary points, the operating point C_orig, the nearest
// boundary point pi*, and the radius — the ingredients of the figure.
//
// Run: ./fig1_geometry [--c1 X] [--c2 Y] [--tau T] [--points N]
#include <algorithm>
#include <iostream>

#include "robust/core/boundary_trace.hpp"
#include "robust/core/fepia.hpp"
#include "robust/util/args.hpp"
#include "robust/util/table.hpp"

int main(int argc, char** argv) {
  using namespace robust;
  const ArgParser args(argc, argv);
  const double c1 = args.getDouble("c1", 4.0);
  const double c2 = args.getDouble("c2", 3.0);
  const double tau = args.getDouble("tau", 1.3);
  const auto points = static_cast<int>(args.getInt("points", 11));

  // The machine's finishing time F(C) = C1 + C2; M_orig = F(C_orig).
  const double mOrig = c1 + c2;
  const double betaMax = tau * mOrig;

  const auto problem =
      core::FepiaBuilder("finish time within " +
                         formatDouble(100.0 * tau) + "% of predicted")
          .perturbation("C (actual execution times)", {c1, c2}, false,
                        "seconds")
          .affineFeature("F (finish time)", {1.0, 1.0}, 0.0,
                         core::ToleranceBounds::atMost(betaMax))
          .compile();
  const auto report = problem.evaluate();
  const auto& radius = report.radii[0];

  std::cout << "# Figure 1 geometry: boundary {f_ij(pi) = beta_max} for "
               "F(C) = C1 + C2 <= "
            << formatDouble(betaMax) << "\n";
  std::cout << "C_orig = (" << formatDouble(c1) << ", " << formatDouble(c2)
            << "), predicted finish " << formatDouble(mOrig) << "\n\n";

  std::cout << "boundary points (the line C1 + C2 = " << formatDouble(betaMax)
            << "):\n";
  TablePrinter table({"pi_1", "pi_2"});
  for (int i = 0; i < points; ++i) {
    const double x =
        betaMax * static_cast<double>(i) / static_cast<double>(points - 1);
    table.addRow({formatDouble(x, 6), formatDouble(betaMax - x, 6)});
  }
  table.print(std::cout);

  // The paper's Fig. 1 draws a CURVED boundary; regenerate that flavor too
  // with a convex quadratic impact g(pi) = pi_1^2/beta + pi_2 traced around
  // the operating point.
  {
    const auto curved =
        core::FepiaBuilder("curved-boundary illustration")
            .perturbation("pi", {c1, c2})
            .feature("g",
                     core::ImpactFunction::callable(
                         [betaMax](std::span<const double> pi) {
                           return pi[0] * pi[0] / betaMax + pi[1];
                         }),
                     core::ToleranceBounds::atMost(betaMax))
            .compile();
    core::BoundaryTraceOptions traceOptions;
    traceOptions.rays = static_cast<int>(args.getInt("rays", 32));
    const auto curve = core::traceBoundary2D(curved, 0, traceOptions);
    const auto curvedReport = curved.evaluate();
    std::cout << "\ncurved boundary {pi_1^2/" << formatDouble(betaMax)
              << " + pi_2 = " << formatDouble(betaMax) << "} traced with "
              << curve.size() << " rays (radius "
              << formatDouble(curvedReport.metric, 6) << "):\n";
    TablePrinter curveTable({"angle", "pi_1", "pi_2", "distance"});
    for (std::size_t i = 0; i < curve.size(); i += 4) {
      curveTable.addRow({formatDouble(curve[i].angle, 4),
                         formatDouble(curve[i].point[0], 5),
                         formatDouble(curve[i].point[1], 5),
                         formatDouble(curve[i].distance, 5)});
    }
    curveTable.print(std::cout);
  }

  std::cout << "\npi_star (nearest boundary point) = ("
            << formatDouble(radius.boundaryPoint[0], 6) << ", "
            << formatDouble(radius.boundaryPoint[1], 6) << ")\n";
  std::cout << "robustness radius r = ||pi_star - pi_orig||_2 = "
            << formatDouble(radius.radius, 6) << "\n";
  std::cout << "\nthe beta_min boundary of the paper's example is the pair "
               "of axes (C_i = 0);\ndistance to it: "
            << formatDouble(std::min(c1, c2), 6)
            << " (not binding for tau > 1 + min(C)/M).\n";
  return 0;
}

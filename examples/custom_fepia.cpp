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
//                               solver, cross-checked by ray search and the
//                               Monte-Carlo oracle, then validated by
//                               sampling.
//
// Run: ./custom_fepia
#include <iostream>
#include <span>

#include "robust/core/fepia.hpp"
#include "robust/core/validation.hpp"
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

  auto build = [&](core::AnalyzerOptions options) {
    return core::FepiaBuilder(
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
        .options(options)
        .compile();
  };

  // Step 4 with three independent solvers.
  TablePrinter table({"solver", "rho", "binding feature", "lambda*"});
  for (const auto solver :
       {core::SolverKind::Auto, core::SolverKind::RaySearch,
        core::SolverKind::MonteCarlo}) {
    core::AnalyzerOptions options;
    options.solver = solver;
    options.solverOptions.samples = 20000;  // tighten the MC oracle
    const auto report = build(options).evaluate();
    const auto& binding = report.radii[report.bindingFeature];
    std::string lambdaStar = "(";
    lambdaStar += formatDouble(binding.boundaryPoint[0]);
    lambdaStar += ", ";
    lambdaStar += formatDouble(binding.boundaryPoint[1]);
    lambdaStar += ")";
    const char* name = solver == core::SolverKind::Auto
                           ? "auto (analytic/KKT)"
                           : (solver == core::SolverKind::RaySearch
                                  ? "ray search"
                                  : "monte carlo (upper bound)");
    table.addRow({name, formatDouble(report.metric, 6), binding.feature,
                  lambdaStar});
  }
  table.print(std::cout);

  // Norm ablation: how far can the load move under different norms?
  std::cout << "\nnorm ablation (Monte Carlo for non-Euclidean norms):\n";
  TablePrinter norms({"norm", "rho"});
  for (const auto norm :
       {core::NormKind::L1, core::NormKind::L2, core::NormKind::LInf}) {
    core::AnalyzerOptions options;
    options.norm = norm;
    options.solver = norm == core::NormKind::L2 ? core::SolverKind::Auto
                                                : core::SolverKind::MonteCarlo;
    options.solverOptions.samples = 20000;
    const auto report = build(options).evaluate();
    norms.addRow({core::toString(norm), formatDouble(report.metric, 6)});
  }
  norms.print(std::cout);

  // Empirical validation of the guarantee.
  const auto problem = build({});
  const auto report = problem.evaluate();
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
  return 0;
}

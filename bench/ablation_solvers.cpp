// Ablation: radius solver accuracy and cost. Runs the four solvers
// (analytic hyperplane, KKT-Newton, ray search, Monte-Carlo) on the same
// feature sets — the affine HiPer-D features, plus quadratic variants that
// exercise the convex-programming path of Section 3.2 — and reports each
// solver's maximum relative error against the exact answer and its cost.
//
// Run: ./ablation_solvers [--seed S] [--features N]
#include <cmath>
#include <iostream>

#include "robust/core/compiled.hpp"
#include "robust/util/args.hpp"
#include "robust/util/rng.hpp"
#include "robust/util/table.hpp"
#include "robust/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace robust;
  const ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  const auto featureCount =
      static_cast<std::size_t>(args.getInt("features", 50));

  // Random affine features over a 3-sensor load vector (the HiPer-D shape).
  Pcg32 rng(seed);
  const num::Vec origin = {962.0, 380.0, 240.0};
  std::vector<core::PerformanceFeature> affine;
  std::vector<double> exact;
  for (std::size_t f = 0; f < featureCount; ++f) {
    num::Vec w(3);
    for (auto& v : w) {
      v = rng.uniform(0.1, 5.0);
    }
    const double level = num::dot(w, origin) * rng.uniform(1.5, 4.0);
    exact.push_back((level - num::dot(w, origin)) / num::norm2(w));
    std::string name = "phi";  // not `+`: GCC 12 -Wrestrict (bug 105651)
    name += std::to_string(f);
    affine.push_back(core::PerformanceFeature{
        name, core::ImpactFunction::affine(w, 0.0),
        core::ToleranceBounds::atMost(level)});
  }
  const core::PerturbationParameter parameter{"lambda", origin, false, ""};

  std::cout << "# Ablation: solver accuracy and cost on " << featureCount
            << " affine features (exact answers known)\n\n";
  TablePrinter table(
      {"solver", "max rel error", "mean rel error", "us per radius"});
  for (const auto& [solver, name] :
       {std::pair{core::SolverKind::Analytic, "analytic"},
        std::pair{core::SolverKind::KktNewton, "kkt-newton"},
        std::pair{core::SolverKind::RaySearch, "ray-search"},
        std::pair{core::SolverKind::MonteCarlo, "monte-carlo(4096)"}}) {
    core::AnalyzerOptions options;
    options.solver = solver;
    const auto problem = core::CompiledProblem::compile(
        {.features = affine, .parameter = parameter, .options = options});
    Stopwatch watch;
    double maxErr = 0.0;
    double sumErr = 0.0;
    for (std::size_t f = 0; f < featureCount; ++f) {
      const auto radius = problem.radiusOf(f);
      const double err = std::fabs(radius.radius - exact[f]) / exact[f];
      maxErr = std::max(maxErr, err);
      sumErr += err;
    }
    // nanos(): integer clock ticks, so the analytic path's sub-microsecond
    // per-radius cost survives the division instead of rounding to 0.
    const double usPer = static_cast<double>(watch.nanos()) * 1e-3 /
                         static_cast<double>(featureCount);
    table.addRow({name, formatDouble(maxErr, 3),
                  formatDouble(sumErr / static_cast<double>(featureCount), 3),
                  formatDouble(usPer, 4)});
  }
  table.print(std::cout);

  // Quadratic (convex, non-affine) features: exact answer via the sphere
  // geometry of g(x) = ||x - c||^2.
  std::cout << "\nquadratic features g = ||lambda - c||^2 (exact answers via "
               "sphere geometry):\n";
  std::vector<core::PerformanceFeature> quad;
  std::vector<double> quadExact;
  for (std::size_t f = 0; f < 10; ++f) {
    num::Vec center(3);
    for (auto& v : center) {
      v = rng.uniform(0.0, 500.0);
    }
    const double distToCenter = num::distance2(origin, center);
    const double r = distToCenter * rng.uniform(1.5, 3.0);  // origin inside
    quadExact.push_back(r - distToCenter);
    const num::Vec c = center;
    std::string name = "q";
    name += std::to_string(f);
    quad.push_back(core::PerformanceFeature{
        name,
        core::ImpactFunction::callable(
            [c](std::span<const double> x) {
              double s = 0.0;
              for (std::size_t i = 0; i < x.size(); ++i) {
                s += (x[i] - c[i]) * (x[i] - c[i]);
              }
              return s;
            },
            [c](std::span<const double> x) {
              num::Vec g(x.size());
              for (std::size_t i = 0; i < x.size(); ++i) {
                g[i] = 2.0 * (x[i] - c[i]);
              }
              return g;
            }),
        core::ToleranceBounds::atMost(r * r)});
  }
  TablePrinter qtable(
      {"solver", "max rel error", "mean rel error", "us per radius"});
  for (const auto& [solver, name] :
       {std::pair{core::SolverKind::KktNewton, "kkt-newton"},
        std::pair{core::SolverKind::RaySearch, "ray-search"},
        std::pair{core::SolverKind::MonteCarlo, "monte-carlo(4096)"}}) {
    core::AnalyzerOptions options;
    options.solver = solver;
    const auto problem = core::CompiledProblem::compile(
        {.features = quad, .parameter = parameter, .options = options});
    Stopwatch watch;
    double maxErr = 0.0;
    double sumErr = 0.0;
    for (std::size_t f = 0; f < quad.size(); ++f) {
      const auto radius = problem.radiusOf(f);
      const double err =
          std::fabs(radius.radius - quadExact[f]) / quadExact[f];
      maxErr = std::max(maxErr, err);
      sumErr += err;
    }
    const double usPer = static_cast<double>(watch.nanos()) * 1e-3 /
                         static_cast<double>(quad.size());
    qtable.addRow({name, formatDouble(maxErr, 3),
                   formatDouble(sumErr / static_cast<double>(quad.size()), 3),
                   formatDouble(usPer, 4)});
  }
  qtable.print(std::cout);
  std::cout << "\nexpected shape: analytic is exact and cheapest; KKT-Newton "
               "is exact to\ntolerance; ray search matches on convex "
               "problems; Monte-Carlo is a biased-high\nestimator whose cost "
               "buys an assumption-free oracle.\n";
  return 0;
}

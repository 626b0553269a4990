// Ablation: radius solver accuracy and cost. Runs the analytic hyperplane
// and KKT-Newton solvers through CompiledProblem, and num::raySearch (the
// cross-check KKT-Newton runs inside num::solveNearestPoint) on its own,
// on the same feature sets — the affine HiPer-D features, plus quadratic
// variants that exercise the convex-programming path of Section 3.2 — and
// reports each solver's maximum relative error against the exact answer
// and its cost.
//
// Run: ./ablation_solvers [--seed S] [--features N]
#include <cmath>
#include <functional>
#include <iostream>

#include "robust/core/compiled.hpp"
#include "robust/util/args.hpp"
#include "robust/util/rng.hpp"
#include "robust/util/table.hpp"
#include "robust/util/timer.hpp"

namespace {

using namespace robust;

/// Times `radiusOf` over every feature and adds one row with its maximum
/// and mean relative error against `exact`.
void addSolverRow(TablePrinter& table, const char* name,
                  const std::vector<double>& exact,
                  const std::function<double(std::size_t)>& radiusOf) {
  Stopwatch watch;
  double maxErr = 0.0;
  double sumErr = 0.0;
  for (std::size_t f = 0; f < exact.size(); ++f) {
    const double err = std::fabs(radiusOf(f) - exact[f]) / exact[f];
    maxErr = std::max(maxErr, err);
    sumErr += err;
  }
  // nanos(): integer clock ticks, so the analytic path's sub-microsecond
  // per-radius cost survives the division instead of rounding to 0.
  const auto count = static_cast<double>(exact.size());
  table.addRow({name, formatDouble(maxErr, 3), formatDouble(sumErr / count, 3),
                formatDouble(static_cast<double>(watch.nanos()) * 1e-3 / count,
                             4)});
}

/// One table of solver rows over `features`: each CompiledProblem solver
/// in `solvers`, then num::raySearch against each feature's upper bound.
void printSolverTable(
    const std::vector<core::PerformanceFeature>& features,
    const core::PerturbationParameter& parameter,
    const std::vector<double>& exact,
    std::initializer_list<std::pair<core::SolverKind, const char*>> solvers) {
  TablePrinter table(
      {"solver", "max rel error", "mean rel error", "us per radius"});
  for (const auto& [solver, name] : solvers) {
    core::AnalyzerOptions options;
    options.solver = solver;
    const auto problem = core::CompiledProblem::compile(
        {.features = features, .parameter = parameter, .options = options});
    addSolverRow(table, name, exact,
                 [&](std::size_t f) { return problem.radiusOf(f).radius; });
  }
  addSolverRow(table, "ray-search", exact, [&](std::size_t f) {
    num::NearestPointProblem nearest;
    nearest.g = features[f].impact.field();
    nearest.gradient = features[f].impact.gradientField();
    nearest.level = *features[f].bounds.max;
    nearest.origin = parameter.origin;
    return num::raySearch(nearest).distance;
  });
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  const auto featureCount =
      static_cast<std::size_t>(args.getInt("features", 50));
  args.rejectUnknownOptions("ablation_solvers");

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
  printSolverTable(affine, parameter, exact,
                   {{core::SolverKind::Analytic, "analytic"},
                    {core::SolverKind::KktNewton, "kkt-newton"}});

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
  printSolverTable(quad, parameter, quadExact,
                   {{core::SolverKind::KktNewton, "kkt-newton"}});
  std::cout << "\nexpected shape: analytic is exact and cheapest; KKT-Newton "
               "is exact to\ntolerance and includes the ray-search "
               "cross-check in its cost; ray search\nalone matches on convex "
               "problems.\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("ablation_solvers");
}

// Ablation: the choice of norm in Eq. 1. The paper fixes the Euclidean
// norm; this harness recomputes the Section 3.1 metric under l1, l2 and
// l-infinity for the same mappings and reports how strongly the resulting
// rankings agree. For the affine makespan system the radii have closed
// forms under every norm (dual-norm distances), so the comparison is exact.
//
// Run: ./ablation_norms [--mappings N] [--seed S]
#include <algorithm>
#include <iostream>

#include "robust/scheduling/independent_system.hpp"
#include "robust/util/args.hpp"
#include "robust/util/stats.hpp"
#include "robust/util/table.hpp"

namespace {

/// Spearman rank correlation via Pearson on ranks.
double spearman(const std::vector<double>& xs, const std::vector<double>& ys) {
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> order(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> rank(v.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      rank[order[i]] = static_cast<double>(i);
    }
    return rank;
  };
  const auto rx = ranks(xs);
  const auto ry = ranks(ys);
  return robust::pearson(rx, ry);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace robust;
  const ArgParser args(argc, argv);
  const auto mappings = static_cast<std::size_t>(args.getInt("mappings", 400));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  const double tau = args.getDouble("tau", 1.2);
  args.rejectUnknownOptions("ablation_norms");

  sched::EtcOptions etcOptions;
  Pcg32 etcRng = makeStream(seed, 0);
  const sched::EtcMatrix etc = sched::generateEtc(etcOptions, etcRng);

  std::vector<std::vector<double>> rhos(3);
  for (std::size_t m = 0; m < mappings; ++m) {
    Pcg32 rng = makeStream(seed, 1 + m);
    const auto mapping =
        sched::randomMapping(etc.apps(), etc.machines(), rng);
    const sched::IndependentTaskSystem system(etc, mapping, tau);
    int n = 0;
    for (const auto norm :
         {core::NormKind::L1, core::NormKind::L2, core::NormKind::LInf}) {
      core::AnalyzerOptions options;
      options.norm = norm;
      rhos[static_cast<std::size_t>(n++)].push_back(
          system.compile(options).evaluate().metric);
    }
  }

  std::cout << "# Ablation: Eq. 1 norm choice, " << mappings
            << " mappings of the Section 3.1 system, tau = " << tau << "\n\n";
  const char* names[3] = {"l1", "l2", "linf"};
  TablePrinter table({"norm", "mean rho", "min rho", "max rho"});
  for (int n = 0; n < 3; ++n) {
    const Summary s = summarize(rhos[static_cast<std::size_t>(n)]);
    table.addRow({names[n], formatDouble(s.mean), formatDouble(s.min),
                  formatDouble(s.max)});
  }
  table.print(std::cout);

  std::cout << "\nranking agreement (Spearman):\n";
  TablePrinter corr({"pair", "spearman", "pearson"});
  const std::pair<int, int> pairs[3] = {{0, 1}, {1, 2}, {0, 2}};
  for (const auto& [a, b] : pairs) {
    corr.addRow({std::string(names[a]) + " vs " + names[b],
                 formatDouble(spearman(rhos[static_cast<std::size_t>(a)],
                                       rhos[static_cast<std::size_t>(b)])),
                 formatDouble(pearson(rhos[static_cast<std::size_t>(a)],
                                      rhos[static_cast<std::size_t>(b)]))});
  }
  corr.print(std::cout);

  std::cout << "\nfor the Section 3.1 system each machine's radius scales by "
               "1/sqrt(n_j) (l2),\n1 (l1) or 1/n_j (linf); rankings mostly "
               "agree but can flip when machines\nwith different application "
               "counts compete for the minimum.\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("ablation_norms");
}

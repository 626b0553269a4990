#include "robust/numeric/differentiation.hpp"

#include <algorithm>
#include <cmath>

#include "robust/util/error.hpp"

namespace robust::num {

namespace {
double stepFor(double xi, double baseStep) {
  return baseStep * std::max(1.0, std::fabs(xi));
}
}  // namespace

Vec gradientFD(const ScalarField& f, std::span<const double> x,
               double baseStep) {
  ROBUST_REQUIRE(baseStep > 0.0, "gradientFD: step must be positive");
  Vec grad(x.size());
  Vec probe(x.begin(), x.end());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double h = stepFor(x[i], baseStep);
    const double saved = probe[i];
    probe[i] = saved + h;
    const double fPlus = f(probe);
    probe[i] = saved - h;
    const double fMinus = f(probe);
    probe[i] = saved;
    grad[i] = (fPlus - fMinus) / (2.0 * h);
  }
  return grad;
}

Matrix hessianFD(const ScalarField& f, std::span<const double> x,
                 double baseStep) {
  ROBUST_REQUIRE(baseStep > 0.0, "hessianFD: step must be positive");
  const std::size_t n = x.size();
  Matrix hess(n, n);
  Vec probe(x.begin(), x.end());
  const double f0 = f(probe);

  // Diagonal: (f(x+h) - 2 f(x) + f(x-h)) / h^2.
  for (std::size_t i = 0; i < n; ++i) {
    const double h = stepFor(x[i], baseStep);
    const double saved = probe[i];
    probe[i] = saved + h;
    const double fp = f(probe);
    probe[i] = saved - h;
    const double fm = f(probe);
    probe[i] = saved;
    hess(i, i) = (fp - 2.0 * f0 + fm) / (h * h);
  }
  // Off-diagonal: four-point stencil, symmetrized.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double hi = stepFor(x[i], baseStep);
      const double hj = stepFor(x[j], baseStep);
      const double si = probe[i];
      const double sj = probe[j];
      probe[i] = si + hi;
      probe[j] = sj + hj;
      const double fpp = f(probe);
      probe[j] = sj - hj;
      const double fpm = f(probe);
      probe[i] = si - hi;
      const double fmm = f(probe);
      probe[j] = sj + hj;
      const double fmp = f(probe);
      probe[i] = si;
      probe[j] = sj;
      const double value = (fpp - fpm - fmp + fmm) / (4.0 * hi * hj);
      hess(i, j) = value;
      hess(j, i) = value;
    }
  }
  return hess;
}

}  // namespace robust::num

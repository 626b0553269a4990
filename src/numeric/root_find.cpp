#include "robust/numeric/root_find.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "robust/obs/metrics.hpp"
#include "robust/util/error.hpp"

namespace robust::num {

namespace {

/// Publishes one finished root search (call count + iterations consumed) to
/// the obs counters. The iteration totals are the paper's "boundary probe"
/// work unit: each iteration is one objective evaluation on the ray.
void noteRootSearch(obs::MetricId calls, obs::MetricId iterations,
                    int consumed) noexcept {
  obs::addCounter(calls);
  obs::addCounter(iterations, static_cast<std::uint64_t>(consumed));
}

obs::MetricId brentCallsId() {
  static const obs::MetricId id = obs::counterId("num.brent_calls");
  return id;
}
obs::MetricId brentIterationsId() {
  static const obs::MetricId id = obs::counterId("num.brent_iterations");
  return id;
}

/// Evaluates f(x) and fails fast on a non-finite result. Without this
/// guard a NaN objective silently defeats every sign test below (all NaN
/// comparisons are false), so the loops burn maxIterations and return a
/// garbage root instead of reporting the broken objective.
double checkedEval(const ScalarFn1D& f, double x, const char* who) {
  const double fx = f(x);
  if (!std::isfinite(fx)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s: objective returned non-finite %g at x = %.17g",
                  who, fx, x);
    ROBUST_REQUIRE(false, std::string(buf));
  }
  return fx;
}

}  // namespace

std::optional<std::pair<double, double>> expandBracket(const ScalarFn1D& f,
                                                       double lo, double hi,
                                                       double limit,
                                                       int maxDoublings) {
  ROBUST_REQUIRE(hi > lo, "expandBracket: hi must exceed lo");
  double flo = checkedEval(f, lo, "expandBracket");
  double fhi = checkedEval(f, hi, "expandBracket");
  for (int i = 0; i < maxDoublings; ++i) {
    if (flo == 0.0) {
      return std::make_pair(lo, lo);
    }
    if (flo * fhi <= 0.0) {
      return std::make_pair(lo, hi);
    }
    if (hi >= limit) {
      return std::nullopt;
    }
    const double width = hi - lo;
    lo = hi;
    flo = fhi;
    hi = std::min(limit, hi + 2.0 * width);
    fhi = checkedEval(f, hi, "expandBracket");
  }
  return std::nullopt;
}

RootResult brent(const ScalarFn1D& f, double lo, double hi,
                 const RootOptions& options) {
  double a = lo;
  double b = hi;
  double c = hi;
  double fa = checkedEval(f, a, "brent");
  double fb = checkedEval(f, b, "brent");
  ROBUST_REQUIRE(fa * fb <= 0.0, "brent: interval does not bracket a root");
  double fc = fb;
  double d = b - a;
  double e = d;
  RootResult result;

  for (int i = 0; i < options.maxIterations; ++i) {
    ++result.iterations;
    if ((fb > 0.0 && fc > 0.0) || (fb < 0.0 && fc < 0.0)) {
      // Root is bracketed by [a, b]; move c to the opposite side of b.
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
    if (std::fabs(fc) < std::fabs(fb)) {
      // Keep b the best (smallest-residual) iterate.
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol1 =
        2.0 * std::numeric_limits<double>::epsilon() * std::fabs(b) +
        0.5 * options.xTol;
    const double xm = 0.5 * (c - b);
    if (std::fabs(xm) <= tol1 || std::fabs(fb) <= options.fTol) {
      result.x = b;
      result.fx = fb;
      if (obs::enabled()) [[unlikely]] {
        noteRootSearch(brentCallsId(), brentIterationsId(),
                       result.iterations);
      }
      return result;
    }
    if (std::fabs(e) >= tol1 && std::fabs(fa) > std::fabs(fb)) {
      // Attempt inverse quadratic interpolation (secant when a == c).
      const double s = fb / fa;
      double p;
      double q;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) {
        q = -q;
      }
      p = std::fabs(p);
      const double min1 = 3.0 * xm * q - std::fabs(tol1 * q);
      const double min2 = std::fabs(e * q);
      if (2.0 * p < std::min(min1, min2)) {
        e = d;  // interpolation accepted
        d = p / q;
      } else {
        d = xm;  // interpolation rejected; bisect
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    if (std::fabs(d) > tol1) {
      b += d;
    } else {
      b += xm > 0.0 ? tol1 : -tol1;
    }
    fb = checkedEval(f, b, "brent");
  }
  result.x = b;
  result.fx = fb;
  if (obs::enabled()) [[unlikely]] {
    noteRootSearch(brentCallsId(), brentIterationsId(), result.iterations);
  }
  return result;
}

}  // namespace robust::num

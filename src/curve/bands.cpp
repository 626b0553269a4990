#include "robust/curve/bands.hpp"

#include <cmath>

#include "robust/obs/metrics.hpp"
#include "robust/util/error.hpp"

namespace robust::curve {

namespace {

/// Lentz's continued fraction for the incomplete beta function
/// (Numerical Recipes form). Converges in a handful of iterations for
/// x < (a + 1) / (a + b + 2), which the caller guarantees.
double betaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) {
    d = kTiny;
  }
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) {
      d = kTiny;
    }
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) {
      d = kTiny;
    }
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) {
      break;
    }
  }
  return h;
}

/// ln B(a, b), the normalizer of I_x(a, b). lgamma_r: std::lgamma's write
/// to the global signgam races across threads.
double lnBetaFunction(double a, double b) {
  int sign = 0;
  return ::lgamma_r(a, &sign) + ::lgamma_r(b, &sign) -
         ::lgamma_r(a + b, &sign);
}

/// I_x(a, b) for x strictly inside (0, 1), given lnBeta = ln B(a, b).
double incompleteBetaInterior(double a, double b, double x, double lnBeta) {
  const double front =
      std::exp(a * std::log(x) + b * std::log(1.0 - x) - lnBeta);
  // The continued fraction converges fast only on one side of the mean;
  // use the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) for the other.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

/// Smallest x with I_x(a, b) >= p, by bisection. The incomplete beta is
/// continuous and strictly increasing in x on (0, 1). The bracket keeps
/// I(lo) < p <= I(hi); once the midpoint rounds onto an endpoint, every
/// further halving would evaluate that endpoint again and reassign it to
/// itself, so the early exit returns the bits all 200 halvings would,
/// after about 50-80 evaluations. Each midpoint that is evaluated lies
/// strictly inside (0, 1). The evaluations add to `curve.band_steps`.
double inverseRegularizedBeta(double p, double a, double b) {
  if (p <= 0.0) {
    return 0.0;
  }
  if (p >= 1.0) {
    return 1.0;
  }
  const double lnBeta = lnBetaFunction(a, b);
  double lo = 0.0;
  double hi = 1.0;
  std::uint64_t steps = 0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) {
      break;
    }
    ++steps;
    if (incompleteBetaInterior(a, b, mid, lnBeta) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kSteps = obs::counterId("curve.band_steps");
    obs::addCounter(kSteps, steps);
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double dkwEpsilon(std::size_t samples, double confidence) {
  ROBUST_REQUIRE(samples > 0, "dkwEpsilon: samples must be positive");
  ROBUST_REQUIRE(confidence > 0.0 && confidence < 1.0,
                 "dkwEpsilon: confidence must lie in (0, 1)");
  const double alpha = 1.0 - confidence;
  return std::sqrt(std::log(2.0 / alpha) / (2.0 * static_cast<double>(samples)));
}

BinomialInterval clopperPearson(std::uint64_t successes, std::uint64_t trials,
                                double confidence) {
  ROBUST_REQUIRE(trials > 0, "clopperPearson: trials must be positive");
  ROBUST_REQUIRE(successes <= trials,
                 "clopperPearson: successes must not exceed trials");
  ROBUST_REQUIRE(confidence > 0.0 && confidence < 1.0,
                 "clopperPearson: confidence must lie in (0, 1)");
  const double alpha = 1.0 - confidence;
  const double k = static_cast<double>(successes);
  const double n = static_cast<double>(trials);
  BinomialInterval out;
  out.lower = successes == 0
                  ? 0.0
                  : inverseRegularizedBeta(alpha / 2.0, k, n - k + 1.0);
  out.upper = successes == trials
                  ? 1.0
                  : inverseRegularizedBeta(1.0 - alpha / 2.0, k + 1.0, n - k);
  return out;
}

}  // namespace robust::curve

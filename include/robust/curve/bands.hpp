// Confidence bands for empirical degradation curves.
//
// The curve engine estimates P(violation | r) as an empirical CDF over N
// Monte-Carlo direction samples. Two standard bands qualify that estimate:
//
//   * Dvoretzky-Kiefer-Wolfowitz: a UNIFORM band — with probability at
//     least `confidence`, the true CDF lies within +/- dkwEpsilon of the
//     empirical CDF simultaneously at every radius.
//   * Clopper-Pearson: an exact POINTWISE binomial interval for the
//     violation probability at one radius (k of N samples violating).
//
// Both are hand-rolled (regularized incomplete beta via a Lentz continued
// fraction plus bisection) so results are deterministic across platforms
// and standard libraries — the bands land in committed bench baselines,
// and tests/test_curve.cpp freezes their bits as hexfloats.
#pragma once

#include <cstddef>
#include <cstdint>

namespace robust::curve {

/// The DKW half-width: epsilon = sqrt(ln(2 / alpha) / (2 N)) with
/// alpha = 1 - confidence. Requires samples > 0 and confidence in (0, 1).
[[nodiscard]] double dkwEpsilon(std::size_t samples, double confidence);

/// A two-sided interval for a binomial proportion.
struct BinomialInterval {
  double lower = 0.0;
  double upper = 1.0;
};

/// Exact Clopper-Pearson interval for `successes` out of `trials` at the
/// given two-sided confidence level:
///   lower = BetaInv(alpha/2; k, n - k + 1)       (0 when k == 0)
///   upper = BetaInv(1 - alpha/2; k + 1, n - k)   (1 when k == n)
/// Requires trials > 0, successes <= trials, confidence in (0, 1).
[[nodiscard]] BinomialInterval clopperPearson(std::uint64_t successes,
                                              std::uint64_t trials,
                                              double confidence);

}  // namespace robust::curve

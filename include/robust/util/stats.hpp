// Descriptive statistics used by the experiment harnesses: summaries,
// Pearson correlation, least-squares lines (the Fig. 3 cluster analysis) and
// quantiles.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>

namespace robust {

/// How the sample statistics treat non-finite (NaN / ±inf) samples. NaN in
/// particular is poison for the unguarded algorithms: it breaks std::sort's
/// strict weak ordering and its cast to a bin index is undefined behavior,
/// so the guard is mandatory — the policy only chooses between rejecting
/// the sample and dropping the offending values.
enum class NonFinitePolicy {
  Throw,  ///< reject the whole sample with a diagnostic (default)
  Skip,   ///< drop non-finite samples, compute over the finite rest
};

/// Five-number-ish summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;

  /// Coefficient of variation (stddev / mean); the paper's "heterogeneity".
  /// Undefined for a zero mean — reports NaN rather than masquerading as
  /// "perfectly homogeneous" 0.
  [[nodiscard]] double heterogeneity() const noexcept {
    return mean != 0.0 ? stddev / mean
                       : std::numeric_limits<double>::quiet_NaN();
  }
};

/// Computes a Summary of `xs`. Empty input yields a zeroed summary.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Pearson correlation coefficient of paired samples (NaN if degenerate).
[[nodiscard]] double pearson(std::span<const double> xs,
                             std::span<const double> ys);

/// Least-squares line y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  ///< coefficient of determination of the fit
};

/// Fits a least-squares line through the paired samples.
[[nodiscard]] LinearFit fitLine(std::span<const double> xs,
                                std::span<const double> ys);


/// Sample quantile (linear interpolation between order statistics), q in
/// [0,1]. Non-finite samples are rejected or dropped per `policy`; a sample
/// with no finite values is rejected under either policy.
[[nodiscard]] double quantile(std::span<const double> xs, double q,
                              NonFinitePolicy policy = NonFinitePolicy::Throw);

}  // namespace robust

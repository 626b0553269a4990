#include "robust/util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "robust/util/error.hpp"

namespace robust {

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) {
    return s;
  }
  double sum = 0.0;
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) {
    const double d = x - s.mean;
    ss += d * d;
  }
  s.stddev = xs.size() > 1
                 ? std::sqrt(ss / static_cast<double>(xs.size() - 1))
                 : 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  s.median = sorted.size() % 2 == 1
                 ? sorted[mid]
                 : 0.5 * (sorted[mid - 1] + sorted[mid]);
  return s;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  ROBUST_REQUIRE(xs.size() == ys.size(),
                 "pearson: samples must have equal length");
  const std::size_t n = xs.size();
  if (n < 2) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return sxy / std::sqrt(sxx * syy);
}

LinearFit fitLine(std::span<const double> xs, std::span<const double> ys) {
  ROBUST_REQUIRE(xs.size() == ys.size(),
                 "fitLine: samples must have equal length");
  ROBUST_REQUIRE(xs.size() >= 2, "fitLine: need at least two points");
  const auto n = static_cast<double>(xs.size());
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  LinearFit fit;
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) {
    fit.slope = 0.0;
    fit.intercept = sy / n;
    fit.r2 = 0.0;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  double ssRes = 0.0;
  double ssTot = 0.0;
  const double my = sy / n;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.slope * xs[i] + fit.intercept;
    ssRes += (ys[i] - pred) * (ys[i] - pred);
    ssTot += (ys[i] - my) * (ys[i] - my);
  }
  fit.r2 = ssTot > 0.0 ? 1.0 - ssRes / ssTot : 1.0;
  return fit;
}

namespace {

/// Enforces the non-finite policy: under Throw the first offending sample
/// fails fast with its index and value; under Skip the finite samples are
/// copied out. NaN must never reach the unguarded code below — it breaks
/// std::sort's strict weak ordering, and casting it to a bin index is
/// undefined behavior.
std::vector<double> guardedCopy(std::span<const double> xs,
                                NonFinitePolicy policy, const char* who) {
  std::vector<double> finite;
  finite.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (std::isfinite(xs[i])) {
      finite.push_back(xs[i]);
      continue;
    }
    ROBUST_REQUIRE(policy == NonFinitePolicy::Skip,
                   std::string(who) + ": sample " + std::to_string(i) +
                       " is non-finite (" +
                       (std::isnan(xs[i])  ? "nan"
                        : xs[i] > 0.0      ? "inf"
                                           : "-inf") +
                       "); pass NonFinitePolicy::Skip to drop such samples");
  }
  return finite;
}

}  // namespace


double quantile(std::span<const double> xs, double q, NonFinitePolicy policy) {
  ROBUST_REQUIRE(!xs.empty(), "quantile: empty sample");
  ROBUST_REQUIRE(q >= 0.0 && q <= 1.0, "quantile: q must lie in [0,1]");
  std::vector<double> sorted = guardedCopy(xs, policy, "quantile");
  ROBUST_REQUIRE(!sorted.empty(),
                 "quantile: no finite samples remain after skipping");
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto loIdx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(loIdx);
  if (loIdx + 1 >= sorted.size()) {
    return sorted.back();
  }
  return sorted[loIdx] * (1.0 - frac) + sorted[loIdx + 1] * frac;
}

}  // namespace robust

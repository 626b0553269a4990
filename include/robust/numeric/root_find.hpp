// One-dimensional root finding: bracket expansion, bisection, and Brent's
// method. Used to locate boundary crossings g(x0 + t d) = level along rays,
// which is how the ray-search radius estimator works.
#pragma once

#include <functional>
#include <optional>

namespace robust::num {

/// A scalar function of one variable.
using ScalarFn1D = std::function<double(double)>;

/// Result of a root search.
struct RootResult {
  double x = 0.0;         ///< abscissa of the root
  double fx = 0.0;        ///< residual at the root
  int iterations = 0;     ///< iterations consumed
};

/// Options shared by the 1-D solvers.
struct RootOptions {
  double xTol = 1e-12;    ///< absolute tolerance on the abscissa
  double fTol = 1e-12;    ///< absolute tolerance on the residual
  int maxIterations = 200;
};

// All three routines fail fast (InvalidArgumentError naming the abscissa)
// when the objective returns a non-finite value: NaN defeats every sign
// test (all NaN comparisons are false), so tolerating it would silently
// burn maxIterations and return a garbage root.

/// Expands [lo, hi] geometrically until f changes sign or `limit` is hit.
/// Returns the bracketing interval, or nullopt if no sign change was found.
[[nodiscard]] std::optional<std::pair<double, double>> expandBracket(
    const ScalarFn1D& f, double lo, double hi, double limit,
    int maxDoublings = 64);

/// Bisection on a bracketing interval [lo, hi] with f(lo)*f(hi) <= 0.
/// Throws InvalidArgumentError when the interval does not bracket a root.
[[nodiscard]] RootResult bisect(const ScalarFn1D& f, double lo, double hi,
                                const RootOptions& options = {});

/// Brent's method (inverse quadratic + secant + bisection safeguards) on a
/// bracketing interval. Superlinear on smooth functions, never worse than
/// bisection. Throws InvalidArgumentError when the interval does not bracket.
[[nodiscard]] RootResult brent(const ScalarFn1D& f, double lo, double hi,
                               const RootOptions& options = {});

}  // namespace robust::num

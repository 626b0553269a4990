// Dense vector kernels used throughout the library.
//
// Perturbation parameters in the paper are modest-dimensional vectors
// (|A| <= hundreds, |sensors| ~ units), so `std::vector<double>` plus free
// functions is the right altitude — no expression templates, no BLAS.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace robust::num {

/// Vector of doubles; the representation of every perturbation parameter.
using Vec = std::vector<double>;

/// Inner product a . b (dimensions must match).
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean (l2) norm — the norm in Eq. 1 of the paper.
[[nodiscard]] double norm2(std::span<const double> a);

/// l1 norm (ablation alternative to Eq. 1's l2).
[[nodiscard]] double norm1(std::span<const double> a);

/// l-infinity norm (ablation alternative to Eq. 1's l2).
[[nodiscard]] double normInf(std::span<const double> a);

/// Euclidean distance ||a - b||_2.
[[nodiscard]] double distance2(std::span<const double> a,
                               std::span<const double> b);

/// Returns a + b.
[[nodiscard]] Vec add(std::span<const double> a, std::span<const double> b);

/// Returns a - b.
[[nodiscard]] Vec sub(std::span<const double> a, std::span<const double> b);

/// Returns s * a.
[[nodiscard]] Vec scale(std::span<const double> a, double s);

/// In-place y += s * x (classic axpy).
void axpy(double s, std::span<const double> x, std::span<double> y);

}  // namespace robust::num

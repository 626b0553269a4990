#include "robust/numeric/matrix.hpp"

#include <cmath>
#include <numeric>

#include "robust/util/error.hpp"

namespace robust::num {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {
  ROBUST_REQUIRE(rows > 0 && cols > 0, "Matrix: dimensions must be positive");
}

LuDecomposition::LuDecomposition(Matrix a)
    : lu_(std::move(a)), perm_(lu_.rows()) {
  ROBUST_REQUIRE(lu_.rows() == lu_.cols(), "LU: matrix must be square");
  const std::size_t n = lu_.rows();
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest-magnitude entry in column k.
    std::size_t pivot = k;
    double best = std::fabs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::fabs(lu_(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) {
      throw ConvergenceError("LU: matrix is numerically singular", best);
    }
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(k, c), lu_(pivot, c));
      }
      std::swap(perm_[k], perm_[pivot]);
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      lu_(r, k) /= lu_(k, k);
      const double factor = lu_(r, k);
      for (std::size_t c = k + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(k, c);
      }
    }
  }
}

Vec LuDecomposition::solve(std::span<const double> b) const {
  const std::size_t n = lu_.rows();
  ROBUST_REQUIRE(b.size() == n, "LU::solve: dimension mismatch");
  Vec x(n);
  // Forward substitution with the permutation applied (L has unit diagonal).
  for (std::size_t r = 0; r < n; ++r) {
    double s = b[perm_[r]];
    for (std::size_t c = 0; c < r; ++c) {
      s -= lu_(r, c) * x[c];
    }
    x[r] = s;
  }
  // Back substitution with U.
  for (std::size_t ri = n; ri-- > 0;) {
    double s = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) {
      s -= lu_(ri, c) * x[c];
    }
    x[ri] = s / lu_(ri, ri);
  }
  return x;
}

}  // namespace robust::num

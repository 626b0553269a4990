// Small dense matrix with hand-rolled factorizations.
//
// Used by the KKT-Newton radius solver, whose linear systems are
// (dim+1) x (dim+1) with dim = |perturbation vector| (tens, not thousands),
// so an O(n^3) partially-pivoted LU is the right tool.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "robust/numeric/vector_ops.hpp"

namespace robust::num {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  /// Creates a rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  /// Element access (bounds-checked in debug only; hot path).
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a square matrix.
/// Throws ConvergenceError when the matrix is numerically singular.
class LuDecomposition {
 public:
  /// Factorizes `a` (copied); O(n^3).
  explicit LuDecomposition(Matrix a);

  /// Solves A x = b for one right-hand side.
  [[nodiscard]] Vec solve(std::span<const double> b) const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

}  // namespace robust::num

// Unit tests for the dense linear-algebra substrate: vector kernels, norms,
// LU factorization.
#include <gtest/gtest.h>

#include <cmath>

#include "robust/numeric/matrix.hpp"
#include "robust/numeric/vector_ops.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"

namespace robust::num {
namespace {

// ---------------------------------------------------------------- vectors

TEST(VectorOps, DotAndNorms) {
  const Vec a = {3.0, 4.0};
  const Vec b = {1.0, -2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), -5.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm1(a), 7.0);
  EXPECT_DOUBLE_EQ(normInf(b), 2.0);
}

TEST(VectorOps, Norm2AvoidsOverflow) {
  const Vec huge = {1e200, 1e200};
  EXPECT_NEAR(norm2(huge) / 1e200, std::sqrt(2.0), 1e-12);
  const Vec tiny = {1e-200, 1e-200};
  EXPECT_NEAR(norm2(tiny) / 1e-200, std::sqrt(2.0), 1e-12);
}

TEST(VectorOps, AddSubScaleAxpy) {
  const Vec a = {1.0, 2.0};
  const Vec b = {3.0, 5.0};
  EXPECT_EQ(add(a, b), (Vec{4.0, 7.0}));
  EXPECT_EQ(sub(b, a), (Vec{2.0, 3.0}));
  EXPECT_EQ(scale(a, 3.0), (Vec{3.0, 6.0}));
  Vec y = {1.0, 1.0};
  axpy(2.0, a, y);
  EXPECT_EQ(y, (Vec{3.0, 5.0}));
}

TEST(VectorOps, Distance) {
  const Vec a = {0.0, 0.0};
  const Vec b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(distance2(a, b), 5.0);
}

TEST(VectorOps, DimensionMismatchThrows) {
  const Vec a = {1.0};
  const Vec b = {1.0, 2.0};
  EXPECT_THROW((void)dot(a, b), InvalidArgumentError);
  EXPECT_THROW((void)add(a, b), InvalidArgumentError);
  EXPECT_THROW((void)distance2(a, b), InvalidArgumentError);
}

// ---------------------------------------------------------------- matrix

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const LuDecomposition lu(a);
  const Vec x = lu.solve(Vec{5.0, 10.0});  // solution (1, 3)
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the initial pivot position forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  const LuDecomposition lu(a);
  const Vec x = lu.solve(Vec{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(LuDecomposition{a}, ConvergenceError);
}

TEST(Lu, RandomRoundTrip) {
  Pcg32 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.nextBounded(8);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        a(r, c) = rng.uniform(-1.0, 1.0);
      }
      a(r, r) += 2.0;  // diagonal dominance keeps it well-conditioned
    }
    Vec xTrue(n);
    for (auto& v : xTrue) {
      v = rng.uniform(-5.0, 5.0);
    }
    Vec b(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        b[r] += a(r, c) * xTrue[c];
      }
    }
    const Vec x = LuDecomposition(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], xTrue[i], 1e-9) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace robust::num

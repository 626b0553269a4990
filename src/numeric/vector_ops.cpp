#include "robust/numeric/vector_ops.hpp"

#include <cmath>

#include "robust/util/error.hpp"

namespace robust::num {

namespace {
void requireSameSize(std::span<const double> a, std::span<const double> b,
                     const char* who) {
  ROBUST_REQUIRE(a.size() == b.size(),
                 std::string(who) + ": dimension mismatch");
}
}  // namespace

double dot(std::span<const double> a, std::span<const double> b) {
  requireSameSize(a, b, "dot");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += a[i] * b[i];
  }
  return s;
}

double norm2(std::span<const double> a) {
  // Scaled accumulation avoids overflow/underflow for extreme magnitudes.
  double scale = 0.0;
  double ssq = 1.0;
  for (double x : a) {
    if (x != 0.0) {
      const double ax = std::fabs(x);
      if (scale < ax) {
        const double r = scale / ax;
        ssq = 1.0 + ssq * r * r;
        scale = ax;
      } else {
        const double r = ax / scale;
        ssq += r * r;
      }
    }
  }
  return scale * std::sqrt(ssq);
}

double norm1(std::span<const double> a) {
  double s = 0.0;
  for (double x : a) {
    s += std::fabs(x);
  }
  return s;
}

double normInf(std::span<const double> a) {
  double m = 0.0;
  for (double x : a) {
    m = std::max(m, std::fabs(x));
  }
  return m;
}

double distance2(std::span<const double> a, std::span<const double> b) {
  requireSameSize(a, b, "distance2");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

Vec add(std::span<const double> a, std::span<const double> b) {
  requireSameSize(a, b, "add");
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] + b[i];
  }
  return out;
}

Vec sub(std::span<const double> a, std::span<const double> b) {
  requireSameSize(a, b, "sub");
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = a[i] - b[i];
  }
  return out;
}

Vec scale(std::span<const double> a, double s) {
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = s * a[i];
  }
  return out;
}

void axpy(double s, std::span<const double> x, std::span<double> y) {
  ROBUST_REQUIRE(x.size() == y.size(), "axpy: dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += s * x[i];
  }
}

}  // namespace robust::num

#include "robust/random/distributions.hpp"

#include <cmath>

#include "robust/util/error.hpp"

namespace robust::rnd {

double standardNormal(Pcg32& rng) {
  const double u1 = rng.nextDoubleOpen();
  const double u2 = rng.nextDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(6.283185307179586476925286766559 * u2);
}

void standardNormalPair(Pcg32& rng, double& z0, double& z1) {
  const double u1 = rng.nextDoubleOpen();
  const double u2 = rng.nextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 6.283185307179586476925286766559 * u2;
  z0 = r * std::cos(theta);
  z1 = r * std::sin(theta);
}

double gamma(Pcg32& rng, double shape, double scale) {
  ROBUST_REQUIRE(shape > 0.0, "gamma: shape must be positive");
  ROBUST_REQUIRE(scale > 0.0, "gamma: scale must be positive");

  if (shape < 1.0) {
    // Boost: if X ~ Gamma(shape + 1) and U ~ U(0,1), then
    // X * U^(1/shape) ~ Gamma(shape).
    const double u = rng.nextDoubleOpen();
    return gamma(rng, shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }

  // Marsaglia & Tsang (2000): squeeze method, ~1.03 normals per draw.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = standardNormal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.nextDoubleOpen();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) {
      return d * v * scale;
    }
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

double gammaMeanCv(Pcg32& rng, double mean, double cv) {
  ROBUST_REQUIRE(mean > 0.0, "gammaMeanCv: mean must be positive");
  ROBUST_REQUIRE(cv >= 0.0, "gammaMeanCv: cv must be non-negative");
  if (cv == 0.0) {
    return mean;
  }
  const double shape = 1.0 / (cv * cv);
  const double scale = mean * cv * cv;
  return gamma(rng, shape, scale);
}

}  // namespace robust::rnd

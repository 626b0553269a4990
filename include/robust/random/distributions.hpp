// Hand-rolled distribution samplers on top of the PCG32 bit source.
//
// The paper's instance generators (Section 4) draw from Gamma distributions
// parameterized by a mean and a "heterogeneity" — the coefficient of
// variation (stddev / mean) — following Ali, Siegel, Maheswaran, Hensgen,
// Sedigh-Ali, "Representing task and machine heterogeneities for
// heterogeneous computing systems", Tamkang J. Sci. Eng. 3(3), 2000 (ref [3]
// of the paper). All samplers are deterministic given the generator state,
// across platforms and standard libraries.
#pragma once

#include "robust/util/rng.hpp"

namespace robust::rnd {

/// Standard normal draw via the Box-Muller transform (one value per call;
/// the discarded sibling keeps the sampler stateless).
[[nodiscard]] double standardNormal(Pcg32& rng);

/// Both Box-Muller outputs from one pair of uniforms: `z0` is exactly the
/// value standardNormal(rng) would return for the same generator state;
/// `z1` is the sibling the scalar sampler discards. Throughput lane for
/// consumers that need whole Gaussian vectors (the curve engine's
/// direction generator draws dim values with ceil(dim / 2) pairs).
void standardNormalPair(Pcg32& rng, double& z0, double& z1);

/// Gamma(shape k, scale theta) draw via Marsaglia-Tsang squeeze (k >= 1)
/// with the Johnk-style boost for k < 1. Mean = k * theta, var = k * theta^2.
[[nodiscard]] double gamma(Pcg32& rng, double shape, double scale);

/// Gamma draw parameterized by mean > 0 and coefficient of variation cv > 0:
/// shape = 1 / cv^2, scale = mean * cv^2 — the paper's "heterogeneity"
/// parameterization. cv == 0 degenerates to the constant `mean`.
[[nodiscard]] double gammaMeanCv(Pcg32& rng, double mean, double cv);

}  // namespace robust::rnd

// Finite-difference derivatives for impact functions supplied as opaque
// callables (step 3 of FePIA allows arbitrary f_ij; the KKT-Newton solver
// needs gradients and Hessians even when the caller provides none).
#pragma once

#include <functional>
#include <span>

#include "robust/numeric/matrix.hpp"
#include "robust/numeric/vector_ops.hpp"

namespace robust::num {

/// A scalar field over R^n.
using ScalarField = std::function<double(std::span<const double>)>;

/// Central-difference gradient of `f` at `x`. Step is scaled per component:
/// h_i = baseStep * max(1, |x_i|) so large-magnitude loads (lambda ~ 1000)
/// and small ones are differentiated at comparable relative accuracy.
[[nodiscard]] Vec gradientFD(const ScalarField& f, std::span<const double> x,
                             double baseStep = 1e-6);

/// Central-difference Hessian of `f` at `x` (symmetric by construction).
[[nodiscard]] Matrix hessianFD(const ScalarField& f, std::span<const double> x,
                               double baseStep = 1e-4);

}  // namespace robust::num

// Load-dependent time functions T(lambda) for the HiPer-D model.
//
// Computation and communication times are functions of the sensor-load
// vector lambda (step 3 of the FePIA derivation in Section 3.2). The
// experiments use linear functions sum_z b_z * lambda_z; the formulation
// admits any convex complexity function (x^p, e^px, x log x, ...), which the
// `general` variant carries as an opaque callable for the iterative solvers.
#pragma once

#include <string>

#include "robust/core/impact.hpp"
#include "robust/numeric/optimize.hpp"
#include "robust/numeric/vector_ops.hpp"

namespace robust::hiperd {

/// A non-negative time function of the sensor load vector.
class LoadFunction {
 public:
  /// Linear function sum_z coeffs[z] * lambda_z.
  [[nodiscard]] static LoadFunction linear(num::Vec coeffs);

  /// General (ideally convex) function with optional analytic gradient.
  [[nodiscard]] static LoadFunction general(num::ScalarField f,
                                            num::GradientField gradient = {});

  /// Value at `lambda`.
  [[nodiscard]] double evaluate(std::span<const double> lambda) const;

  [[nodiscard]] bool isLinear() const noexcept { return linear_; }

  /// True when the function is linear with all-zero coefficients (carries no
  /// constraint: its boundary is unreachable).
  [[nodiscard]] bool isZero() const;

  /// Linear coefficients; requires isLinear().
  [[nodiscard]] const num::Vec& coeffs() const;

  /// The function scaled by `factor` (the multitasking factor), packaged as
  /// a core impact function: affine when linear, callable otherwise.
  [[nodiscard]] core::ImpactFunction impact(double factor) const;

  /// Human-readable form of the inner complexity function, e.g.
  /// "3*l1 + 1*l3" (Table 2's parenthesized part). General functions render
  /// as "<general>".
  [[nodiscard]] std::string describe(int precision = 4) const;

 private:
  LoadFunction() = default;

  bool linear_ = false;
  num::Vec coeffs_;
  num::ScalarField fn_;
  num::GradientField gradient_;
};

/// The multitasking factor of Section 4.3's computation-time model: a
/// machine running n applications round-robin slows each by 1.3 n (n >= 2);
/// a dedicated machine (n <= 1) runs at full speed.
[[nodiscard]] double multitaskFactor(std::size_t appsOnMachine);

}  // namespace robust::hiperd

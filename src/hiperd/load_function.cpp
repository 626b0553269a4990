#include "robust/hiperd/load_function.hpp"

#include "robust/util/error.hpp"
#include "robust/util/table.hpp"

namespace robust::hiperd {


LoadFunction LoadFunction::linear(num::Vec coeffs) {
  ROBUST_REQUIRE(!coeffs.empty(), "LoadFunction::linear: empty coefficients");
  LoadFunction f;
  f.linear_ = true;
  f.coeffs_ = std::move(coeffs);
  return f;
}

LoadFunction LoadFunction::general(num::ScalarField fn,
                                   num::GradientField gradient) {
  ROBUST_REQUIRE(static_cast<bool>(fn), "LoadFunction::general: null f");
  LoadFunction f;
  f.fn_ = std::move(fn);
  f.gradient_ = std::move(gradient);
  return f;
}

double LoadFunction::evaluate(std::span<const double> lambda) const {
  if (linear_) {
    return num::dot(coeffs_, lambda);
  }
  return fn_(lambda);
}

bool LoadFunction::isZero() const {
  if (!linear_) {
    return false;
  }
  for (double c : coeffs_) {
    if (c != 0.0) {
      return false;
    }
  }
  return true;
}

const num::Vec& LoadFunction::coeffs() const {
  ROBUST_REQUIRE(linear_, "LoadFunction: not linear");
  return coeffs_;
}

core::ImpactFunction LoadFunction::impact(double factor) const {
  ROBUST_REQUIRE(factor > 0.0, "LoadFunction::impact: factor must be > 0");
  if (linear_) {
    return core::ImpactFunction::affine(num::scale(coeffs_, factor), 0.0);
  }
  const num::ScalarField fn = fn_;
  num::GradientField grad;
  if (gradient_) {
    const num::GradientField inner = gradient_;
    grad = [inner, factor](std::span<const double> x) {
      return num::scale(inner(x), factor);
    };
  }
  return core::ImpactFunction::callable(
      [fn, factor](std::span<const double> x) { return factor * fn(x); },
      std::move(grad));
}

std::string LoadFunction::describe(int precision) const {
  if (!linear_) {
    return "<general>";
  }
  std::string out;
  for (std::size_t z = 0; z < coeffs_.size(); ++z) {
    if (coeffs_[z] == 0.0) {
      continue;
    }
    if (!out.empty()) {
      out += " + ";
    }
    out += formatDouble(coeffs_[z], precision) + "*l" + std::to_string(z + 1);
  }
  return out.empty() ? "0" : out;
}

double multitaskFactor(std::size_t appsOnMachine) {
  return appsOnMachine >= 2 ? 1.3 * static_cast<double>(appsOnMachine) : 1.0;
}

}  // namespace robust::hiperd

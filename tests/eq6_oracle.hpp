// The paper's Eq. 6 closed form, written out independently of the library,
// as an exact oracle for affine specs. For a feature
// f_i(pi) = w_i . pi + c_i with tolerance bound beta, the robustness radius
// from the operating point pi0 is
//
//     r_i = |beta - w_i . pi0 - c_i| / ||w_i||_*
//
// where ||.||_* is the dual of the perturbation norm: L2 is self-dual, L1
// and LInf are each other's duals, and the weighted norm
// sqrt(sum v_k d_k^2) has the dual sqrt(sum w_k^2 / v_k). The dual norms
// and dot products are plain loops here, sharing no arithmetic with
// CompiledProblem.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "robust/core/feature.hpp"
#include "robust/core/report.hpp"

namespace robust::eq6 {

inline double dualNorm(std::span<const double> w, core::NormKind norm,
                       std::span<const double> normWeights) {
  double acc = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    switch (norm) {
      case core::NormKind::L1:
        acc = std::max(acc, std::fabs(w[k]));
        break;
      case core::NormKind::L2:
        acc += w[k] * w[k];
        break;
      case core::NormKind::LInf:
        acc += std::fabs(w[k]);
        break;
      case core::NormKind::Weighted:
        acc += w[k] * w[k] / normWeights[k];
        break;
    }
  }
  const bool euclidean =
      norm == core::NormKind::L2 || norm == core::NormKind::Weighted;
  return euclidean ? std::sqrt(acc) : acc;
}

/// Unfloored radius of one affine feature: 0 when `origin` already
/// violates a bound, the smaller Eq. 6 distance over the present bounds
/// otherwise.
inline double radius(const core::PerformanceFeature& f,
                     std::span<const double> origin, core::NormKind norm,
                     std::span<const double> normWeights = {}) {
  const auto& w = f.impact.weights();
  double value = f.impact.constant();
  for (std::size_t k = 0; k < w.size(); ++k) {
    value += w[k] * origin[k];
  }
  if (!f.bounds.contains(value)) {
    return 0.0;
  }
  const double dual = dualNorm(w, norm, normWeights);
  double r = std::numeric_limits<double>::infinity();
  for (const auto& beta : {f.bounds.min, f.bounds.max}) {
    if (beta) {
      r = std::min(r, std::fabs(*beta - value) / dual);
    }
  }
  return r;
}

/// The unfloored metric (Eq. 2): the minimum Eq. 6 radius over features.
inline double metric(const std::vector<core::PerformanceFeature>& features,
                     std::span<const double> origin, core::NormKind norm,
                     std::span<const double> normWeights = {}) {
  double rho = std::numeric_limits<double>::infinity();
  for (const auto& f : features) {
    rho = std::min(rho, radius(f, origin, norm, normWeights));
  }
  return rho;
}

}  // namespace robust::eq6

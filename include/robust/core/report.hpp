// Analysis configuration and result types of the FePIA analysis step
// (step 4): the norm and solver selection, one radius report per feature
// (Eq. 1), and the full robustness report (Eq. 2).
//
// These types are produced by the compiled analysis engine
// (robust/core/compiled.hpp); they carry no behaviour beyond naming.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "robust/numeric/optimize.hpp"
#include "robust/numeric/vector_ops.hpp"

namespace robust::core {

/// Which norm measures the perturbation displacement in Eq. 1. The paper
/// fixes L2 (Euclidean); L1 and LInf are provided for the norm ablation,
/// and Weighted is the scaled Euclidean norm sqrt(sum w_i d_i^2) — the
/// natural choice when the perturbation components have different scales
/// (e.g. sensor loads of 962 vs 240 objects per data set).
enum class NormKind { L1, L2, LInf, Weighted };

/// Human-readable norm name ("l1", "l2", "linf", "weighted").
[[nodiscard]] std::string toString(NormKind norm);

/// Strategy for computing a radius.
enum class SolverKind {
  Auto,       ///< analytic for affine impacts, KKT-Newton (with ray-search
              ///< cross-check) otherwise
  Analytic,   ///< point-to-hyperplane closed form; affine impacts only
  KktNewton,  ///< damped Newton on the KKT system with the ray-search
              ///< cross-check of num::solveNearestPoint (L2 only)
};

/// Options controlling the analysis.
struct AnalyzerOptions {
  NormKind norm = NormKind::L2;
  /// Per-component weights for NormKind::Weighted (must be positive and
  /// match the perturbation dimension). A common choice is
  /// w_i = 1 / pi_orig_i^2, which measures RELATIVE displacement.
  num::Vec normWeights;
  SolverKind solver = SolverKind::Auto;
  num::SolverOptions solverOptions;
};

/// Radius of one feature against the perturbation parameter: Eq. 1 plus the
/// diagnostics a practitioner wants (which bound bound it, where).
struct RadiusReport {
  std::string feature;       ///< feature name
  double radius = 0.0;       ///< r_mu(phi_i, pi_j)
  num::Vec boundaryPoint;    ///< pi_star(phi_i) of Fig. 1
  double boundaryLevel = 0.0;///< the beta value of the binding boundary
  bool boundReachable = true;///< false when no boundary crossing exists
                             ///< within the search limit (radius = +inf)
  std::string method;        ///< solver that produced the number
};

/// Full analysis: every radius plus the metric rho (Eq. 2).
struct RobustnessReport {
  std::vector<RadiusReport> radii;      ///< one per feature, input order
  double metric = 0.0;                  ///< rho_mu(Phi, pi_j)
  std::size_t bindingFeature = 0;       ///< argmin index into radii
  bool floored = false;                 ///< metric was floored (discrete pi)
  /// True when the operating point itself violates a hard feasibility
  /// constraint of the problem (a compiled LinearConstraint): the mapping
  /// is not merely fragile but inadmissible, so the metric is reported as
  /// 0 and no radius is meaningful. Always false for unconstrained
  /// problems.
  bool infeasibleOrigin = false;
};


}  // namespace robust::core

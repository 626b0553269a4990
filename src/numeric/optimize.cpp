#include "robust/numeric/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "robust/numeric/matrix.hpp"
#include "robust/numeric/root_find.hpp"
#include "robust/util/error.hpp"

namespace robust::num {

namespace {

/// Box-Muller standard normal draw (local helper; the library-grade sampler
/// lives in robust/random and is not a dependency of the numeric layer).
double normal01(Pcg32& rng) {
  const double u1 = rng.nextDoubleOpen();
  const double u2 = rng.nextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// Isotropic random unit vector in R^n.
Vec randomDirection(Pcg32& rng, std::size_t n) {
  Vec d(n);
  double norm = 0.0;
  do {
    for (auto& di : d) {
      di = normal01(rng);
    }
    norm = norm2(d);
  } while (norm < 1e-12);
  return scale(d, 1.0 / norm);
}

Vec evalGradient(const NearestPointProblem& problem,
                 std::span<const double> x) {
  return problem.gradient ? problem.gradient(x) : gradientFD(problem.g, x);
}

/// Characteristic length scale of the problem, for termination thresholds.
double problemScale(const NearestPointProblem& problem) {
  return std::max(1.0, norm2(problem.origin));
}

}  // namespace

std::optional<double> crossingAlongRay(const ScalarField& g, double level,
                                       std::span<const double> origin,
                                       std::span<const double> direction,
                                       double searchLimit) {
  ROBUST_REQUIRE(origin.size() == direction.size(),
                 "crossingAlongRay: dimension mismatch");
  const double dnorm = norm2(direction);
  ROBUST_REQUIRE(dnorm > 0.0, "crossingAlongRay: zero direction");

  Vec probe(origin.begin(), origin.end());
  const auto h = [&](double t) {
    for (std::size_t i = 0; i < probe.size(); ++i) {
      probe[i] = origin[i] + t * direction[i];
    }
    return g(probe) - level;
  };

  const double h0 = h(0.0);
  if (h0 == 0.0) {
    return 0.0;
  }
  const double initial = std::max(1.0, norm2(origin)) * 1e-3 / dnorm;
  const auto bracket = expandBracket(h, 0.0, initial, searchLimit / dnorm);
  if (!bracket) {
    return std::nullopt;
  }
  const RootResult root = brent(h, bracket->first, bracket->second);
  return root.x * dnorm;
}

NearestPointResult kktNewton(const NearestPointProblem& problem,
                             const SolverOptions& options) {
  const std::size_t n = problem.origin.size();
  ROBUST_REQUIRE(n > 0, "kktNewton: empty perturbation vector");
  ROBUST_REQUIRE(static_cast<bool>(problem.g), "kktNewton: missing g");

  const double scaleLen = problemScale(problem);
  const double gOrig = problem.g(problem.origin);

  NearestPointResult result;
  result.method = "kkt-newton";

  // Initial iterate: shoot along +/- grad g(origin) toward the level set; if
  // that ray never crosses, fall back to the linearized projection.
  Vec x(problem.origin);
  {
    Vec g0 = evalGradient(problem, problem.origin);
    const double g0norm = norm2(g0);
    if (g0norm > 0.0) {
      const double sign = problem.level > gOrig ? 1.0 : -1.0;
      const Vec dir = scale(g0, sign / g0norm);
      const auto t = crossingAlongRay(problem.g, problem.level, problem.origin,
                                      dir, options.searchLimit);
      if (t) {
        axpy(*t, dir, x);
      } else {
        // Linearized: x = origin + (level - g(origin)) * g0 / ||g0||^2.
        axpy((problem.level - gOrig) / (g0norm * g0norm), g0, x);
      }
    }
  }

  Vec grad = evalGradient(problem, x);
  double gradNorm2 = dot(grad, grad);
  double nu = gradNorm2 > 0.0
                  ? dot(grad, sub(problem.origin, x)) / gradNorm2
                  : 0.0;

  auto residual = [&](std::span<const double> xi, double nui,
                      std::span<const double> gradi) {
    Vec r(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = xi[i] - problem.origin[i] + nui * gradi[i];
    }
    r[n] = problem.g(xi) - problem.level;
    return r;
  };

  Vec res = residual(x, nu, grad);
  double resNorm = norm2(res);
  const double tol = options.tolerance * scaleLen;

  for (int iter = 0; iter < options.maxIterations; ++iter) {
    ++result.iterations;
    if (resNorm <= tol) {
      result.converged = true;
      break;
    }
    // Assemble the KKT Jacobian [[I + nu H, grad], [grad^T, 0]].
    const Matrix hess = hessianFD(problem.g, x);
    Matrix jac(n + 1, n + 1);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        jac(r, c) = nu * hess(r, c) + (r == c ? 1.0 : 0.0);
      }
      jac(r, n) = grad[r];
      jac(n, r) = grad[r];
    }
    jac(n, n) = 0.0;

    Vec rhs(n + 1);
    for (std::size_t i = 0; i <= n; ++i) {
      rhs[i] = -res[i];
    }
    Vec step;
    try {
      step = LuDecomposition(jac).solve(rhs);
    } catch (const ConvergenceError&) {
      break;  // singular KKT system; report best iterate as non-converged
    }

    // Backtracking line search on the KKT residual norm.
    double alpha = 1.0;
    bool accepted = false;
    for (int ls = 0; ls < 40; ++ls) {
      Vec xTrial(x);
      for (std::size_t i = 0; i < n; ++i) {
        xTrial[i] += alpha * step[i];
      }
      const double nuTrial = nu + alpha * step[n];
      Vec gradTrial = evalGradient(problem, xTrial);
      Vec resTrial = residual(xTrial, nuTrial, gradTrial);
      const double resTrialNorm = norm2(resTrial);
      if (resTrialNorm < (1.0 - 1e-4 * alpha) * resNorm) {
        x = std::move(xTrial);
        nu = nuTrial;
        grad = std::move(gradTrial);
        res = std::move(resTrial);
        resNorm = resTrialNorm;
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) {
      break;  // stalled
    }
  }
  if (!result.converged && resNorm <= tol) {
    result.converged = true;
  }
  result.point = std::move(x);
  result.distance = distance2(result.point, problem.origin);
  if (!result.converged) {
    throw ConvergenceError("kktNewton: failed to reach tolerance", resNorm);
  }
  return result;
}

NearestPointResult raySearch(const NearestPointProblem& problem,
                             const SolverOptions& options) {
  const std::size_t n = problem.origin.size();
  ROBUST_REQUIRE(n > 0, "raySearch: empty perturbation vector");
  const double gOrig = problem.g(problem.origin);
  const double sign = problem.level > gOrig ? 1.0 : -1.0;

  NearestPointResult best;
  best.method = "ray-search";
  best.distance = std::numeric_limits<double>::infinity();

  Pcg32 rng(options.seed, /*stream=*/17);

  auto polish = [&](Vec direction) {
    // Fixed-point alignment: at the optimum, x* - origin is parallel to
    // grad g(x*) (KKT stationarity), so re-aim along the landed gradient.
    for (int iter = 0; iter < options.maxIterations; ++iter) {
      const auto t = crossingAlongRay(problem.g, problem.level, problem.origin,
                                      direction, options.searchLimit);
      if (!t) {
        return;
      }
      Vec point(problem.origin);
      axpy(*t, direction, point);
      if (*t < best.distance) {
        best.distance = *t;
        best.point = point;
        best.converged = true;
      }
      ++best.iterations;
      Vec grad = evalGradient(problem, point);
      const double gnorm = norm2(grad);
      if (gnorm <= 0.0) {
        return;
      }
      Vec aligned = scale(grad, sign / gnorm);
      if (distance2(aligned, direction) < options.tolerance) {
        return;  // fixed point reached
      }
      direction = std::move(aligned);
    }
  };

  // Deterministic start: the gradient direction at the origin.
  {
    Vec g0 = evalGradient(problem, problem.origin);
    const double g0norm = norm2(g0);
    if (g0norm > 0.0) {
      polish(scale(g0, sign / g0norm));
    }
  }
  // Random restarts guard against non-convex valleys and zero gradients.
  for (int r = 0; r < options.restarts; ++r) {
    polish(randomDirection(rng, n));
  }

  if (!best.converged) {
    throw ConvergenceError(
        "raySearch: no ray crossed the boundary within the search limit",
        std::numeric_limits<double>::infinity());
  }
  return best;
}

NearestPointResult solveNearestPoint(const NearestPointProblem& problem,
                                     const SolverOptions& options) {
  // Newton can converge to a spurious KKT point when g is non-smooth (every
  // stationary point satisfies the system it solves), so the production
  // entry point always cross-checks with the multi-started ray search and
  // keeps the smaller distance.
  std::optional<NearestPointResult> newton;
  try {
    newton = kktNewton(problem, options);
  } catch (const ConvergenceError&) {
  }
  std::optional<NearestPointResult> ray;
  try {
    ray = raySearch(problem, options);
  } catch (const ConvergenceError&) {
  }
  if (newton && (!ray || newton->distance <= ray->distance)) {
    return *std::move(newton);
  }
  if (ray) {
    return *std::move(ray);
  }
  throw ConvergenceError(
      "solveNearestPoint: neither KKT-Newton nor ray search found the "
      "boundary",
      std::numeric_limits<double>::infinity());
}

}  // namespace robust::num

#include "robust/curve/curve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <list>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "robust/net/wire.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/random/distributions.hpp"
#include "robust/util/error.hpp"
#include "robust/util/rng.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::curve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// JSON-safe number rendering: %.17g round-trip for finite values, the
/// extreme finite double for infinities (JSON has no infinity literal),
/// 0 for NaN. Matches the run-report writer's formatting.
void appendJsonNumber(std::ostream& out, double v) {
  if (std::isnan(v)) {
    v = 0.0;
  } else if (std::isinf(v)) {
    v = v > 0.0 ? std::numeric_limits<double>::max()
                : std::numeric_limits<double>::lowest();
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

}  // namespace

/// The engine proper. A class (not free functions) because it is the named
/// friend of core::CompiledProblem: it reads the packed rows, the
/// compile-cached origin dots, and the effective dual norms directly.
class CurveEngine {
 public:
  /// One affine row of the fast-lane plan, pre-resolved against the
  /// compiled defaults. gapMax / gapMin are the slack to the upper / lower
  /// tolerance bound at the origin (+inf when the bound is absent);
  /// originRadius = min gap / effective dual norm is a provable lower
  /// bound on any crossing radius along ANY unit direction (Hoelder:
  /// |a . u| <= dual norm), which is what makes the sorted-row prune a
  /// pure skip-of-losers.
  struct Row {
    double originRadius = kInf;
    double gapMax = kInf;
    double gapMin = kInf;
  };

  struct FastPlan {
    std::size_t dim = 0;
    std::size_t rows = 0;          ///< active rows, pruning order
    std::vector<double> weights;   ///< row-major [rows x dim], sorted
    std::vector<Row> rowInfo;      ///< ascending originRadius
    bool originViolated = false;   ///< some bound already broken at r = 0
  };

  /// The closed-form lane needs every feature on an analytic affine row,
  /// one continuous subspace, and no feasibility clipping.
  static bool fastLaneEligible(const core::CompiledProblem& p) {
    if (!p.fastSolver_ || p.multi_ || !p.callables_.empty() ||
        !p.constraints_.empty()) {
      return false;
    }
    if (p.parameter_.discrete) {
      return false;
    }
    for (const auto& sub : p.subspaces_) {
      if (sub.discrete) {
        return false;
      }
    }
    return true;
  }

  static FastPlan buildFastPlan(const core::CompiledProblem& p) {
    FastPlan plan;
    plan.dim = p.dim_;
    struct Cand {
      double originRadius;
      double gapMax;
      double gapMin;
      std::size_t row;
    };
    std::vector<Cand> cands;
    cands.reserve(p.features_.size());
    for (std::size_t f = 0; f < p.features_.size(); ++f) {
      const std::size_t row = p.rowIndex_[f];
      const double value = p.dotOrigin_[row] + p.constants_[f];
      const auto& bounds = p.features_[f].bounds;
      double gapMax = kInf;
      double gapMin = kInf;
      if (bounds.max) {
        gapMax = *bounds.max - value;
      }
      if (bounds.min) {
        gapMin = value - *bounds.min;
      }
      if (gapMax < 0.0 || gapMin < 0.0) {
        plan.originViolated = true;
        return plan;
      }
      const double deff = p.effDual_[row];
      if (!(deff > 0.0)) {
        continue;  // constant feature: no direction ever moves it
      }
      cands.push_back({std::min(gapMax, gapMin) / deff, gapMax, gapMin, row});
    }
    std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
      if (a.originRadius != b.originRadius) {
        return a.originRadius < b.originRadius;
      }
      return a.row < b.row;
    });
    plan.rows = cands.size();
    plan.weights.resize(plan.rows * plan.dim);
    plan.rowInfo.resize(plan.rows);
    for (std::size_t i = 0; i < plan.rows; ++i) {
      std::copy_n(p.weights_.data() + cands[i].row * plan.dim, plan.dim,
                  plan.weights.data() + i * plan.dim);
      plan.rowInfo[i] = Row{cands[i].originRadius, cands[i].gapMax,
                            cands[i].gapMin};
    }
    return plan;
  }

  /// Sample i's unit direction: standard Gaussians from the counter-based
  /// substream (scheduling-independent by construction), normalized under
  /// the problem's displacement norm. The all-but-impossible zero draw
  /// falls back to the first axis so the kernel never divides by zero.
  static void sampleDirection(const core::CompiledProblem& p,
                              std::uint64_t seed, std::size_t sample,
                              std::span<double> u) {
    Pcg32 rng = makeStream(seed, kCurveStreamFamily,
                           static_cast<std::uint64_t>(sample));
    const std::size_t dim = u.size();
    std::size_t k = 0;
    while (k + 1 < dim) {
      rnd::standardNormalPair(rng, u[k], u[k + 1]);
      k += 2;
    }
    if (k < dim) {
      double z0 = 0.0;
      double z1 = 0.0;
      rnd::standardNormalPair(rng, z0, z1);
      u[k] = z0;
    }
    double norm = p.displacementNorm(u);
    if (!(norm > 0.0) || !std::isfinite(norm)) {
      std::fill(u.begin(), u.end(), 0.0);
      u[0] = 1.0;
      norm = p.displacementNorm(u);
    }
    const double inv = 1.0 / norm;
    for (double& v : u) {
      v *= inv;
    }
  }

  /// Closed-form critical radius along `u`: per row the feature moves as
  /// value(r) = value(0) + r * (a . u), so the upper bound breaks at
  /// gapMax / slope (slope > 0) and the lower bound at gapMin / -slope
  /// (slope < 0); the sample's critical radius is the minimum crossing.
  /// Rows stream through dotRowsBlocked in blocks of 8; with `prune`, the
  /// loop stops once even the best possible crossing of the remaining
  /// (sorted) rows provably exceeds the incumbent — the 1e-9 relative
  /// margin absorbs kernel-dot and normalization rounding, so pruning
  /// never changes the returned bits (pinned by tests).
  static double criticalRadiusFast(const FastPlan& plan,
                                   std::span<const double> u, double* slopes,
                                   bool prune, std::uint64_t& rowsVisited) {
    constexpr std::size_t kBlock = 8;
    double best = kInf;
    for (std::size_t start = 0; start < plan.rows; start += kBlock) {
      if (prune && plan.rowInfo[start].originRadius > best * (1.0 + 1e-9)) {
        break;
      }
      const std::size_t n = std::min(kBlock, plan.rows - start);
      num::simd::dotRowsBlocked(plan.weights.data() + start * plan.dim, n, u,
                                slopes);
      for (std::size_t j = 0; j < n; ++j) {
        const Row& row = plan.rowInfo[start + j];
        const double s = slopes[j];
        if (s > 0.0 && row.gapMax < kInf) {
          const double t = row.gapMax / s;
          if (t < best) {
            best = t;
          }
        } else if (s < 0.0 && row.gapMin < kInf) {
          const double t = row.gapMin / -s;
          if (t < best) {
            best = t;
          }
        }
      }
      rowsVisited += n;
    }
    return best;
  }

  /// Full-lane critical radius: expanding bracket (doubling from `scale`)
  /// until the predicate fires, then 100 bisection halvings. Discrete
  /// perturbations floor the result, mirroring the Section 3.2 metric
  /// floor (floor is monotone, so min over samples stays >= rho).
  static double criticalRadiusFull(const core::CompiledProblem& p,
                                   std::span<const double> u, num::Vec& point,
                                   double scale, bool floorRadius) {
    const std::span<const double> origin(p.parameter_.origin);
    auto violatesAt = [&](double r) {
      for (std::size_t k = 0; k < origin.size(); ++k) {
        point[k] = origin[k] + r * u[k];
      }
      return p.violates(point);
    };
    if (violatesAt(0.0)) {
      return 0.0;
    }
    double lo = 0.0;
    double hi = scale;
    bool found = false;
    for (int i = 0; i < 80; ++i) {
      if (violatesAt(hi)) {
        found = true;
        break;
      }
      lo = hi;
      hi *= 2.0;
    }
    if (!found) {
      return kInf;
    }
    for (int i = 0; i < 100; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (violatesAt(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    return floorRadius ? std::floor(hi) : hi;
  }

  /// Shard dispatcher shared by both lanes, on the shared executor with
  /// one scratch per participant. Samples land in disjoint output slots
  /// and each is a pure function of its substream, so the result is
  /// identical for every worker count and shard schedule; the lowest shard
  /// index's exception is rethrown after every shard has finished.
  template <typename MakeScratch, typename Body>
  static void forEachSample(std::size_t n, std::size_t shardSize,
                            std::size_t threads, MakeScratch makeScratch,
                            Body body) {
    shardSize = std::max<std::size_t>(1, shardSize);
    const std::size_t nShards = (n + shardSize - 1) / shardSize;
    std::vector<decltype(makeScratch())> scratch;
    while (scratch.size() < shardParticipants(nShards, threads)) {
      scratch.push_back(makeScratch());
    }
    forEachShard(nShards, threads, [&](std::size_t s, std::size_t worker) {
      const std::size_t hi = std::min(n, (s + 1) * shardSize);
      for (std::size_t i = s * shardSize; i < hi; ++i) {
        body(i, scratch[worker]);
      }
      if (obs::enabled()) [[unlikely]] {
        static const obs::MetricId kShards = obs::counterId("curve.shards");
        obs::addCounter(kShards);
      }
    });
  }

  static CurveResult run(const core::CompiledProblem& p,
                         const CurveOptions& o) {
    CurveResult r;
    r.samples = o.samples;
    r.seed = o.seed;
    r.confidence = o.confidence;
    r.dkwEpsilon = curve::dkwEpsilon(o.samples, o.confidence);
    r.rho = p.evaluateMetric().metric;
    r.fastLane = fastLaneEligible(p);
    r.radii.assign(o.samples, 0.0);

    if (r.fastLane) {
      const FastPlan plan = buildFastPlan(p);
      if (!plan.originViolated) {
        struct Scratch {
          std::vector<double> dir;
          std::vector<double> slopes;
          std::uint64_t rowsVisited = 0;
        };
        forEachSample(
            o.samples, o.shardSamples, o.threads,
            [&] { return Scratch{std::vector<double>(plan.dim),
                                 std::vector<double>(8), 0}; },
            [&](std::size_t i, Scratch& scratch) {
              sampleDirection(p, o.seed, i, scratch.dir);
              r.radii[i] = criticalRadiusFast(plan, scratch.dir,
                                              scratch.slopes.data(), o.prune,
                                              scratch.rowsVisited);
              if (obs::enabled() &&
                  (i + 1) % 1024 == 0) [[unlikely]] {
                static const obs::MetricId kRows =
                    obs::counterId("curve.rows_visited");
                obs::addCounter(kRows, scratch.rowsVisited);
                scratch.rowsVisited = 0;
              }
            });
      }
    } else {
      const bool floorRadius = [&] {
        if (p.parameter_.discrete) {
          return true;
        }
        for (const auto& sub : p.subspaces_) {
          if (sub.discrete) {
            return true;
          }
        }
        return false;
      }();
      const double scale =
          std::isfinite(r.rho) && r.rho > 0.0 ? r.rho : 1.0;
      struct Scratch {
        std::vector<double> dir;
        num::Vec point;
      };
      forEachSample(
          o.samples, o.shardSamples, o.threads,
          [&] { return Scratch{std::vector<double>(p.dim_),
                               num::Vec(p.dim_)}; },
          [&](std::size_t i, Scratch& scratch) {
            sampleDirection(p, o.seed, i, scratch.dir);
            r.radii[i] = criticalRadiusFull(p, scratch.dir, scratch.point,
                                            scale, floorRadius);
            if (obs::enabled()) [[unlikely]] {
              static const obs::MetricId kFull =
                  obs::counterId("curve.fallback_samples");
              obs::addCounter(kFull);
            }
          });
    }

    std::sort(r.radii.begin(), r.radii.end());
    r.finiteRadii = static_cast<std::size_t>(
        std::lower_bound(r.radii.begin(), r.radii.end(), kInf) -
        r.radii.begin());
    buildPoints(r, o.gridPoints);

    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kSamples = obs::counterId("curve.samples");
      obs::addCounter(kSamples, o.samples);
    }
    return r;
  }

  /// Quantile-spaced digest over the finite radii: grid index j lands on
  /// the j/(g-1) quantile sample, consecutive duplicates collapse, and
  /// every point carries its exact Clopper-Pearson band. Quantile spacing
  /// (vs a linear radius grid) covers the CDF uniformly in probability,
  /// so heavy upper tails cannot starve the informative region.
  static void buildPoints(CurveResult& r, std::size_t gridPoints) {
    r.points.clear();
    const std::size_t n = r.samples;
    if (n == 0) {
      return;
    }
    const std::size_t fin = r.finiteRadii;
    if (fin == 0) {
      const BinomialInterval band = clopperPearson(0, n, r.confidence);
      const double anchor = std::isfinite(r.rho) ? r.rho : 0.0;
      r.points.push_back(CurvePoint{anchor, 0.0, band.lower, band.upper});
      return;
    }
    const std::size_t g =
        std::max<std::size_t>(1, std::min(gridPoints, fin));
    double prevRadius = -kInf;
    for (std::size_t j = 0; j < g; ++j) {
      const std::size_t idx = g == 1 ? fin - 1 : j * (fin - 1) / (g - 1);
      const double radius = r.radii[idx];
      if (radius == prevRadius) {
        continue;
      }
      prevRadius = radius;
      const auto count = static_cast<std::uint64_t>(
          std::upper_bound(r.radii.begin(), r.radii.end(), radius) -
          r.radii.begin());
      const BinomialInterval band = clopperPearson(count, n, r.confidence);
      r.points.push_back(CurvePoint{
          radius, static_cast<double>(count) / static_cast<double>(n),
          band.lower, band.upper});
    }
  }
};

double CurveResult::probabilityAt(double r) const {
  if (samples == 0) {
    return 0.0;
  }
  const auto count = static_cast<std::size_t>(
      std::upper_bound(radii.begin(), radii.end(), r) - radii.begin());
  return static_cast<double>(count) / static_cast<double>(samples);
}

double CurveResult::radiusAtProbability(double p) const {
  if (samples == 0) {
    return kInf;
  }
  const double clamped = std::min(1.0, std::max(0.0, p));
  auto k = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(samples)));
  k = std::min(std::max<std::size_t>(1, k), samples);
  return radii[k - 1];
}

std::uint64_t problemContentKey(const core::CompiledProblem& problem) {
  // The wire format speaks the legacy single-subspace form only; the
  // compiled problem normalizes legacy specs into exactly one subspace,
  // so rebuild that form from the public accessors.
  if (problem.subspaces().size() != 1) {
    return 0;
  }
  core::ProblemSpec spec;
  spec.features = problem.features();
  spec.parameter = problem.parameter();
  spec.options = problem.options();
  spec.constraints = problem.constraints();
  try {
    const std::vector<std::uint8_t> bytes = net::encodeProblemSpec(spec);
    return net::fnv1a(bytes);
  } catch (const std::exception&) {
    return 0;  // callable features etc.: uncacheable, computed direct
  }
}

namespace {

/// A tiny LRU of full curve results keyed by content + curve-shaping
/// options. Threads / shardSamples are deliberately NOT part of the key:
/// the result is bit-identical regardless, so a hit from a differently
/// parallel run is still exact.
struct CacheKey {
  std::uint64_t content = 0;
  std::size_t samples = 0;
  std::uint64_t seed = 0;
  std::size_t gridPoints = 0;
  double confidence = 0.0;
  bool prune = false;

  bool operator==(const CacheKey&) const = default;
};

std::mutex gCacheMutex;
// front = most recently used; tiny, so linear scan beats any map.
std::list<std::pair<CacheKey, CurveResult>>& cacheList() {
  static std::list<std::pair<CacheKey, CurveResult>> cache;
  return cache;
}
constexpr std::size_t kCacheCapacity = 4;

}  // namespace

void clearCurveCache() noexcept {
  const std::lock_guard<std::mutex> lock(gCacheMutex);
  cacheList().clear();
}

CurveResult computeCurve(const core::CompiledProblem& problem,
                         const CurveOptions& options) {
  ROBUST_REQUIRE(options.samples > 0,
                 "computeCurve: samples must be positive");
  ROBUST_REQUIRE(options.gridPoints > 0,
                 "computeCurve: gridPoints must be positive");
  ROBUST_REQUIRE(options.confidence > 0.0 && options.confidence < 1.0,
                 "computeCurve: confidence must lie in (0, 1)");

  CacheKey key;
  if (options.useCache) {
    key.content = problemContentKey(problem);
    if (key.content != 0) {
      key.samples = options.samples;
      key.seed = options.seed;
      key.gridPoints = options.gridPoints;
      key.confidence = options.confidence;
      key.prune = options.prune;
      const std::lock_guard<std::mutex> lock(gCacheMutex);
      auto& cache = cacheList();
      for (auto it = cache.begin(); it != cache.end(); ++it) {
        if (it->first == key) {
          cache.splice(cache.begin(), cache, it);
          if (obs::enabled()) [[unlikely]] {
            static const obs::MetricId kHits =
                obs::counterId("curve.cache.hits");
            obs::addCounter(kHits);
          }
          CurveResult hit = cache.front().second;
          hit.cacheHit = true;
          return hit;
        }
      }
      if (obs::enabled()) [[unlikely]] {
        static const obs::MetricId kMisses =
            obs::counterId("curve.cache.misses");
        obs::addCounter(kMisses);
      }
    }
  }

  CurveResult result = CurveEngine::run(problem, options);

  if (options.useCache && key.content != 0) {
    const std::lock_guard<std::mutex> lock(gCacheMutex);
    auto& cache = cacheList();
    cache.emplace_front(key, result);
    while (cache.size() > kCacheCapacity) {
      cache.pop_back();
    }
  }
  return result;
}

std::string curveSectionJson(const CurveResult& result) {
  std::ostringstream out;
  out << "{\"schema\": \"robust.curve\", \"schema_version\": 1";
  out << ", \"samples\": " << result.samples;
  out << ", \"finite\": " << result.finiteRadii;
  out << ", \"seed\": " << result.seed;
  out << ", \"confidence\": ";
  appendJsonNumber(out, result.confidence);
  out << ", \"dkw_epsilon\": ";
  appendJsonNumber(out, result.dkwEpsilon);
  out << ", \"rho\": ";
  appendJsonNumber(out, result.rho);
  out << ", \"fast_lane\": " << (result.fastLane ? "true" : "false");
  out << ", \"cache_hit\": " << (result.cacheHit ? "true" : "false");
  out << ", \"points\": [";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const CurvePoint& p = result.points[i];
    out << (i == 0 ? "" : ", ");
    out << "{\"radius\": ";
    appendJsonNumber(out, p.radius);
    out << ", \"probability\": ";
    appendJsonNumber(out, p.probability);
    out << ", \"lower\": ";
    appendJsonNumber(out, p.lower);
    out << ", \"upper\": ";
    appendJsonNumber(out, p.upper);
    out << '}';
  }
  out << "]}";
  return out.str();
}

void appendCurveSection(obs::RunReport& report, const CurveResult& result) {
  report.sections.emplace_back("curve", curveSectionJson(result));
}

}  // namespace robust::curve

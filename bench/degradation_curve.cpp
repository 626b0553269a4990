// Degradation-curve throughput harness (DESIGN.md section 4.15) — the
// producer of the committed BENCH_pr10.json.
//
//   degradation_curve [--rows 256] [--dims 64] [--samples 1000000]
//                     [--grid 64] [--naive_samples 1024] [--reps 3]
//                     [--warmup 1] [--threads 0] [--obs_report PATH]
//
// The problem is perf_kernels' metricBenchProblem family (seed 6), so the
// spec is the same one BENCH_pr5/pr6 pinned. Before timing, two
// self-checks must pass or the harness exits 1 — a throughput number for
// a wrong answer is worse than no number:
//
//   1. bit-identity: a 4096-sample curve is recomputed across thread
//      counts {1, 8}, shard sizes {512, 8192}, and dispatch targets
//      (scalar vs AVX2 when available); every critical radius must be
//      bit-identical.
//   2. differential: at nine midpoint radii the naive per-radius grid
//      estimator (re-evaluate every affine row at origin + r*u) must
//      count exactly the violations the curve's empirical CDF predicts,
//      on the same substream-generated directions.
//
// Emitted benchmarks (the speedup ratio goes in info, not benchmarks —
// report_check's unit-aware baseline gate would read a ratio backwards):
//   BM_CurveSamplesPerSec/<rows>/<dims>    samples/s  (best of --reps,
//       --threads workers)
//   BM_CurveNsPerSample/<rows>/<dims>      ns  (serial, best of --reps)
//   BM_NaiveGridNsPerSample/<rows>/<dims>  ns  (serial; cost for the
//       naive estimator to place ONE sample on the full --grid radius
//       grid, i.e. per-evaluation cost x grid points)
//
// Exit code 0 on success, 1 on a self-check failure.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/curve/curve.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/report.hpp"
#include "robust/random/distributions.hpp"
#include "robust/util/args.hpp"
#include "robust/util/rng.hpp"

namespace {

using namespace robust;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The bench spec, plus the raw rows the naive estimator replays. Keeping
/// the packed matrix here (instead of peeking at compiled internals) keeps
/// the naive lane an honest external implementation.
struct BenchSpec {
  core::CompiledProblem problem;
  std::vector<double> rowMajor;  ///< rows x dims affine weights
  std::vector<double> bound;     ///< per row atMost tolerance
};

/// perf_kernels' metricBenchProblem, replicated draw-for-draw (seed 6).
BenchSpec benchSpec(std::size_t rows, std::size_t dims) {
  Pcg32 rng(6);
  core::ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin.resize(dims);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(0.5, 1.5);
  }
  std::vector<double> rowMajor;
  std::vector<double> bounds;
  rowMajor.reserve(rows * dims);
  bounds.reserve(rows);
  spec.features.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    num::Vec weights(dims);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < dims; ++k) {
      atOrigin += weights[k] * spec.parameter.origin[k];
    }
    const double bound = atOrigin * rng.uniform(1.05, 4.0);
    rowMajor.insert(rowMajor.end(), weights.begin(), weights.end());
    bounds.push_back(bound);
    spec.features.push_back(core::PerformanceFeature{
        "F_" + std::to_string(r),
        core::ImpactFunction::affine(std::move(weights)),
        core::ToleranceBounds::atMost(bound)});
  }
  return BenchSpec{core::CompiledProblem::compile(std::move(spec)),
                   std::move(rowMajor), std::move(bounds)};
}

bool bitEq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool radiiBitEqual(const curve::CurveResult& a, const curve::CurveResult& b) {
  if (a.radii.size() != b.radii.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.radii.size(); ++i) {
    if (!bitEq(a.radii[i], b.radii[i])) {
      return false;
    }
  }
  return true;
}

/// Sample i's unit direction, regenerated from the documented contract
/// (makeStream(seed, kCurveStreamFamily, i), Box-Muller pairs, normalized
/// under the problem's displacement norm).
num::Vec sampleDirection(const core::CompiledProblem& problem,
                         std::uint64_t seed, std::uint64_t index) {
  const std::size_t dim = problem.dimension();
  num::Vec g(dim);
  Pcg32 rng = makeStream(seed, curve::kCurveStreamFamily, index);
  std::size_t k = 0;
  while (k + 1 < dim) {
    rnd::standardNormalPair(rng, g[k], g[k + 1]);
    k += 2;
  }
  if (k < dim) {
    double z0 = 0.0;
    double z1 = 0.0;
    rnd::standardNormalPair(rng, z0, z1);
    g[k] = z0;
  }
  const double norm = problem.displacementNorm(g);
  if (norm > 0.0) {
    for (double& v : g) {
      v /= norm;
    }
  } else {
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = 1.0;
  }
  return g;
}

/// The naive estimator's inner test: does origin + r*u break any row's
/// tolerance? One full pass over the packed rows (blocked dots, no
/// pruning) — exactly what a per-radius grid must pay per (radius,
/// sample) pair.
bool naiveViolates(const BenchSpec& spec, std::span<const double> origin,
                   std::span<const double> direction, double radius,
                   num::Vec& point, num::Vec& dots) {
  const std::size_t dim = origin.size();
  for (std::size_t k = 0; k < dim; ++k) {
    point[k] = origin[k] + radius * direction[k];
  }
  num::simd::dotRowsBlocked(spec.rowMajor.data(), spec.bound.size(),
                            {point.data(), point.size()}, dots.data());
  for (std::size_t r = 0; r < spec.bound.size(); ++r) {
    if (dots[r] > spec.bound[r]) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  const auto rows = static_cast<std::size_t>(args.getInt("rows", 256));
  const auto dims = static_cast<std::size_t>(args.getInt("dims", 64));
  const auto samples =
      static_cast<std::size_t>(args.getInt("samples", 1000000));
  const auto grid = static_cast<std::size_t>(args.getInt("grid", 64));
  const auto naiveSamples =
      static_cast<std::size_t>(args.getInt("naive_samples", 1024));
  const int reps = static_cast<int>(args.getInt("reps", 3));
  const int warmup = static_cast<int>(args.getInt("warmup", 1));
  const auto threads = static_cast<std::size_t>(args.getInt("threads", 0));
  const std::string reportPath = args.getString("obs_report", "");
  args.rejectUnknownOptions("degradation_curve");

  try {
    const BenchSpec spec = benchSpec(rows, dims);
    const core::CompiledProblem& problem = spec.problem;
    std::cout << "problem " << rows << " x " << dims << ", samples "
              << samples << ", grid " << grid << ", simd "
              << num::simd::toString(num::simd::activeTarget()) << '\n';

    // ---- self-check 1: bit-identity across threads/shards/targets ------
    curve::CurveOptions pinOptions;
    pinOptions.samples = 4096;
    pinOptions.seed = 77;
    pinOptions.threads = 1;
    pinOptions.shardSamples = 512;
    const curve::CurveResult pinned = curve::computeCurve(problem, pinOptions);
    for (const std::size_t t : {std::size_t{8}}) {
      for (const std::size_t shard : {std::size_t{512}, std::size_t{8192}}) {
        curve::CurveOptions o = pinOptions;
        o.threads = t;
        o.shardSamples = shard;
        if (!radiiBitEqual(pinned, curve::computeCurve(problem, o))) {
          std::cerr << "FAIL: curve bits differ at threads=" << t
                    << " shard=" << shard << '\n';
          return 1;
        }
      }
    }
    const num::simd::Target savedTarget = num::simd::activeTarget();
    bool simdPinned = false;
    if (num::simd::avx2Available()) {
      num::simd::setTarget(num::simd::Target::Scalar);
      const curve::CurveResult scalar =
          curve::computeCurve(problem, pinOptions);
      num::simd::setTarget(num::simd::Target::Avx2);
      const curve::CurveResult avx2 = curve::computeCurve(problem, pinOptions);
      num::simd::setTarget(savedTarget);
      if (!radiiBitEqual(scalar, avx2)) {
        std::cerr << "FAIL: curve bits differ between scalar and avx2\n";
        return 1;
      }
      simdPinned = true;
    }
    std::cout << "bit-identity: threads {1,8} x shards {512,8192}"
              << (simdPinned ? " x {scalar,avx2}" : "")
              << " all bit-identical\n";

    // ---- self-check 2: naive grid counts match the empirical CDF -------
    curve::CurveOptions diffOptions;
    diffOptions.samples = naiveSamples;
    diffOptions.seed = 1;
    diffOptions.threads = threads;
    const curve::CurveResult small = curve::computeCurve(problem, diffOptions);
    std::vector<num::Vec> directions(naiveSamples);
    for (std::size_t i = 0; i < naiveSamples; ++i) {
      directions[i] = sampleDirection(problem, diffOptions.seed, i);
    }
    num::Vec point(dims);
    num::Vec dots(rows);
    const num::Vec origin(problem.parameter().origin);
    for (int decile = 1; decile <= 9; ++decile) {
      const std::size_t idx = static_cast<std::size_t>(decile) *
                              naiveSamples / 10;
      // Probe the midpoint between adjacent DISTINCT radii so closed-form
      // and re-evaluated boundary roundings cannot disagree.
      const double lo = small.radii[idx];
      const auto next = std::upper_bound(small.radii.begin(),
                                         small.radii.end(), lo);
      if (next == small.radii.end() || !std::isfinite(*next)) {
        continue;
      }
      const double r = lo + 0.5 * (*next - lo);
      std::size_t naiveCount = 0;
      for (std::size_t i = 0; i < naiveSamples; ++i) {
        naiveCount += naiveViolates(spec, {origin.data(), origin.size()},
                                    {directions[i].data(), dims}, r, point,
                                    dots) ? 1u : 0u;
      }
      const double expect = small.probabilityAt(r) *
                            static_cast<double>(naiveSamples);
      if (static_cast<double>(naiveCount) != expect) {
        std::cerr << "FAIL: naive grid counts " << naiveCount << " at r="
                  << r << ", curve CDF predicts " << expect << '\n';
        return 1;
      }
    }
    std::cout << "differential: naive grid counts match the empirical CDF "
                 "at 9 midpoint radii (" << naiveSamples << " samples)\n";

    // ---- timed: full curve, pooled then serial -------------------------
    curve::CurveOptions curveOptions;
    curveOptions.samples = samples;
    curveOptions.seed = 1;
    curveOptions.gridPoints = grid;
    curveOptions.threads = threads;
    curve::CurveResult result;
    double pooledBest = std::numeric_limits<double>::infinity();
    for (int rep = -warmup; rep < reps; ++rep) {
      const auto start = Clock::now();
      result = curve::computeCurve(problem, curveOptions);
      const double elapsed = secondsSince(start);
      if (rep >= 0 && elapsed < pooledBest) {
        pooledBest = elapsed;
      }
    }
    const double samplesPerSec = static_cast<double>(samples) / pooledBest;

    curve::CurveOptions serialOptions = curveOptions;
    serialOptions.threads = 1;
    double serialBest = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      const curve::CurveResult serial =
          curve::computeCurve(problem, serialOptions);
      const double elapsed = secondsSince(start);
      if (elapsed < serialBest) {
        serialBest = elapsed;
      }
      if (!radiiBitEqual(result, serial)) {
        std::cerr << "FAIL: serial full-size curve diverges from pooled\n";
        return 1;
      }
    }
    const double curveNsPerSample =
        serialBest * 1e9 / static_cast<double>(samples);

    // ---- timed: naive per-radius grid (serial) -------------------------
    // The naive estimator pays one full row pass per (radius, sample); its
    // per-sample cost for the whole curve is that times the grid size.
    // Measured on naive_samples directions over a real radius grid spanning
    // the curve's support, then reported per sample-on-the-grid.
    std::vector<double> gridRadii(grid);
    const double rLo = result.rho;
    const double rHi = std::isfinite(result.radii[samples / 2])
                           ? result.radii[samples / 2] * 2.0
                           : rLo * 4.0;
    for (std::size_t g = 0; g < grid; ++g) {
      gridRadii[g] = rLo + (rHi - rLo) * static_cast<double>(g + 1) /
                              static_cast<double>(grid);
    }
    double naiveSink = 0.0;
    const auto naiveStart = Clock::now();
    for (const double r : gridRadii) {
      for (std::size_t i = 0; i < naiveSamples; ++i) {
        naiveSink += naiveViolates(spec, {origin.data(), origin.size()},
                                   {directions[i].data(), dims}, r, point,
                                   dots) ? 1.0 : 0.0;
      }
    }
    const double naiveSeconds = secondsSince(naiveStart);
    const double naiveNsPerEval =
        naiveSeconds * 1e9 /
        static_cast<double>(grid * naiveSamples);
    const double naiveNsPerSample =
        naiveNsPerEval * static_cast<double>(grid);
    const double speedup = naiveNsPerSample / curveNsPerSample;

    std::cout << "BM_CurveSamplesPerSec/" << rows << "/" << dims << "  "
              << samplesPerSec << " samples/s  (best of " << reps
              << ", threads " << threads << ")\n";
    std::cout << "BM_CurveNsPerSample/" << rows << "/" << dims << "  "
              << curveNsPerSample << " ns  (serial)\n";
    std::cout << "BM_NaiveGridNsPerSample/" << rows << "/" << dims << "  "
              << naiveNsPerSample << " ns  (serial, " << grid
              << "-point grid, sink " << naiveSink << ")\n";
    std::cout << "speedup vs naive grid: " << speedup << "x  (rho "
              << result.rho << ", finite "
              << static_cast<double>(result.finiteRadii) /
                     static_cast<double>(samples)
              << ")\n";

    if (!reportPath.empty()) {
      // Reset the metrics window, then one final compute so the
      // embedded curve.samples counter equals --samples exactly
      // (report_check cross-checks the section against it).
      obs::resetMetrics();
      result = curve::computeCurve(problem, curveOptions);
      obs::RunReport report;
      report.tool = "degradation_curve";
      report.info = {
          {"rows", std::to_string(rows)},
          {"dims", std::to_string(dims)},
          {"samples", std::to_string(samples)},
          {"grid", std::to_string(grid)},
          {"naive_samples", std::to_string(naiveSamples)},
          {"threads", std::to_string(threads)},
          {"simd", std::string(
                       num::simd::toString(num::simd::activeTarget()))},
          {"rho", std::to_string(result.rho)},
          {"finite_fraction",
           std::to_string(static_cast<double>(result.finiteRadii) /
                          static_cast<double>(samples))},
          {"speedup_vs_naive_grid_x", std::to_string(speedup)},
          {"issue_target",
           ">=10x vs the naive per-radius grid at 256x64, N=1e6; both "
           "sides serial, naive cost extrapolated from naive_samples "
           "directions over the full grid"},
      };
      const std::string dim = "/" + std::to_string(rows) + "/" +
                              std::to_string(dims);
      report.benchmarks = {
          {"BM_CurveSamplesPerSec" + dim, samplesPerSec, "samples/s"},
          {"BM_CurveNsPerSample" + dim, curveNsPerSample, "ns"},
          {"BM_NaiveGridNsPerSample" + dim, naiveNsPerSample, "ns"},
      };
      curve::appendCurveSection(report, result);
      obs::writeRunReport(reportPath, report);
      std::cout << "report -> " << reportPath << '\n';
    }
  } catch (const std::exception& err) {
    std::cerr << "degradation_curve: " << err.what() << '\n';
    return 1;
  }
  return 0;
} catch (...) {
  return robust::harnessFailure("degradation_curve");
}

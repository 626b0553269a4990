// Online drift with deterministic re-allocation: the curve::DriftTracker
// watching a live schedule (DESIGN.md section 4.15).
//
// A min-min mapping is compiled once; its robustness radius rho0 anchors a
// drift threshold at --threshold_frac * rho0. Actual execution times then
// drift as a seeded upward-biased multiplicative random walk — one
// component update at a time, streamed through DriftTracker::applyUpdate
// (O(machines) each, never a full re-analysis). The moment rho crosses
// below the threshold, the example re-triggers localSearch on the DRIFTED
// ETC (each application's row scaled by its observed slowdown), re-compiles
// the chosen mapping, re-anchors the tracker, and keeps streaming.
//
// Everything is seeded, so the crossing updates, the re-allocations, and
// the final summary are deterministic for a fixed --seed. The example
// exits 1 if no crossing fires, if a re-allocation fails to lift rho back
// over its threshold, or if the tracker's Lipschitz bracket
// rhoLowerBound() <= rho() <= rhoUpperBound() is ever violated.
//
// Run: ./drift_reallocation [--seed 7] [--apps 24] [--machines 6]
//                           [--tau 1.2] [--updates 100000]
//                           [--threshold_frac 0.5]
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/curve/curve.hpp"
#include "robust/curve/drift.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/util/args.hpp"
#include "robust/util/rng.hpp"

namespace {

using namespace robust;

/// Substream family for the drift walk (disjoint from curve sampling).
constexpr std::uint64_t kDriftWalkFamily = 0x64726674;  // "drft"

struct Lane {
  sched::EtcMatrix etc;
  sched::Mapping mapping;
  std::unique_ptr<core::CompiledProblem> compiled;
  std::unique_ptr<curve::DriftTracker> tracker;
  std::vector<double> estimated;   ///< anchor C_orig per app
  std::vector<double> anchorSlow;  ///< per-app slowdown folded into `etc`
};

/// Compiles `mapping` over `etc` and anchors a fresh tracker at
/// threshold_frac * its rho.
Lane makeLane(sched::EtcMatrix etc, sched::Mapping mapping, double tau,
              double thresholdFrac, std::vector<double> anchorSlow) {
  sched::IndependentTaskSystem system(etc, mapping, tau);
  auto compiled =
      std::make_unique<core::CompiledProblem>(system.compile());
  const double rho0 = compiled->evaluateMetric().metric;
  auto tracker = std::make_unique<curve::DriftTracker>(
      *compiled, thresholdFrac * rho0);
  std::vector<double> estimated = system.estimatedTimes();
  return Lane{std::move(etc),      std::move(mapping),
              std::move(compiled), std::move(tracker),
              std::move(estimated), std::move(anchorSlow)};
}

}  // namespace

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 7));
  const auto updates =
      static_cast<std::uint64_t>(args.getInt("updates", 100000));
  const double tau = args.getDouble("tau", 1.2);
  const double thresholdFrac = args.getDouble("threshold_frac", 0.5);

  sched::EtcOptions etcOptions;
  etcOptions.apps = static_cast<std::size_t>(args.getInt("apps", 24));
  etcOptions.machines =
      static_cast<std::size_t>(args.getInt("machines", 6));
  args.rejectUnknownOptions("drift_reallocation");
  Pcg32 etcRng(seed);
  sched::EtcMatrix etc = sched::generateEtc(etcOptions, etcRng);
  sched::Mapping mapping = sched::minMinMapping(etc);

  std::vector<Lane> lanes;  // every lane stays alive (tracker -> compiled)
  lanes.push_back(makeLane(std::move(etc), std::move(mapping), tau,
                           thresholdFrac,
                           std::vector<double>(etcOptions.apps, 1.0)));
  std::cout << "min-min on " << etcOptions.apps << "x" << etcOptions.machines
            << ": makespan "
            << sched::makespan(lanes.back().etc, lanes.back().mapping)
            << ", rho0 " << lanes.back().tracker->anchorRho()
            << ", threshold " << lanes.back().tracker->threshold() << '\n';

  // The reference degradation curve at the anchor: what the tracker's
  // running rho floors while the operating point drifts.
  {
    curve::CurveOptions curveOptions;
    curveOptions.samples = 20000;
    curveOptions.seed = seed;
    curveOptions.useCache = false;
    const curve::CurveResult ref =
        curve::computeCurve(*lanes.back().compiled, curveOptions);
    std::cout << "anchor curve: P(violation | rho) = "
              << ref.probabilityAt(ref.rho) << ", median critical radius "
              << ref.radiusAtProbability(0.5) << " (" << ref.samples
              << " samples)\n";
  }

  Pcg32 walk = makeStream(seed, kDriftWalkFamily, 0);
  // Regime shift: each application's true time random-walks toward its own
  // hidden target slowdown (mostly slower, some faster). Heterogeneous
  // targets change the RELATIVE structure of the ETC, so re-allocation has
  // real work to do; the mean-reverting walk keeps the system bounded, so
  // after a re-anchoring the stream settles instead of cascading.
  std::vector<double> slow(etcOptions.apps, 1.0);
  std::vector<double> targetSlow(etcOptions.apps);
  for (double& t : targetSlow) {
    t = walk.uniform(0.8, 2.4);
  }
  std::uint64_t crossings = 0;
  std::uint64_t streamed = 0;
  const std::uint64_t rebaseEvery = 50000;
  for (std::uint64_t step = 0; step < updates; ++step) {
    Lane& lane = lanes.back();
    const auto app = static_cast<std::size_t>(
        walk.nextBounded(static_cast<std::uint32_t>(etcOptions.apps)));
    slow[app] += 0.002 * (targetSlow[app] - slow[app]) *
                 walk.uniform(0.5, 1.5);
    const double actual =
        lane.estimated[app] * slow[app] / lane.anchorSlow[app];
    const curve::DriftStatus status = lane.tracker->applyUpdate(app, actual);
    ++streamed;
    if (streamed % rebaseEvery == 0) {
      lane.tracker->rebase();  // flush incremental rounding
    }
    if (lane.tracker->rhoLowerBound() > lane.tracker->rho() ||
        lane.tracker->rho() > lane.tracker->rhoUpperBound()) {
      std::cerr << "FAIL: Lipschitz bracket violated at update " << step
                << '\n';
      return 1;
    }
    if (!status.crossedBelow) {
      continue;
    }

    // ---- threshold crossing: re-trigger the mapping search ------------
    ++crossings;
    const double rhoAtCrossing = status.rho;
    // Fold the observed per-app slowdowns back into the ETC estimates.
    sched::EtcMatrix drifted(etcOptions.apps, etcOptions.machines);
    for (std::size_t i = 0; i < etcOptions.apps; ++i) {
      const double slowdown = slow[i] / lane.anchorSlow[i];
      for (std::size_t m = 0; m < etcOptions.machines; ++m) {
        drifted(i, m) = lane.etc(i, m) * slowdown;
      }
    }
    const double capBase = sched::makespan(drifted, lane.mapping);
    sched::Mapping searched = sched::localSearch(
        drifted, lane.mapping,
        sched::EtcObjective::cappedRobustness(tau, 1.05 * capBase));
    std::size_t moved = 0;
    for (std::size_t i = 0; i < etcOptions.apps; ++i) {
      moved += searched.machineOf(i) != lane.mapping.machineOf(i) ? 1u : 0u;
    }
    lanes.push_back(makeLane(std::move(drifted), std::move(searched), tau,
                             thresholdFrac, slow));
    const Lane& next = lanes.back();
    std::cout << "crossing " << crossings << " at update " << (step + 1)
              << ": rho " << rhoAtCrossing << " < threshold "
              << lanes[lanes.size() - 2].tracker->threshold()
              << " -> localSearch moved " << moved << " apps, makespan "
              << sched::makespan(next.etc, next.mapping) << ", rho re-anchored "
              << next.tracker->anchorRho() << '\n';
    if (next.tracker->rho() < next.tracker->threshold()) {
      std::cerr << "FAIL: re-allocation left rho below its own threshold\n";
      return 1;
    }
  }

  std::uint64_t trackedUpdates = 0;
  for (const Lane& lane : lanes) {
    trackedUpdates += lane.tracker->updates();
  }
  std::cout << "streamed " << streamed << " updates across " << lanes.size()
            << " allocation epochs (" << crossings
            << " crossings); drift distance in final epoch "
            << lanes.back().tracker->driftDistance() << '\n';
  if (crossings == 0) {
    std::cerr << "FAIL: the drift walk never crossed the threshold\n";
    return 1;
  }
  if (trackedUpdates != streamed) {
    std::cerr << "FAIL: trackers account for " << trackedUpdates << " of "
              << streamed << " updates\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("drift_reallocation");
}

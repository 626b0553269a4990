#include "robust/scheduling/incremental.hpp"

#include "robust/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "robust/util/error.hpp"

namespace robust::sched {

namespace {

/// The analyze() reduction over dense load/count arrays: max finishing time
/// scanning machines in ascending order, then the strict-< minimum of the
/// Eq. 6 radii (so ties resolve to the smallest machine index, exactly as
/// IndependentTaskSystem::analyze does). `sqrtCount[c]` holds sqrt(c);
/// IEEE sqrt is correctly rounded, so the table is bit-identical to
/// computing sqrt inline as analyze() does.
EvalResult reduceDense(std::span<const double> load,
                       std::span<const std::size_t> count, double tau,
                       std::span<const double> sqrtCount) {
  EvalResult result;
  result.makespan = load[0];
  for (std::size_t j = 1; j < load.size(); ++j) {
    if (load[j] > result.makespan) {
      result.makespan = load[j];
    }
  }
  const double bound = tau * result.makespan;
  for (std::size_t j = 0; j < load.size(); ++j) {
    if (count[j] == 0) {
      continue;
    }
    const double radius = (bound - load[j]) / sqrtCount[count[j]];
    if (radius < result.robustness) {
      result.robustness = radius;
      result.bindingMachine = j;
    }
  }
  return result;
}

std::vector<double> sqrtTable(std::size_t apps) {
  std::vector<double> table(apps + 1);
  for (std::size_t c = 0; c <= apps; ++c) {
    table[c] = std::sqrt(static_cast<double>(c));
  }
  return table;
}

}  // namespace

// ------------------------------------------------------- ScratchEvaluator

ScratchEvaluator::ScratchEvaluator(const EtcMatrix& etc, double tau)
    : etc_(&etc), tau_(tau), sqrtCount_(sqrtTable(etc.apps())) {
  ROBUST_REQUIRE(tau_ >= 1.0, "ScratchEvaluator: tau must be >= 1");
}

EvalResult ScratchEvaluator::evaluate(
    std::span<const std::size_t> assignment) {
  ROBUST_REQUIRE(assignment.size() == etc_->apps(),
                 "ScratchEvaluator: assignment size must equal app count");
  load_.assign(etc_->machines(), 0.0);
  count_.assign(etc_->machines(), 0);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const std::size_t j = assignment[i];
    load_[j] += (*etc_)(i, j);
    ++count_[j];
  }
  return reduceDense(load_, count_, tau_, sqrtCount_);
}

// --------------------------------------------------- IncrementalEvaluator

IncrementalEvaluator::IncrementalEvaluator(const EtcMatrix& etc, Mapping start,
                                           double tau)
    : etc_(&etc),
      tau_(tau),
      mapping_(std::move(start)),
      sqrtCount_(sqrtTable(etc.apps())) {
  ROBUST_REQUIRE(etc_->apps() == mapping_.apps() &&
                     etc_->machines() == mapping_.machines(),
                 "IncrementalEvaluator: ETC and mapping dimensions disagree");
  ROBUST_REQUIRE(tau_ >= 1.0, "IncrementalEvaluator: tau must be >= 1");
  rebuild();
}

void IncrementalEvaluator::rebuild() {
  const std::size_t machines = etc_->machines();
  load_.assign(machines, 0.0);
  count_.assign(machines, 0);
  machineApps_.assign(machines, {});
  const auto& assignment = mapping_.assignment();
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const std::size_t j = assignment[i];
    load_[j] += (*etc_)(i, j);
    ++count_[j];
    machineApps_[j].push_back(i);  // ascending: i increases monotonically
  }
  current_ = reduceDense(load_, count_, tau_, sqrtCount_);
  pending_.active = false;
  cachedRemovalApp_ = kNone;
  ++stats_.rebuilds;
}

double IncrementalEvaluator::resum(std::size_t j, std::size_t skip,
                                   std::size_t add) const {
  // Ascending application-index order — the finishingTimes accumulation
  // order, which the exactness contract requires.
  double sum = 0.0;
  bool added = add == kNone;
  for (const std::size_t a : machineApps_[j]) {
    if (!added && add < a) {
      sum += (*etc_)(add, j);
      added = true;
    }
    if (a == skip) {
      continue;
    }
    sum += (*etc_)(a, j);
  }
  if (!added) {
    sum += (*etc_)(add, j);
  }
  return sum;
}

EvalResult IncrementalEvaluator::evaluateTouched(std::size_t ta, double la,
                                                 std::size_t ca,
                                                 std::size_t tb, double lb,
                                                 std::size_t cb) {
  // Write the two overrides into the committed arrays, run the plain
  // analyze() reduction over contiguous memory, and restore. Branch-free in
  // the hot loops, and trivially the same float operations as rebuild().
  const double oldLa = load_[ta], oldLb = load_[tb];
  const std::size_t oldCa = count_[ta], oldCb = count_[tb];
  load_[ta] = la;
  count_[ta] = ca;
  load_[tb] = lb;
  count_[tb] = cb;
  const EvalResult result = reduceDense(load_, count_, tau_, sqrtCount_);
  load_[ta] = oldLa;
  count_[ta] = oldCa;
  load_[tb] = oldLb;
  count_[tb] = oldCb;
  return result;
}

EvalResult IncrementalEvaluator::tryMove(std::size_t app,
                                         std::size_t machine) {
  ROBUST_REQUIRE(app < etc_->apps(), "tryMove: app index out of range");
  ROBUST_REQUIRE(machine < etc_->machines(),
                 "tryMove: machine index out of range");
  const std::size_t from = mapping_.assignment()[app];
  if (machine == from) {
    pending_.active = false;
    return current_;
  }
  ++stats_.moves;
  Pending& p = pending_;
  p.active = true;
  p.app = app;
  p.from = from;
  p.to = machine;
  if (cachedRemovalApp_ != app) {
    cachedRemovalLoad_ = resum(from, app, kNone);
    cachedRemovalApp_ = app;
  }
  p.loadFrom = cachedRemovalLoad_;
  p.countFrom = count_[from] - 1;
  p.loadTo = resum(machine, kNone, app);
  p.countTo = count_[machine] + 1;
  p.result = evaluateTouched(p.from, p.loadFrom, p.countFrom, p.to, p.loadTo,
                             p.countTo);
  return p.result;
}

bool IncrementalEvaluator::commit() {
  if (!pending_.active) {
    return false;
  }
  const Pending& p = pending_;
  auto& fromApps = machineApps_[p.from];
  fromApps.erase(std::lower_bound(fromApps.begin(), fromApps.end(), p.app));
  auto& toApps = machineApps_[p.to];
  toApps.insert(std::lower_bound(toApps.begin(), toApps.end(), p.app), p.app);
  mapping_.assign(p.app, p.to);
  load_[p.from] = p.loadFrom;
  count_[p.from] = p.countFrom;
  load_[p.to] = p.loadTo;
  count_[p.to] = p.countTo;
  current_ = p.result;
  pending_.active = false;
  ++stats_.commits;
  cachedRemovalApp_ = kNone;
  return true;
}

void IncrementalEvaluator::publishStats() {
  if (obs::enabled()) {
    static const obs::MetricId kMoves = obs::counterId("sched.inc_moves");
    static const obs::MetricId kCommits = obs::counterId("sched.inc_commits");
    static const obs::MetricId kRebuilds =
        obs::counterId("sched.inc_rebuilds");
    obs::addCounter(kMoves, stats_.moves);
    obs::addCounter(kCommits, stats_.commits);
    obs::addCounter(kRebuilds, stats_.rebuilds);
  }
  stats_ = IncrementalStats{};
}

}  // namespace robust::sched

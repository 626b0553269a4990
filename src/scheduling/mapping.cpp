#include "robust/scheduling/mapping.hpp"

#include <algorithm>

#include "robust/util/error.hpp"

namespace robust::sched {

Mapping::Mapping(std::vector<std::size_t> assignment, std::size_t machines)
    : assignment_(std::move(assignment)), machines_(machines) {
  ROBUST_REQUIRE(machines_ > 0, "Mapping: need at least one machine");
  ROBUST_REQUIRE(!assignment_.empty(), "Mapping: empty assignment");
  for (std::size_t m : assignment_) {
    ROBUST_REQUIRE(m < machines_, "Mapping: machine index out of range");
  }
}

void Mapping::assign(std::size_t app, std::size_t machine) {
  ROBUST_REQUIRE(app < assignment_.size(), "Mapping: app index out of range");
  ROBUST_REQUIRE(machine < machines_, "Mapping: machine index out of range");
  assignment_[app] = machine;
}

std::vector<std::size_t> Mapping::countPerMachine() const {
  std::vector<std::size_t> counts(machines_, 0);
  for (std::size_t m : assignment_) {
    ++counts[m];
  }
  return counts;
}

Mapping randomMapping(std::size_t apps, std::size_t machines, Pcg32& rng) {
  ROBUST_REQUIRE(apps > 0 && machines > 0,
                 "randomMapping: dimensions must be positive");
  std::vector<std::size_t> assignment(apps);
  for (auto& m : assignment) {
    m = rng.nextBounded(static_cast<std::uint32_t>(machines));
  }
  return Mapping(std::move(assignment), machines);
}

std::vector<double> finishingTimes(const EtcMatrix& etc,
                                   const Mapping& mapping) {
  ROBUST_REQUIRE(etc.apps() == mapping.apps() &&
                     etc.machines() == mapping.machines(),
                 "finishingTimes: ETC and mapping dimensions disagree");
  std::vector<double> finish(etc.machines(), 0.0);
  for (std::size_t i = 0; i < etc.apps(); ++i) {
    finish[mapping.machineOf(i)] += etc(i, mapping.machineOf(i));
  }
  return finish;
}

double makespan(const EtcMatrix& etc, const Mapping& mapping) {
  const auto finish = finishingTimes(etc, mapping);
  return *std::max_element(finish.begin(), finish.end());
}

double loadBalanceIndex(const EtcMatrix& etc, const Mapping& mapping) {
  const auto finish = finishingTimes(etc, mapping);
  const double latest = *std::max_element(finish.begin(), finish.end());
  const double earliest = *std::min_element(finish.begin(), finish.end());
  return latest > 0.0 ? earliest / latest : 0.0;
}

}  // namespace robust::sched

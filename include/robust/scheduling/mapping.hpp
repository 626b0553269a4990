// Mappings (matchings of applications to machines) and their basic
// performance metrics: finishing times, makespan, and the load balance index
// used in Section 4.2.
#pragma once

#include <cstddef>
#include <vector>

#include "robust/scheduling/etc.hpp"
#include "robust/util/rng.hpp"

namespace robust::sched {

/// A mapping mu: application index -> machine index.
class Mapping {
 public:
  /// Wraps an assignment vector; every entry must be < machines.
  Mapping(std::vector<std::size_t> assignment, std::size_t machines);

  [[nodiscard]] std::size_t apps() const noexcept {
    return assignment_.size();
  }
  [[nodiscard]] std::size_t machines() const noexcept { return machines_; }

  /// Machine assigned to application `app`.
  [[nodiscard]] std::size_t machineOf(std::size_t app) const {
    return assignment_.at(app);
  }

  /// Reassigns application `app` to `machine` (bounds-checked).
  void assign(std::size_t app, std::size_t machine);

  /// The raw assignment vector.
  [[nodiscard]] const std::vector<std::size_t>& assignment() const noexcept {
    return assignment_;
  }

  /// Number of applications on each machine: n(m_j) of Section 4.2.
  [[nodiscard]] std::vector<std::size_t> countPerMachine() const;

 private:
  std::vector<std::size_t> assignment_;
  std::size_t machines_;
};

/// Uniformly random mapping (the Section 4 experiment draw: each application
/// assigned an independently, uniformly chosen machine).
[[nodiscard]] Mapping randomMapping(std::size_t apps, std::size_t machines,
                                    Pcg32& rng);

/// Finishing time F_j of every machine under `mapping` with estimated times
/// `etc` (Eq. 4 evaluated at C_orig): F_j = sum of C_ij over apps on m_j.
[[nodiscard]] std::vector<double> finishingTimes(const EtcMatrix& etc,
                                                 const Mapping& mapping);

/// Makespan: max finishing time (completion time of the entire set).
[[nodiscard]] double makespan(const EtcMatrix& etc, const Mapping& mapping);

/// Load balance index of Section 4.2: (earliest machine finish) / makespan,
/// in [0, 1], larger = more balanced. Machines with no applications have
/// finishing time 0, making the index 0 — matching the paper's definition.
[[nodiscard]] double loadBalanceIndex(const EtcMatrix& etc,
                                      const Mapping& mapping);

}  // namespace robust::sched

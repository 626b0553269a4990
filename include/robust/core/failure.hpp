// The discrete machine-failure perturbation model.
//
// The paper's Section 3.2 handles discrete perturbation parameters by
// flooring the continuous metric. Machine drop-outs are the canonical
// discrete perturbation of a cloud allocation (Beaumont et al., arXiv
// 1310.5255): the perturbation vector is the 0/1 failure indicator of every
// machine, the "distance" of a failure pattern is how many machines it
// kills (its L1 norm), and a mapping's robustness radius is the largest
// number of simultaneous failures it is guaranteed to survive.
//
// A task survives a failure pattern when at least one of its replica hosts
// is still up, so the radius of one task is (distinct replica hosts - 1)
// and the mapping's failure radius is the minimum over tasks — replication
// onto more distinct machines is exactly what raises it.
//
// failureSpec() states the same model as a FePIA derivation: per task a
// "live replica count" feature, affine in the failure indicators, bounded
// below by 1, over a discrete L1-normed perturbation subspace. Its floored
// metric equals failureRadius() — the subsumption of the Section 3.2 floor
// rule that tests/test_core_failure.cpp pins — so the general engine and
// the combinatorial shortcut are two views of one model.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "robust/core/compiled.hpp"

namespace robust::core {

/// A replication-aware placement against machine failures: for every task,
/// the machines hosting at least one of its replicas. Host lists may
/// contain duplicates (two replicas of one task on one machine); only
/// distinct hosts count toward survival.
struct FailureModel {
  std::size_t machines = 0;
  std::vector<std::vector<std::size_t>> replicaHosts;  ///< per task
};

/// Number of distinct machines in one task's host list.
[[nodiscard]] std::size_t distinctHostCount(
    std::span<const std::size_t> hosts);


/// The failure radius: the largest k such that the mapping survives EVERY
/// set of k machine failures, i.e. min over tasks of (distinct hosts - 1).
/// A model with no tasks survives everything (radius = machine count).
/// Every task must have at least one host. Records the result on the
/// `core.failure.radius` gauge when observability is enabled.
[[nodiscard]] std::size_t failureRadius(const FailureModel& model);

/// The equivalent FePIA derivation: one affine "live replicas of task t"
/// feature per task (bounded below by 1) over a discrete L1-normed failure
/// subspace with origin 0 (no machine failed). The compiled spec's floored
/// metric equals failureRadius(model).
[[nodiscard]] ProblemSpec failureSpec(const FailureModel& model);

}  // namespace robust::core

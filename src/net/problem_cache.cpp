#include "daemon.hpp"

#include <algorithm>
#include <utility>

namespace robust::net {

ProblemCache::Outcome ProblemCache::lookupOrCompile(
    std::uint64_t key, std::span<const std::uint8_t> specBytes,
    const WireLimits& limits) {
  Outcome out;
  const auto cached = [&] {  // the entry for these exact bytes, touched MRU
    const auto it = index_.find(key);
    if (it == index_.end() ||
        !std::equal(it->second->bytes.begin(), it->second->bytes.end(),
                    specBytes.begin(), specBytes.end())) {
      return false;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    out.problem = it->second->problem;
    out.fromCache = true;
    return true;
  };
  {
    std::lock_guard lock(mutex_);
    if (cached()) {
      return out;
    }
  }
  // Compile outside the lock: registration is rare and compilation may be
  // heavy.
  const util::Diagnostics diag("robustd:register");
  core::ProblemSpec spec = decodeProblemSpec(specBytes, limits, diag);
  auto compiled = std::make_shared<const core::CompiledProblem>(
      core::CompiledProblem::compile(std::move(spec)));
  std::lock_guard lock(mutex_);
  // A REGISTER of the same spec that raced this one inserted first: share
  // its problem, so byte-identical specs still map to one CompiledProblem.
  if (cached()) {
    return out;
  }
  if (!index_.contains(key)) {
    entries_.push_front(Entry{
        key, std::vector<std::uint8_t>(specBytes.begin(), specBytes.end()),
        compiled});
    index_[key] = entries_.begin();
    while (entries_.size() > capacity_) {
      index_.erase(entries_.back().key);
      entries_.pop_back();
      ++out.evictions;
    }
  }
  out.problem = std::move(compiled);
  return out;
}

std::size_t ProblemCache::entries() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace robust::net

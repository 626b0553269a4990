#include "daemon.hpp"

#include <algorithm>
#include <utility>

namespace robust::net {

Session* pickNext(const SessionMap& sessions) noexcept {
  Session* chosen = nullptr;
  for (const auto& [fd, sp] : sessions) {
    Session& s = *sp;
    if (s.pending.empty() || s.inflight != 0) {
      continue;
    }
    if (chosen == nullptr || s.virtualTime < chosen->virtualTime ||
        (s.virtualTime == chosen->virtualTime && s.id < chosen->id)) {
      chosen = &s;
    }
  }
  return chosen;
}

Started startNext(Session& s, double& vtFloor) {
  vtFloor = std::max(vtFloor, s.virtualTime);
  Started started{std::move(s.pending.front()), 0.0};
  s.pending.pop_front();
  started.charge = started.work.cost /
                   static_cast<double>(std::max<std::uint32_t>(1, s.weight));
  s.virtualTime += started.charge;
  s.chargedCost += started.charge;
  s.inflight = 1;
  return started;
}

}  // namespace robust::net

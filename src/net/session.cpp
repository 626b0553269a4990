#include "daemon.hpp"

#include <algorithm>
#include <utility>

namespace robust::net {

std::optional<Frame> nextFrame(Session& s, const WireLimits& limits) {
  const std::size_t available = s.in.size() - s.inPos;
  if (available >= kHeaderBytes) {
    const util::Diagnostics diag("robustd:frame");
    const FrameHeader header = decodeFrameHeader(
        std::span<const std::uint8_t>(s.in.data() + s.inPos, kHeaderBytes),
        limits, diag);
    if (available >= kHeaderBytes + header.payloadBytes) {
      const std::span<const std::uint8_t> payload(
          s.in.data() + s.inPos + kHeaderBytes, header.payloadBytes);
      s.inPos += kHeaderBytes + header.payloadBytes;
      return Frame{header, payload};
    }
  }
  if (s.inPos > 0 && (s.inPos >= s.in.size() || s.inPos > 1u << 16)) {
    s.in.erase(s.in.begin(),
               s.in.begin() + static_cast<std::ptrdiff_t>(s.inPos));
    s.inPos = 0;
  }
  return std::nullopt;
}

bool queueReply(Session& s, std::vector<std::uint8_t> frame) {
  s.outBytes += frame.size();
  s.backlogBytes += frame.size();
  s.out.push_back(std::move(frame));
  return !std::exchange(s.wantWrite, true);
}

void consumeWritten(Session& s, std::size_t n) {
  s.outPos += n;
  s.outBytes -= n;
  s.backlogBytes -= std::min(s.backlogBytes, n);
  if (s.outPos == s.out.front().size()) {
    s.out.pop_front();
    s.outPos = 0;
  }
}

void queueWork(Session& s, Work&& work) {
  s.backlogBytes += work.bytes;
  s.pending.push_back(std::move(work));
}

void discardPending(Session& s) {
  for (const Work& w : s.pending) {
    s.backlogBytes -= std::min(s.backlogBytes, w.bytes);
  }
  s.pending.clear();
}

void settleInflight(Session& s, std::size_t releasedBytes) {
  s.inflight = 0;
  s.backlogBytes -= std::min(s.backlogBytes, releasedBytes);
}

PauseChange updatePause(Session& s, std::size_t maxInflightBytes) {
  if (!s.paused && s.backlogBytes > maxInflightBytes) {
    s.paused = true;
    return PauseChange::Paused;
  }
  if (s.paused && s.backlogBytes <= maxInflightBytes / 2) {
    s.paused = false;
    return PauseChange::Resumed;
  }
  return PauseChange::None;
}

}  // namespace robust::net

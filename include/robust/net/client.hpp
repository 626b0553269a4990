// Blocking robustd client: one connection, synchronous request/reply.
//
// The client exists for three consumers — the load generator, the soak
// test, and embedders that want remote analysis with offline semantics —
// so it exposes exactly the protocol surface plus two chaos hooks:
// sendRaw() writes arbitrary bytes (malformed-frame injection) and
// closeNow() drops the socket without BYE (disconnect injection).
//
// Replies are decoded with the same util::Diagnostics discipline the
// server applies to requests; a Reject frame surfaces as RejectedError so
// callers can distinguish "the server said no" (categorized, with the
// server's message) from transport failure (std::runtime_error).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "robust/net/wire.hpp"

namespace robust::net {

/// The server answered with a REJECT frame. Carries the category the
/// server assigned and whether the server declared the rejection fatal
/// (connection closing).
class RejectedError : public std::runtime_error {
 public:
  explicit RejectedError(RejectInfo info)
      : std::runtime_error(info.message), info_(std::move(info)) {}

  [[nodiscard]] const RejectInfo& info() const noexcept { return info_; }

 private:
  RejectInfo info_;
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a robustd Unix socket. Throws std::runtime_error on
  /// failure.
  void connectUnix(const std::string& path);

  /// Connects to a robustd loopback TCP port.
  void connectTcp(std::uint16_t port);

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// HELLO handshake; returns the server-assigned session id.
  std::uint64_t hello(const std::string& tenant,
                      std::uint32_t declaredDemand);

  /// Registers a problem spec; returns the content key to ANALYZE against
  /// and whether the server already had a byte-identical spec cached.
  RegisterReply registerProblem(const core::ProblemSpec& spec);

  /// Same, from pre-encoded canonical spec bytes (lets callers hash/replay
  /// the exact payload).
  RegisterReply registerEncoded(std::span<const std::uint8_t> specBytes);

  /// Streams one perturbation batch and blocks for the results. `origins`
  /// holds instanceCount * dim doubles, instance-contiguous.
  std::vector<WireResult> analyze(std::uint64_t key,
                                  std::uint32_t instanceCount,
                                  std::span<const double> origins);

  /// STATS admin request: returns the server's robust.stats JSON snapshot
  /// (schema kStatsSchemaVersion). Works without a HELLO handshake.
  std::string stats();

  /// TRACE_DUMP admin request: drains the server's flight recorder and
  /// returns the Chrome trace-event JSON document. Works without HELLO.
  std::string traceDump();

  /// Graceful shutdown: BYE, wait for BYE_OK, close.
  void bye();

  /// Chaos hook: writes raw bytes straight to the socket, bypassing every
  /// encoder. The caller owns whatever the server thinks of them.
  void sendRaw(std::span<const std::uint8_t> bytes);

  /// Reads the next frame whatever it is (for chaos callers that expect a
  /// specific reject). Returns header + payload.
  std::pair<FrameHeader, std::vector<std::uint8_t>> readFrame();

  /// Chaos hook: drops the connection immediately — no BYE, no flush
  /// beyond what the kernel already took.
  void closeNow();

 private:
  void sendFrame(FrameType type, std::span<const std::uint8_t> payload);
  /// Reads until a non-Reject frame of `expect` arrives; throws
  /// RejectedError on Reject, std::runtime_error on transport failure or
  /// an unexpected frame type.
  std::vector<std::uint8_t> await(FrameType expect);
  void writeAll(const std::uint8_t* data, std::size_t n);
  void readAll(std::uint8_t* data, std::size_t n);

  int fd_ = -1;
  std::uint32_t nextRequestId_ = 1;
  WireLimits limits_;
};

}  // namespace robust::net

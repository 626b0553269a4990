// robustd: a long-lived, multi-tenant robustness-analysis service.
//
// One IO thread owns an epoll loop over a Unix or loopback-TCP listening
// socket and every live session; a fixed util::ThreadPool executes the
// compute. The two meet through a weighted-fair admission queue:
//
//   * each session declares a demand weight at HELLO time; admitted work
//     advances the session's virtual time by cost / weight (cost = the
//     instance count it asked the pool to evaluate, so a greedy tenant
//     misdeclaring a huge weight still pays for the work it actually
//     submits — the declared-vs-charged gap is visible in the session's
//     run report);
//   * the dispatcher always starts the runnable session with the LOWEST
//     virtual time, one in-flight request per session (per-session FIFO
//     replies), so no tenant can starve another no matter how fast it
//     writes.
//
// Backpressure is byte-denominated per connection: when queued request
// payloads plus unsent replies exceed ServerOptions::maxInflightBytes, the
// session's fd is dropped from the read set until the backlog halves —
// deferred reads push the pressure into the peer's socket buffer instead
// of the daemon's heap.
//
// Registered specs land in a shared content-addressed LRU: byte-identical
// REGISTER payloads (FNV-1a key, full byte compare on hit) map to ONE
// CompiledProblem shared across tenants; sessions pin their entries with
// shared_ptr, so eviction under churn never invalidates a registered key.
//
// Every answer the daemon produces is bit-identical to the offline batch
// lane: ANALYZE runs CompiledProblem::analyzeBatchMetric, whose results do
// not depend on thread count, plus the originFeasible() check that
// classifies infeasible operating points (the full lane's
// RobustnessReport::infeasibleOrigin).
//
// Failure containment: a malformed frame header poisons only ITS
// connection (categorized fatal reject, then close); a malformed payload
// answers with a categorized non-fatal reject; a client disconnect mid
// batch discards that session's queue. None of these disturb any other
// tenant's stream — the soak test injects all three while asserting other
// sessions' bits.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "robust/net/wire.hpp"
#include "robust/util/diagnostics.hpp"

namespace robust::net {

struct ServerOptions {
  /// Unix-domain listening socket path. Takes precedence over TCP when
  /// non-empty. The path is unlinked on bind and on shutdown.
  std::string unixPath;
  /// Loopback TCP port (127.0.0.1). 0 means "pick an ephemeral port";
  /// Server::port() reports the resolved value.
  std::uint16_t tcpPort = 0;
  /// When neither unixPath nor tcpPort is set, the server listens on an
  /// ephemeral loopback TCP port.
  /// Compute pool size; 0 = defaultThreadCount().
  std::size_t workers = 0;
  /// Shared CompiledProblem LRU capacity (entries).
  std::size_t cacheCapacity = 64;
  /// Wire caps applied to every frame.
  WireLimits limits;
  /// Per-connection in-flight byte bound (queued request payloads +
  /// pending reply bytes) before reads are deferred.
  std::size_t maxInflightBytes = 4u << 20;
  /// When non-empty, a robust.run_report JSON file is written here for
  /// every connection on close ("robustd_session_<id>.json").
  std::string reportDir;
  /// When non-empty, the flight recorder is dumped here automatically on
  /// every fatal reject ("robustd_flight_fatal_<n>.json") — the operator's
  /// look at what every thread was doing just before framing was lost.
  std::string flightDir;
};

/// Monotonic counters describing everything the server has done. Snapshot
/// via Server::stats(); the soak test asserts leak-freedom with them.
struct ServerStats {
  std::uint64_t sessionsOpened = 0;
  std::uint64_t sessionsClosed = 0;   ///< fully reclaimed (fd closed, work drained)
  std::uint64_t sessionsActive = 0;   ///< opened - closed
  std::uint64_t framesHandled = 0;    ///< well-formed frames accepted
  std::uint64_t batches = 0;          ///< ANALYZE requests completed
  std::uint64_t instances = 0;        ///< perturbation instances evaluated
  std::uint64_t registers = 0;        ///< REGISTER requests completed
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheEvictions = 0;
  std::uint64_t backpressureStalls = 0;  ///< read-deferral transitions
  std::uint64_t backlogHighWaterBytes = 0;  ///< largest per-session backlog
  std::uint64_t disconnects = 0;      ///< peers that vanished uncleanly
  std::uint64_t statsRequests = 0;    ///< STATS admin frames answered
  std::uint64_t traceDumps = 0;       ///< TRACE_DUMP admin frames answered
  /// Rejected frames by RejectCategory (Format, Domain, Structure,
  /// Truncated, Other).
  std::array<std::uint64_t, util::kRejectCategoryCount> rejects{};

  [[nodiscard]] std::uint64_t rejectsTotal() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint64_t v : rejects) {
      sum += v;
    }
    return sum;
  }
};

/// The daemon. Construct, start(), and stop() (or destroy — the destructor
/// stops). One Server owns one listening socket, one IO thread, and one
/// compute pool.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the IO thread. Throws std::runtime_error
  /// when the socket cannot be bound, and std::system_error carrying errno
  /// when the epoll instance cannot be created.
  void start();

  /// Graceful shutdown: stops accepting, fails over pending work, drains
  /// the pool, closes every session (writing their run reports), and joins
  /// the IO thread. Idempotent.
  void stop();

  /// Resolved TCP port (after start(); 0 for Unix-socket servers).
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// The listening Unix path ("" for TCP servers).
  [[nodiscard]] const std::string& unixPath() const noexcept;

  /// Point-in-time counters. Safe from any thread.
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace robust::net

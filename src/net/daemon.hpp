// robustd's internals, private to robust_net (DESIGN.md 4.13): the policies
// the IO loop in server.cpp applies, one translation unit each, none of
// them touching a socket. tests/test_net_units.cpp drives each directly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/net/server.hpp"
#include "robust/net/wire.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/util/diagnostics.hpp"

namespace robust::net {

// ------------------------------------------ compile cache (problem_cache.cpp)

/// Content-addressed CompiledProblem cache shared by every tenant: keyed by
/// the caller's FNV-1a hash of the canonical spec bytes, full byte compare
/// on hit (a colliding spec is simply compiled uncached), LRU eviction.
/// Sessions pin entries with shared_ptr, so eviction never invalidates a
/// registered key — it only stops future cross-tenant sharing of that spec.
class ProblemCache {
 public:
  explicit ProblemCache(std::size_t capacity) : capacity_(capacity) {}

  struct Outcome {
    std::shared_ptr<const core::CompiledProblem> problem;
    bool fromCache = false;
    std::uint64_t evictions = 0;
  };

  /// The cached problem for byte-identical `specBytes` under `key` (their
  /// fnv1a), or a fresh compile, cached unless `key` is taken. When two
  /// calls race on one new spec, both compile and the later one returns
  /// the earlier one's entry as a hit. Throws whatever decoding or
  /// compile() throws.
  Outcome lookupOrCompile(std::uint64_t key,
                          std::span<const std::uint8_t> specBytes,
                          const WireLimits& limits);

  [[nodiscard]] std::size_t entries() const;

 private:
  struct Entry {
    std::uint64_t key;
    std::vector<std::uint8_t> bytes;
    std::shared_ptr<const core::CompiledProblem> problem;
  };
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> entries_;  // MRU first
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

// ---------------------------------------------- request execution (work.cpp)

/// One admitted request, queued on its session until dispatched.
struct Work {
  enum class Kind { Register, Analyze };
  Kind kind = Kind::Analyze;
  std::uint32_t requestId = 0;
  double cost = 1.0;  ///< fairness charge (instances, or bytes / 4 KiB)
  std::size_t bytes = 0;          ///< backpressure accounting
  std::int64_t enqueueNanos = 0;  ///< admission timestamp (queue-wait digest)
  std::vector<std::uint8_t> specBytes;                   // Register
  std::shared_ptr<const core::CompiledProblem> problem;  // Analyze
  std::vector<double> origins;                           // Analyze
  std::uint32_t count = 0;                               // Analyze
};

/// A finished request, handed from the pool back to the IO thread.
struct Completion {
  std::uint64_t sessionId = 0;
  std::vector<std::uint8_t> frame;  ///< encoded reply, ready to send
  std::size_t releasedBytes = 0;    ///< the work's backpressure charge
  // Session-side effects, applied on the IO thread if the session lives:
  std::shared_ptr<const core::CompiledProblem> install;
  std::uint64_t installKey = 0;
  bool rejected = false;
  util::RejectCategory rejectCategory = util::RejectCategory::Other;
  std::uint64_t batches = 0;
  std::uint64_t instances = 0;
  std::uint64_t registers = 0;
  std::uint64_t cacheHit = 0;
  std::uint64_t cacheMiss = 0;
  std::uint64_t cacheEvictions = 0;
  std::int64_t queueNanos = 0;  ///< admission-to-pool wait
  std::int64_t execNanos = 0;   ///< pool execution time
};

/// Executes one request on a pool thread and records its flight span.
/// Never throws: every failure becomes a categorized non-fatal reject.
Completion runWork(const Work& work, ProblemCache& cache,
                   const WireLimits& limits);

// ------------------------------ framing and backpressure (session.cpp)

struct Session {
  std::uint64_t id = 0;
  int fd = -1;
  bool helloDone = false;
  bool closing = false;  ///< no further reads; flush, then close
  std::optional<std::uint32_t> byeRequestId;
  std::string tenant;
  std::uint32_t weight = 1;  ///< demand declared at HELLO: the fair share
  double virtualTime = 0.0;
  double chargedCost = 0.0;

  std::vector<std::uint8_t> in;
  std::size_t inPos = 0;
  std::deque<std::vector<std::uint8_t>> out;
  std::size_t outPos = 0;    ///< offset into out.front()
  std::size_t outBytes = 0;  ///< total unsent reply bytes
  std::deque<Work> pending;
  std::size_t inflight = 0;      ///< 0 or 1: per-session FIFO replies
  std::size_t backlogBytes = 0;  ///< pending + inflight + out bytes
  bool paused = false;           ///< reads deferred by backpressure
  bool wantWrite = false;

  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const core::CompiledProblem>>
      problems;

  // Run-report accounting.
  std::uint64_t frames = 0;
  std::uint64_t batches = 0;
  std::uint64_t instancesDone = 0;
  std::uint64_t registersDone = 0;
  std::array<std::uint64_t, util::kRejectCategoryCount> rejects{};
  bool disconnected = false;  ///< peer vanished uncleanly
};

/// Live sessions by fd.
using SessionMap = std::unordered_map<int, std::unique_ptr<Session>>;

struct Frame {
  FrameHeader header;
  std::span<const std::uint8_t> payload;  ///< view into Session::in
};

/// Consumes the next complete frame from `s.in`, or returns nullopt when
/// only part of one has arrived (compacting the consumed prefix once it
/// dominates the buffer). The payload view lives until `s.in` next grows.
/// Throws util::ParseError when the header cannot be trusted: framing is
/// lost and the connection must go.
std::optional<Frame> nextFrame(Session& s, const WireLimits& limits);

/// Returns true when the session did not want write readiness before.
bool queueReply(Session& s, std::vector<std::uint8_t> frame);
void consumeWritten(Session& s, std::size_t n);  ///< n reply bytes sent
void queueWork(Session& s, Work&& work);
void discardPending(Session& s);  ///< drops work not yet dispatched
void settleInflight(Session& s, std::size_t releasedBytes);

enum class PauseChange { None, Paused, Resumed };
/// Reads pause above `maxInflightBytes` of backlog and resume at half.
PauseChange updatePause(Session& s, std::size_t maxInflightBytes);

// -------------------------------- weighted-fair admission (admission.cpp)

/// The runnable session (queued work, nothing in flight) with the lowest
/// virtual time; ties break on the lower session id, so the pick does not
/// depend on map order. nullptr when no session is runnable.
Session* pickNext(const SessionMap& sessions) noexcept;

struct Started {
  Work work;
  double charge = 0.0;  ///< virtual time the session advanced by
};

/// Starts `s`'s oldest queued request: raises the system virtual-time
/// floor `vtFloor` (where new sessions begin) to `s`'s virtual time, then
/// charges `s` the request's cost / max(1, weight).
Started startNext(Session& s, double& vtFloor);

// ------------------- STATS, TRACE_DUMP and run reports (admin.cpp)

/// Always-on per-tenant latency digest: the exact bucket shape of the obs
/// registry histograms, but owned by the IO thread (no sharding needed —
/// one writer), so STATS carries p50/p95/p99 even with ROBUST_OBS=0.
struct LatencyDigest {
  std::uint64_t count = 0;
  std::uint64_t sumNanos = 0;
  std::array<std::uint64_t, obs::kHistogramBuckets> buckets{};

  void record(std::int64_t nanos) noexcept {
    ++count;
    sumNanos += nanos <= 0 ? 0 : static_cast<std::uint64_t>(nanos);
    ++buckets[obs::latencyBucketIndex(nanos)];
  }

  [[nodiscard]] std::int64_t quantileUpperNanos(double q) const noexcept {
    return obs::latencyQuantileUpperNanos(buckets, count, q);
  }
};

/// Everything the daemon knows about one tenant name, across all of its
/// sessions, live and closed. Owned by the IO thread; folded into the
/// STATS document. Totals accrue exactly once per event (frame accepted,
/// completion drained, reject sent), so a snapshot under concurrent load
/// equals the offline ledger.
struct TenantTotals {
  std::uint64_t sessions = 0;  ///< sessions that completed HELLO as this tenant
  std::uint64_t frames = 0;
  std::uint64_t batches = 0;
  std::uint64_t instances = 0;
  std::uint64_t registers = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::array<std::uint64_t, util::kRejectCategoryCount> rejects{};
  double virtualTime = 0.0;  ///< largest admission virtual time reached
  double chargedCost = 0.0;
  LatencyDigest analyzeLatency;  ///< ANALYZE pool execution time
  LatencyDigest compileLatency;  ///< REGISTER pool execution time
  LatencyDigest queueLatency;    ///< admission-to-pool wait, both kinds
};

/// IO-thread state a STATS snapshot reports besides the counters.
struct StatsGauges {
  std::size_t poolWorkers = 0;
  std::size_t poolBusy = 0;
  double virtualTimeFloor = 0.0;
  std::size_t cacheEntries = 0;
  std::size_t pausedSessions = 0;
  std::uint64_t flightDumps = 0;  ///< on-fatal dumps written so far
};

/// The robust.stats document. Key order is fixed and tenants iterate
/// sorted, so two servers that did the same work produce structurally
/// identical documents.
std::string buildStatsJson(const ServerStats& stats,
                           const ServerOptions& options,
                           const StatsGauges& gauges,
                           const std::map<std::string, TenantTotals>& tenants);

/// The flight recorder as Chrome-trace JSON for TRACE_DUMP_OK. The ring is
/// drained (each record reported once) only when the dump fits `maxBytes`;
/// an oversized one stays for the on-fatal file dump, and the caller
/// refuses the request.
std::string drainFlightTrace(std::size_t maxBytes);

/// Writes `s`'s robust.run_report to `dir`/robustd_session_<id>.json,
/// swallowing failures: telemetry never takes a teardown down with it.
void writeSessionReport(const Session& s, const std::string& dir);

}  // namespace robust::net

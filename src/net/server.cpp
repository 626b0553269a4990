// The robustd IO loop: lifecycle, epoll readiness, accept/read/write and
// frame dispatch. The policies it applies are declared in daemon.hpp and
// defined beside it: problem_cache.cpp, session.cpp, admission.cpp,
// work.cpp and admin.cpp.
#include "robust/net/server.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "daemon.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"
#include "robust/util/error.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::net {

namespace {

using util::Diagnostics;
using util::ParseError;
using util::RejectCategory;

void obsCount(const char* name, std::uint64_t delta = 1) {
  if (obs::enabled()) [[unlikely]] {
    obs::addCounter(obs::counterId(name), delta);
  }
}

/// Every socket the IO loop owns is non-blocking and close-on-exec.
constexpr int kSocketFlags = SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC;

struct FrameNames {
  const char* label;   ///< metrics label ("net.frames{type=...}")
  const char* flight;  ///< flight-recorder event (a literal: only the
                       ///< pointer is stored)
};

FrameNames frameNames(FrameType type) noexcept {
  switch (type) {
    case FrameType::Hello:
      return {"hello", "robustd.frame.hello"};
    case FrameType::Register:
      return {"register", "robustd.frame.register"};
    case FrameType::Analyze:
      return {"analyze", "robustd.frame.analyze"};
    case FrameType::Bye:
      return {"bye", "robustd.frame.bye"};
    case FrameType::Stats:
      return {"stats", "robustd.frame.stats"};
    case FrameType::TraceDump:
      return {"trace_dump", "robustd.frame.trace_dump"};
    default:
      return {"other", "robustd.frame.other"};
  }
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        cache(options.cacheCapacity),
        pool(options.workers) {}

  ~Impl() {
    if (epfd >= 0) {
      ::close(epfd);
    }
  }

  ServerOptions options;
  ProblemCache cache;
  ThreadPool pool;

  int epfd = -1;  ///< the IO loop's epoll instance, created by start()
  int listenFd = -1;
  int wakeFd = -1;  ///< eventfd that pool threads poke after a completion
  std::uint16_t boundPort = 0;
  std::thread ioThread;
  std::atomic<bool> stopping{false};
  bool started = false;

  std::uint64_t nextSessionId = 1;
  SessionMap sessions;
  std::unordered_map<std::uint64_t, int> fdOfSession;
  double vtFloor = 0.0;      ///< system virtual time for new arrivals
  std::size_t poolBusy = 0;  ///< requests currently on the pool
  /// Per-tenant totals across live AND closed sessions (std::map: the
  /// STATS document iterates it in sorted, deterministic order). IO thread
  /// only.
  std::map<std::string, TenantTotals> tenants;
  std::size_t backlogHighWater = 0;  ///< IO-thread shadow of the stat
  std::uint64_t flightDumps = 0;     ///< on-fatal dumps written so far

  mutable std::mutex mutex;  ///< completions + stats
  std::vector<Completion> completions;
  ServerStats stats;

  // ------------------------------------------------------------- helpers

  void wake() {
    const std::uint64_t one = 1;
    ssize_t ignored = ::write(wakeFd, &one, sizeof(one));
    (void)ignored;
  }

  void drainWake() {
    std::uint64_t count = 0;
    ssize_t ignored = ::read(wakeFd, &count, sizeof(count));
    (void)ignored;
  }

  ServerStats snapshot() const {
    std::lock_guard lock(mutex);
    return stats;
  }

  /// Sets `fd`'s readiness interest; `op` is EPOLL_CTL_ADD or EPOLL_CTL_MOD.
  void watch(int op, int fd, bool rd, bool wr) {
    epoll_event ev{};
    ev.events = (rd ? EPOLLIN : 0u) | (wr ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    (void)::epoll_ctl(epfd, op, fd, &ev);
  }

  void syncInterest(const Session& s) {
    watch(EPOLL_CTL_MOD, s.fd, !s.paused && !s.closing, s.wantWrite);
  }

  /// Backpressure high-water tracking: called on every backlog increase.
  void noteBacklog(const Session& s) {
    if (s.backlogBytes > backlogHighWater) {
      backlogHighWater = s.backlogBytes;
      std::lock_guard lock(mutex);
      stats.backlogHighWaterBytes = backlogHighWater;
    }
  }

  void appendReply(Session& s, std::vector<std::uint8_t> frame) {
    const bool arm = queueReply(s, std::move(frame));
    noteBacklog(s);
    if (arm) {
      syncInterest(s);
    }
  }

  void updatePause(Session& s) {
    const PauseChange change = net::updatePause(s, options.maxInflightBytes);
    if (change != PauseChange::None) {
      syncInterest(s);
    }
    if (change == PauseChange::Paused) {
      {
        std::lock_guard lock(mutex);
        stats.backpressureStalls++;
      }
      obsCount("net.backpressure_stalls");
    }
  }

  void recordReject(Session& s, RejectCategory category) {
    const auto idx = static_cast<std::size_t>(category);
    s.rejects[idx]++;
    if (s.helloDone) {
      tenants[s.tenant].rejects[idx]++;
    }
    {
      std::lock_guard lock(mutex);
      stats.rejects[idx]++;
    }
    if (obs::enabled()) [[unlikely]] {
      obs::addCounter(obs::counterId(std::string("net.reject.") +
                                     util::rejectCategoryName(category)));
    }
  }

  void sendReject(Session& s, std::uint32_t requestId,
                  RejectCategory category, bool fatal, std::string message) {
    std::vector<std::uint8_t> payload;
    encodeReject(RejectInfo{category, fatal, std::move(message)}, payload);
    appendReply(s, buildFrame(FrameType::Reject, requestId, payload));
    recordReject(s, category);
    if (fatal) {
      // Framing can no longer be trusted: stop reading, drop queued work
      // (its replies could interleave with a corrupt stream), flush the
      // reject, close. Other sessions are untouched.
      s.closing = true;
      discardPending(s);
      syncInterest(s);
      dumpFlightOnFatal();
    }
  }

  void sendReject(Session& s, std::uint32_t requestId, const ParseError& e) {
    sendReject(s, requestId, e.diagnostic().category, false,
               e.diagnostic().format());
  }

  /// The operator's post-mortem: on a fatal reject, persist what every
  /// thread was doing in the moments before framing was lost. Telemetry
  /// must never take the daemon down, so failures are swallowed.
  void dumpFlightOnFatal() {
    if (options.flightDir.empty()) {
      return;
    }
    try {
      std::filesystem::create_directories(options.flightDir);
      ++flightDumps;
      obs::writeFlightTrace(options.flightDir + "/robustd_flight_fatal_" +
                            std::to_string(flightDumps) + ".json");
    } catch (const std::exception&) {
    }
  }

  // --------------------------------------------------------- lifecycle

  void openListenSocket() {
    if (!options.unixPath.empty()) {
      sockaddr_un addr{};
      if (options.unixPath.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("robustd: unix socket path too long: " +
                                 options.unixPath);
      }
      listenFd = ::socket(AF_UNIX, kSocketFlags, 0);
      if (listenFd < 0) {
        throw std::runtime_error("robustd: socket() failed");
      }
      ::unlink(options.unixPath.c_str());
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, options.unixPath.c_str(),
                  options.unixPath.size() + 1);
      if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error("robustd: cannot bind unix socket '" +
                                 options.unixPath + "': " +
                                 std::strerror(errno));
      }
    } else {
      listenFd = ::socket(AF_INET, kSocketFlags, 0);
      if (listenFd < 0) {
        throw std::runtime_error("robustd: socket() failed");
      }
      const int one = 1;
      (void)::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(options.tcpPort);
      if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error(
            "robustd: cannot bind 127.0.0.1:" +
            std::to_string(options.tcpPort) + ": " + std::strerror(errno));
      }
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      (void)::getsockname(listenFd, reinterpret_cast<sockaddr*>(&bound),
                          &len);
      boundPort = ntohs(bound.sin_port);
    }
    if (::listen(listenFd, 128) != 0) {
      ::close(listenFd);
      listenFd = -1;
      throw std::runtime_error("robustd: listen() failed");
    }
  }

  void acceptAll() {
    for (;;) {
      const int fd = ::accept4(listenFd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        return;  // EAGAIN or transient error: nothing more to accept
      }
      auto session = std::make_unique<Session>();
      session->id = nextSessionId++;
      session->fd = fd;
      session->virtualTime = vtFloor;
      fdOfSession[session->id] = fd;
      watch(EPOLL_CTL_ADD, fd, true, false);
      sessions[fd] = std::move(session);
      {
        std::lock_guard lock(mutex);
        stats.sessionsOpened++;
        stats.sessionsActive++;
      }
      obsCount("net.sessions_opened");
    }
  }

  /// Final teardown of one session: report, unregister, close, reclaim.
  /// Pool work already dispatched for it completes into a dropped
  /// Completion (looked up by id, not pointer), so this is safe even with
  /// inflight != 0 on an unclean disconnect.
  void closeSession(Session& s, bool disconnected) {
    s.disconnected = s.disconnected || disconnected;
    if (!options.reportDir.empty()) {
      writeSessionReport(s, options.reportDir);
    }
    (void)::epoll_ctl(epfd, EPOLL_CTL_DEL, s.fd, nullptr);
    ::close(s.fd);
    fdOfSession.erase(s.id);
    const int fd = s.fd;
    {
      std::lock_guard lock(mutex);
      stats.sessionsClosed++;
      stats.sessionsActive--;
      if (disconnected) {
        stats.disconnects++;
      }
    }
    obsCount("net.sessions_closed");
    sessions.erase(fd);  // destroys s
  }

  void abortSession(Session& s) {
    discardPending(s);
    closeSession(s, /*disconnected=*/true);
  }

  /// Clean-close progress: once a closing session has drained its queue,
  /// emit the deferred BYE_OK (so it never overtakes queued results), and
  /// once the last reply byte is flushed, tear down.
  void maybeFinish(Session& s) {
    if (!s.closing) {
      return;
    }
    if (s.pending.empty() && s.inflight == 0 && s.byeRequestId) {
      std::vector<std::uint8_t> empty;
      appendReply(s, buildFrame(FrameType::ByeOk, *s.byeRequestId, empty));
      s.byeRequestId.reset();
    }
    if (s.pending.empty() && s.inflight == 0 && s.outBytes == 0 &&
        !s.byeRequestId) {
      closeSession(s, /*disconnected=*/false);
    }
  }

  // ------------------------------------------------------------- work

  /// Starts as much admitted work as the pool can hold, in weighted-fair
  /// order (admission.cpp).
  void dispatch() {
    while (poolBusy < pool.size()) {
      Session* chosen = pickNext(sessions);
      if (chosen == nullptr) {
        return;
      }
      Started next = startNext(*chosen, vtFloor);
      TenantTotals& totals = tenants[chosen->tenant];
      totals.virtualTime = std::max(totals.virtualTime, chosen->virtualTime);
      totals.chargedCost += next.charge;
      ++poolBusy;
      // std::function demands copyable callables; the work rides a
      // shared_ptr.
      auto work = std::make_shared<Work>(std::move(next.work));
      pool.submit([this, sessionId = chosen->id, work] {
        Completion done = runWork(*work, cache, options.limits);
        done.sessionId = sessionId;
        done.releasedBytes = work->bytes;
        {
          std::lock_guard lock(mutex);
          completions.push_back(std::move(done));
        }
        wake();
      });
    }
  }

  void drainCompletions() {
    std::vector<Completion> batch;
    {
      std::lock_guard lock(mutex);
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      --poolBusy;
      const auto fdIt = fdOfSession.find(done.sessionId);
      {
        std::lock_guard lock(mutex);
        stats.batches += done.batches;
        stats.instances += done.instances;
        stats.registers += done.registers;
        stats.cacheHits += done.cacheHit;
        stats.cacheMisses += done.cacheMiss;
        stats.cacheEvictions += done.cacheEvictions;
      }
      if (done.batches > 0) {
        obsCount("net.batches", done.batches);
        obsCount("net.instances", done.instances);
      }
      if (fdIt == fdOfSession.end()) {
        continue;  // session vanished mid-flight; the reply has no reader
      }
      Session& s = *sessions.at(fdIt->second);
      settleInflight(s, done.releasedBytes);
      s.batches += done.batches;
      s.instancesDone += done.instances;
      s.registersDone += done.registers;
      // Per-tenant ledger: pool work only exists after HELLO, so the
      // tenant name is always set here.
      TenantTotals& totals = tenants[s.tenant];
      totals.batches += done.batches;
      totals.instances += done.instances;
      totals.registers += done.registers;
      totals.cacheHits += done.cacheHit;
      totals.cacheMisses += done.cacheMiss;
      if (done.batches > 0 || done.registers > 0) {
        totals.queueLatency.record(done.queueNanos);
      }
      if (done.batches > 0) {
        totals.analyzeLatency.record(done.execNanos);
      }
      if (done.registers > 0) {
        totals.compileLatency.record(done.execNanos);
      }
      if (obs::enabled()) [[unlikely]] {
        if (done.batches > 0) {
          obs::addCounter(obs::counterId("net.instances", "tenant", s.tenant),
                          done.instances);
          obs::recordLatency(
              obs::histogramId("net.latency.analyze", "tenant", s.tenant),
              done.execNanos);
        }
        if (done.registers > 0) {
          obs::recordLatency(
              obs::histogramId("net.latency.compile", "tenant", s.tenant),
              done.execNanos);
        }
      }
      if (done.rejected) {
        recordReject(s, done.rejectCategory);
      }
      if (done.install) {
        s.problems[done.installKey] = std::move(done.install);
      }
      appendReply(s, std::move(done.frame));
      updatePause(s);
      maybeFinish(s);
    }
    dispatch();
  }

  // ------------------------------------------------------------ frames

  void handleFrame(Session& s, const FrameHeader& header,
                   std::span<const std::uint8_t> payload) {
    s.frames++;
    if (s.helloDone) {
      tenants[s.tenant].frames++;
    }
    {
      std::lock_guard lock(mutex);
      stats.framesHandled++;
    }
    obsCount("net.frames");
    if (obs::enabled()) [[unlikely]] {
      obs::addCounter(
          obs::counterId("net.frames", "type", frameNames(header.type).label));
    }
    if (obs::flightEnabled()) {
      // Instantaneous arrival marker, requestId-correlated: the dump shows
      // which wire request each queue wait / compile / analyze belongs to.
      obs::recordFlight(frameNames(header.type).flight, header.requestId,
                        obs::detail::nowNanos(), 0);
    }
    const Diagnostics diag("robustd:frame");
    switch (header.type) {
      case FrameType::Hello: {
        if (s.helloDone) {
          sendReject(s, header.requestId, RejectCategory::Structure, false,
                     "robustd: HELLO already completed on this connection");
          return;
        }
        try {
          const HelloRequest hello =
              decodeHello(payload, options.limits, diag);
          s.helloDone = true;
          s.tenant = hello.tenant;
          s.weight = hello.declaredDemand;
          s.virtualTime = std::max(s.virtualTime, vtFloor);
          TenantTotals& totals = tenants[s.tenant];
          totals.sessions++;
          totals.frames++;  // the HELLO frame itself, now attributable
          std::vector<std::uint8_t> reply;
          encodeHelloOk(s.id, reply);
          appendReply(s, buildFrame(FrameType::HelloOk, header.requestId,
                                    reply));
        } catch (const ParseError& e) {
          sendReject(s, header.requestId, e);
        }
        return;
      }
      case FrameType::Register: {
        if (!requireHello(s, header.requestId)) {
          return;
        }
        Work work;
        work.kind = Work::Kind::Register;
        work.requestId = header.requestId;
        work.specBytes.assign(payload.begin(), payload.end());
        work.bytes = payload.size();
        // Registration is charged by payload size (the only demand signal
        // available before decoding): one 4-KiB page of spec ~ one
        // instance of analysis.
        work.cost = 1.0 + static_cast<double>(payload.size()) / 4096.0;
        admit(s, std::move(work));
        return;
      }
      case FrameType::Analyze: {
        if (!requireHello(s, header.requestId)) {
          return;
        }
        try {
          const AnalyzeHead head =
              decodeAnalyzeHead(payload, options.limits, diag);
          const auto it = s.problems.find(head.key);
          if (it == s.problems.end()) {
            sendReject(s, header.requestId, RejectCategory::Structure, false,
                       "robustd: unknown problem key " +
                           std::to_string(head.key) +
                           " (REGISTER the spec on this connection first)");
            return;
          }
          const std::size_t dim = it->second->dimension();
          const std::size_t expect =
              kAnalyzeHeadBytes +
              static_cast<std::size_t>(head.instanceCount) * dim * 8;
          if (payload.size() != expect) {
            sendReject(s, header.requestId, RejectCategory::Structure, false,
                       "robustd: ANALYZE payload of " +
                           std::to_string(payload.size()) +
                           " bytes does not match " +
                           std::to_string(head.instanceCount) +
                           " instances of dimension " + std::to_string(dim) +
                           " (expected " + std::to_string(expect) + ")");
            return;
          }
          Work work;
          work.kind = Work::Kind::Analyze;
          work.requestId = header.requestId;
          work.problem = it->second;
          work.count = head.instanceCount;
          work.cost = static_cast<double>(head.instanceCount);
          work.bytes = payload.size();
          work.origins.resize(static_cast<std::size_t>(head.instanceCount) *
                              dim);
          std::memcpy(work.origins.data(),
                      payload.data() + kAnalyzeHeadBytes,
                      work.origins.size() * 8);
          admit(s, std::move(work));
        } catch (const ParseError& e) {
          sendReject(s, header.requestId, e);
        }
        return;
      }
      case FrameType::Bye: {
        s.closing = true;
        s.byeRequestId = header.requestId;
        syncInterest(s);
        maybeFinish(s);
        return;
      }
      case FrameType::Stats:
      case FrameType::TraceDump:
        handleAdmin(s, header, payload);
        return;
      default:
        sendReject(s, header.requestId, RejectCategory::Format, false,
                   "robustd: unexpected frame type 0x" +
                       std::to_string(static_cast<unsigned>(header.type)));
        return;
    }
  }

  /// STATS and TRACE_DUMP: answered inline on the IO thread — a snapshot
  /// is a read of state this thread already owns, so it never waits behind
  /// (or occupies) a pool worker, and no HELLO is required (a monitor is
  /// not a tenant).
  void handleAdmin(Session& s, const FrameHeader& header,
                   std::span<const std::uint8_t> payload) {
    try {
      (void)decodeAdminRequest(payload, Diagnostics("robustd:frame"));
    } catch (const ParseError& e) {
      sendReject(s, header.requestId, e);
      return;
    }
    const bool isStats = header.type == FrameType::Stats;
    std::string text;
    if (isStats) {
      {
        std::lock_guard lock(mutex);
        stats.statsRequests++;
      }
      text = statsJson();
    } else {
      text = drainFlightTrace(options.limits.maxFrameBytes);
    }
    if (text.size() > options.limits.maxFrameBytes) {
      sendReject(s, header.requestId, RejectCategory::Domain, false,
                 std::string(isStats ? "robustd: stats snapshot of "
                                     : "robustd: flight dump of ") +
                     std::to_string(text.size()) +
                     " bytes exceeds the frame cap");
      return;
    }
    if (!isStats) {
      std::lock_guard lock(mutex);
      stats.traceDumps++;
    }
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    appendReply(s, buildFrame(isStats ? FrameType::StatsOk
                                      : FrameType::TraceDumpOk,
                              header.requestId, bytes));
  }

  /// Runs on the IO thread, which owns the sessions and the tenant ledger,
  /// so the snapshot is internally consistent: every completed batch is
  /// either in the counters or not yet drained — never half-applied.
  std::string statsJson() {
    StatsGauges gauges{.poolWorkers = pool.size(),
                       .poolBusy = poolBusy,
                       .virtualTimeFloor = vtFloor,
                       .cacheEntries = cache.entries(),
                       .flightDumps = flightDumps};
    for (const auto& [fd, sp] : sessions) {
      gauges.pausedSessions += sp->paused ? 1 : 0;
    }
    return buildStatsJson(snapshot(), options, gauges, tenants);
  }

  bool requireHello(Session& s, std::uint32_t requestId) {
    if (s.helloDone) {
      return true;
    }
    sendReject(s, requestId, RejectCategory::Structure, false,
               "robustd: HELLO must precede every other frame");
    return false;
  }

  void admit(Session& s, Work&& work) {
    work.enqueueNanos = obs::detail::nowNanos();
    queueWork(s, std::move(work));
    noteBacklog(s);
    updatePause(s);
    dispatch();
  }

  void readFrom(Session& s) {
    char chunk[65536];
    while (!s.paused && !s.closing) {
      const ssize_t n = ::read(s.fd, chunk, sizeof(chunk));
      if (n > 0) {
        s.in.insert(s.in.end(), chunk, chunk + n);
        parseFrames(s);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      // Peer closed (n == 0) or the socket failed. A clean client said BYE
      // first; anything still queued or unread marks an unclean
      // disconnect. Either way the session is torn down now and nobody
      // else notices.
      abortSession(s);
      return;
    }
  }

  /// Handles every complete frame in the input buffer. A fatal reject
  /// keeps the session alive to flush it, but stops the parse.
  void parseFrames(Session& s) {
    while (!s.closing) {
      std::optional<Frame> frame;
      try {
        frame = nextFrame(s, options.limits);
      } catch (const ParseError& e) {
        sendReject(s, 0, e.diagnostic().category, true,
                   e.diagnostic().format());
        return;
      }
      if (!frame) {
        return;  // wait for the rest of the frame
      }
      if (!isClientFrameType(static_cast<std::uint8_t>(frame->header.type))) {
        // The stream is still framed; answer per-request and move on.
        sendReject(s, frame->header.requestId, RejectCategory::Format, false,
                   "robustd: frame type 0x" +
                       std::to_string(
                           static_cast<unsigned>(frame->header.type)) +
                       " is not a client request");
        continue;
      }
      handleFrame(s, frame->header, frame->payload);
    }
  }

  void flushTo(Session& s) {
    while (!s.out.empty()) {
      const std::vector<std::uint8_t>& front = s.out.front();
      const ssize_t n =
          ::write(s.fd, front.data() + s.outPos, front.size() - s.outPos);
      if (n > 0) {
        consumeWritten(s, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      abortSession(s);  // EPIPE / ECONNRESET: peer vanished
      return;
    }
    s.wantWrite = false;
    syncInterest(s);
    updatePause(s);
    maybeFinish(s);
  }

  // ------------------------------------------------------------ IO loop

  void ioLoop() {
    std::array<epoll_event, 64> events{};
    while (!stopping.load(std::memory_order_relaxed)) {
      const int n = ::epoll_wait(epfd, events.data(),
                                 static_cast<int>(events.size()), 200);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const std::uint32_t ready = events[i].events;
        if (fd == wakeFd) {
          drainWake();
          continue;
        }
        if (fd == listenFd) {
          acceptAll();
          continue;
        }
        const auto it = sessions.find(fd);
        if (it == sessions.end()) {
          continue;  // closed earlier this round
        }
        Session& s = *it->second;
        if ((ready & (EPOLLERR | EPOLLHUP)) != 0) {
          abortSession(s);
          continue;
        }
        if ((ready & EPOLLOUT) != 0) {
          flushTo(s);
        }
        // flushTo may have closed the session; re-find before reading.
        const auto again = sessions.find(fd);
        if (again == sessions.end() || (ready & EPOLLIN) == 0) {
          continue;
        }
        readFrom(*again->second);
      }
      drainCompletions();
    }
    shutdownSessions();
  }

  /// Stop-path teardown on the IO thread: let in-flight work finish (its
  /// replies are dropped), then close every session with a report.
  void shutdownSessions() {
    while (poolBusy > 0) {
      epoll_event ignored{};
      (void)::epoll_wait(epfd, &ignored, 1, 50);
      drainWake();
      std::lock_guard lock(mutex);
      poolBusy -= std::min(poolBusy, completions.size());
      completions.clear();
    }
    while (!sessions.empty()) {
      Session& s = *sessions.begin()->second;
      discardPending(s);
      closeSession(s, /*disconnected=*/false);
    }
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

void Server::start() {
  ROBUST_REQUIRE(!impl_->started, "robustd: server already started");
  if (impl_->epfd < 0) {
    impl_->epfd = ::epoll_create1(EPOLL_CLOEXEC);
    if (impl_->epfd < 0) {
      const int err = errno;
      throw std::system_error(err, std::generic_category(),
                              "robustd: epoll_create1() failed (errno " +
                                  std::to_string(err) + ")");
    }
  }
  impl_->openListenSocket();
  impl_->wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (impl_->wakeFd < 0) {
    ::close(impl_->listenFd);
    impl_->listenFd = -1;
    throw std::runtime_error("robustd: eventfd() failed");
  }
  impl_->watch(EPOLL_CTL_ADD, impl_->listenFd, true, false);
  impl_->watch(EPOLL_CTL_ADD, impl_->wakeFd, true, false);
  impl_->stopping.store(false);
  impl_->started = true;
  impl_->ioThread = std::thread([this] { impl_->ioLoop(); });
}

void Server::stop() {
  if (!impl_->started) {
    return;
  }
  impl_->stopping.store(true);
  impl_->wake();
  if (impl_->ioThread.joinable()) {
    impl_->ioThread.join();
  }
  try {
    impl_->pool.wait();
  } catch (const std::exception&) {
    // Worker exceptions were already answered as rejects; a stray one
    // must not escape shutdown.
  }
  if (impl_->listenFd >= 0) {
    ::close(impl_->listenFd);
    impl_->listenFd = -1;
  }
  if (impl_->wakeFd >= 0) {
    ::close(impl_->wakeFd);
    impl_->wakeFd = -1;
  }
  if (!impl_->options.unixPath.empty()) {
    ::unlink(impl_->options.unixPath.c_str());
  }
  impl_->started = false;
}

std::uint16_t Server::port() const noexcept { return impl_->boundPort; }

const std::string& Server::unixPath() const noexcept {
  return impl_->options.unixPath;
}

ServerStats Server::stats() const { return impl_->snapshot(); }

}  // namespace robust::net

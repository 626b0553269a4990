// robustd: the long-lived multi-tenant robustness-analysis daemon.
//
// Serves the wire protocol of robust/net/wire.hpp on a Unix socket or a
// loopback TCP port, sharing one compiled-problem cache and one compute
// pool across every connected tenant (DESIGN.md section 4.13).
//
//   robustd --unix /tmp/robustd.sock --workers 4 --report-dir reports/
//   robustd --port 0 --cache 32          # ephemeral port, printed on start
//
// SIGINT/SIGTERM trigger a graceful stop: in-flight batches finish, every
// session's run report is written, and the process exits 0 only when the
// session ledger balances (opened == closed, none active) — a leaked
// session is an exit-code-visible bug, which is what the CI soak leg
// checks after driving the daemon with robustd_load.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "robust/net/server.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/report.hpp"
#include "robust/obs/trace.hpp"
#include "robust/util/args.hpp"
#include "robust/util/diagnostics.hpp"
#include "robust/util/error.hpp"

namespace {

volatile std::sig_atomic_t gStopRequested = 0;

void onSignal(int) { gStopRequested = 1; }

void printUsage() {
  std::puts(
      "robustd -- multi-tenant FePIA robustness analysis daemon\n"
      "\n"
      "  --unix PATH       listen on a Unix-domain socket (unlinked on exit)\n"
      "  --port N          listen on 127.0.0.1:N (0 = ephemeral; default)\n"
      "  --workers N       compute threads (0 = ROBUST_THREADS/hardware)\n"
      "  --cache N         shared CompiledProblem LRU capacity (default 64)\n"
      "  --max-inflight B  per-connection backpressure bound in bytes\n"
      "  --report-dir DIR  write per-session run reports here\n"
      "  --report PATH     write the daemon's own run report on exit\n"
      "  --flight-dir DIR  dump the flight recorder here on fatal rejects\n"
      "                    and on a session-ledger imbalance at exit\n"
      "  --flight N        flight-recorder ring capacity per thread\n"
      "                    (default 512, at most 65536; 0 disables;\n"
      "                    ROBUST_FLIGHT env too)\n"
      "  --help            this text\n"
      "\n"
      "Unknown options are rejected (exit 2).");
}

}  // namespace

int main(int argc, char** argv) try {
  const robust::ArgParser args(argc, argv);
  if (args.has("help")) {
    printUsage();
    return 0;
  }

  robust::net::ServerOptions options;
  options.unixPath = args.getString("unix", "");
  options.tcpPort = static_cast<std::uint16_t>(args.getInt("port", 0));
  options.workers = static_cast<std::size_t>(args.getInt("workers", 0));
  options.cacheCapacity = static_cast<std::size_t>(args.getInt("cache", 64));
  options.maxInflightBytes =
      static_cast<std::size_t>(args.getInt("max-inflight", 4 << 20));
  options.reportDir = args.getString("report-dir", "");
  options.flightDir = args.getString("flight-dir", "");
  const std::string reportPath = args.getString("report", "");
  const std::int64_t flightCap = args.getInt(
      "flight", static_cast<std::int64_t>(robust::obs::flightCapacity()));
  if (const auto unknown = args.unknownOptions(); !unknown.empty()) {
    std::fprintf(stderr, "robustd: unknown option --%s (see --help)\n",
                 unknown.front().c_str());
    return 2;
  }
  if (flightCap < 0 || static_cast<std::uint64_t>(flightCap) >
                           robust::obs::kMaxRecordsPerThread) {
    std::fprintf(stderr, "robustd: --flight must be in 0..%zu\n",
                 robust::obs::kMaxRecordsPerThread);
    return 2;
  }
  robust::obs::setFlightCapacity(static_cast<std::size_t>(flightCap));

  robust::net::Server server(std::move(options));
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "robustd: %s\n", e.what());
    return 2;
  }

  if (!server.unixPath().empty()) {
    std::printf("robustd: listening on unix:%s\n", server.unixPath().c_str());
  } else {
    std::printf("robustd: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
  }
  std::fflush(stdout);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);  // peer disconnects surface as EPIPE

  while (gStopRequested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();

  const robust::net::ServerStats stats = server.stats();
  std::printf(
      "robustd: sessions %llu opened / %llu closed, %llu frames, %llu "
      "batches (%llu instances), %llu registers (%llu cache hits), %llu "
      "rejects, %llu disconnects, %llu backpressure stalls\n",
      static_cast<unsigned long long>(stats.sessionsOpened),
      static_cast<unsigned long long>(stats.sessionsClosed),
      static_cast<unsigned long long>(stats.framesHandled),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.instances),
      static_cast<unsigned long long>(stats.registers),
      static_cast<unsigned long long>(stats.cacheHits),
      static_cast<unsigned long long>(stats.rejectsTotal()),
      static_cast<unsigned long long>(stats.disconnects),
      static_cast<unsigned long long>(stats.backpressureStalls));

  if (!reportPath.empty()) {
    robust::obs::RunReport report;
    report.tool = "robustd";
    report.includeMetrics = true;
    const auto count = [&report](const char* name, std::uint64_t v) {
      report.benchmarks.push_back(
          robust::obs::BenchResult{name, static_cast<double>(v), "count"});
    };
    count("sessions_opened", stats.sessionsOpened);
    count("sessions_closed", stats.sessionsClosed);
    count("sessions_active", stats.sessionsActive);
    count("frames", stats.framesHandled);
    count("batches", stats.batches);
    count("instances", stats.instances);
    count("registers", stats.registers);
    count("cache_hits", stats.cacheHits);
    count("cache_misses", stats.cacheMisses);
    count("cache_evictions", stats.cacheEvictions);
    count("backpressure_stalls", stats.backpressureStalls);
    count("disconnects", stats.disconnects);
    for (std::size_t c = 0; c < robust::util::kRejectCategoryCount; ++c) {
      count((std::string("rejects_") +
             robust::util::rejectCategoryName(
                 static_cast<robust::util::RejectCategory>(c)))
                .c_str(),
            stats.rejects[c]);
    }
    try {
      robust::obs::writeRunReport(reportPath, report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "robustd: cannot write report: %s\n", e.what());
      return 2;
    }
  }

  if (stats.sessionsActive != 0 ||
      stats.sessionsOpened != stats.sessionsClosed) {
    std::fprintf(stderr,
                 "robustd: session leak: %llu active, %llu opened vs %llu "
                 "closed\n",
                 static_cast<unsigned long long>(stats.sessionsActive),
                 static_cast<unsigned long long>(stats.sessionsOpened),
                 static_cast<unsigned long long>(stats.sessionsClosed));
    const std::string flightDir = args.getString("flight-dir", "");
    if (!flightDir.empty()) {
      const std::string path = flightDir + "/robustd_flight_ledger.json";
      try {
        std::filesystem::create_directories(flightDir);
        robust::obs::writeFlightTrace(path);
        std::fprintf(stderr, "robustd: flight recorder dumped to %s\n",
                     path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "robustd: cannot dump flight recorder: %s\n",
                     e.what());
      }
    }
    return 3;
  }
  return 0;
} catch (const robust::InvalidArgumentError& e) {
  // A malformed command line (e.g. "--workers abc").
  std::fprintf(stderr, "robustd: %s\n", e.what());
  return 2;
}

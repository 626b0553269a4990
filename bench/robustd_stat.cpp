// robustd_stat: live introspection CLI for a running robustd daemon.
//
// Sends STATS admin frames (no HELLO handshake needed) and renders the
// schema-versioned robust.stats document as an operator-readable table:
// server totals, cache effectiveness, backpressure high-water, categorized
// rejects, and one row per tenant with p50/p95/p99 analyze latency.
//
//   robustd_stat --unix /tmp/robustd.sock             # one snapshot
//   robustd_stat --port 7411 --watch 2                # poll every 2 s,
//                                                     # print rate diffs
//   robustd_stat --unix S --json stats.json           # save raw document
//   robustd_stat --unix S --trace-dump trace.json     # drain the flight
//                                                     # recorder instead
//
// --watch mode diffs consecutive snapshots and prints frames/s,
// instances/s, and cache hit-rate over each interval, which is what the CI
// soak leg tails while robustd_load hammers the daemon. Exit status: 0 on
// success, 1 on a runtime failure (no daemon, transport error), 2 on a
// malformed command line, 3 when the reply does not parse as the expected
// schema.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "robust/net/client.hpp"
#include "robust/net/wire.hpp"
#include "robust/obs/json_lite.hpp"
#include "robust/util/args.hpp"

namespace {

using robust::obs::json::Value;

std::uint64_t numField(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return (v != nullptr && v->isNumber()) ? static_cast<std::uint64_t>(v->number)
                                         : 0;
}

double doubleField(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  return (v != nullptr && v->isNumber()) ? v->number : 0.0;
}

void printUsage() {
  std::puts(
      "robustd_stat -- poll a running robustd for live statistics\n"
      "\n"
      "  --unix PATH        connect to a Unix-domain robustd socket\n"
      "  --port N           connect to 127.0.0.1:N\n"
      "  --watch SEC        poll every SEC seconds, printing rate diffs\n"
      "  --count N          stop after N polls (watch mode; default: forever)\n"
      "  --json PATH        also write the latest raw robust.stats JSON here\n"
      "  --trace-dump PATH  send TRACE_DUMP instead: drain the daemon's\n"
      "                     flight recorder into a Chrome trace file\n"
      "  --help             this text");
}

/// One rendered snapshot. Numbers we diff in watch mode are pulled out.
struct Snapshot {
  std::uint64_t frames = 0;
  std::uint64_t instances = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::chrono::steady_clock::time_point when;
};

void printLatency(const Value& tenant) {
  const Value* latency = tenant.find("latency");
  const Value* analyze = latency != nullptr ? latency->find("analyze") : nullptr;
  if (analyze == nullptr || numField(*analyze, "count") == 0) {
    std::printf("        -         -         -");
    return;
  }
  std::printf("  %7.2fms %7.2fms %7.2fms",
              static_cast<double>(numField(*analyze, "p50_nanos")) / 1e6,
              static_cast<double>(numField(*analyze, "p95_nanos")) / 1e6,
              static_cast<double>(numField(*analyze, "p99_nanos")) / 1e6);
}

Snapshot render(const Value& doc, const Snapshot* prev) {
  Snapshot snap;
  snap.when = std::chrono::steady_clock::now();

  const Value* server = doc.find("server");
  const Value* cache = doc.find("cache");
  const Value* back = doc.find("backpressure");
  const Value* rejects = doc.find("rejects");
  const Value* tenants = doc.find("tenants");
  const Value* flight = doc.find("flight");
  if (server == nullptr || cache == nullptr || back == nullptr ||
      rejects == nullptr || tenants == nullptr || flight == nullptr) {
    throw std::runtime_error("robust.stats document is missing sections");
  }

  snap.frames = numField(*server, "frames");
  snap.instances = numField(*server, "instances");
  snap.cacheHits = numField(*cache, "hits");
  snap.cacheMisses = numField(*cache, "misses");

  std::printf(
      "sessions %" PRIu64 " active / %" PRIu64 " opened   frames %" PRIu64
      "   batches %" PRIu64 "   instances %" PRIu64 "   registers %" PRIu64
      "\n",
      numField(*server, "sessions_active"), numField(*server, "sessions_opened"),
      snap.frames, numField(*server, "batches"), snap.instances,
      numField(*server, "registers"));
  std::printf(
      "pool %" PRIu64 "/%" PRIu64 " busy   vt floor %.3f   cache %" PRIu64
      "/%" PRIu64 " entries, %" PRIu64 " hit / %" PRIu64 " miss / %" PRIu64
      " evicted\n",
      numField(*server, "pool_busy"), numField(*server, "pool_workers"),
      doubleField(*server, "virtual_time_floor"), numField(*cache, "entries"),
      numField(*cache, "capacity"), snap.cacheHits, snap.cacheMisses,
      numField(*cache, "evictions"));
  std::printf(
      "backpressure %" PRIu64 " stalls, high water %" PRIu64 "/%" PRIu64
      " bytes, %" PRIu64 " paused   rejects %" PRIu64 "   flight %" PRIu64
      "/%" PRIu64 " records, %" PRIu64 " dumps\n",
      numField(*back, "stalls"), numField(*back, "backlog_high_water_bytes"),
      numField(*back, "max_inflight_bytes"), numField(*back, "paused_sessions"),
      numField(*rejects, "total"), numField(*flight, "records"),
      numField(*flight, "capacity"), numField(*flight, "dumps"));

  if (!tenants->object.empty()) {
    std::printf("%-20s %8s %8s %10s %9s %9s %9s %9s %9s\n", "tenant", "frames",
                "batches", "instances", "vt", "chg.cost", "p50", "p95", "p99");
    for (const auto& [name, t] : tenants->object) {
      std::printf("%-20s %8" PRIu64 " %8" PRIu64 " %10" PRIu64 " %9.2f %9.0f",
                  name.c_str(), numField(t, "frames"), numField(t, "batches"),
                  numField(t, "instances"), doubleField(t, "virtual_time"),
                  doubleField(t, "charged_cost"));
      printLatency(t);
      std::printf("\n");
    }
  }

  if (prev != nullptr) {
    const double dt =
        std::chrono::duration<double>(snap.when - prev->when).count();
    if (dt > 0) {
      const std::uint64_t dHits = snap.cacheHits - prev->cacheHits;
      const std::uint64_t dMisses = snap.cacheMisses - prev->cacheMisses;
      const std::uint64_t dLookups = dHits + dMisses;
      std::printf(
          "rates: %.1f frames/s, %.1f instances/s, cache hit %.0f%% over "
          "%.1fs\n",
          static_cast<double>(snap.frames - prev->frames) / dt,
          static_cast<double>(snap.instances - prev->instances) / dt,
          dLookups == 0
              ? 0.0
              : 100.0 * static_cast<double>(dHits) / static_cast<double>(dLookups),
          dt);
    }
  }
  return snap;
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out << text;
  if (!out.flush()) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const robust::ArgParser args(argc, argv);
  if (args.has("help")) {
    printUsage();
    return 0;
  }
  const std::string unixPath = args.getString("unix", "");
  const std::uint16_t port = static_cast<std::uint16_t>(args.getInt("port", 0));
  const double watchSeconds = args.getDouble("watch", 0.0);
  const std::int64_t count = args.getInt("count", 0);
  const std::string jsonPath = args.getString("json", "");
  const std::string tracePath = args.getString("trace-dump", "");
  args.rejectUnknownOptions("robustd_stat");

  if (unixPath.empty() && port == 0) {
    std::fprintf(stderr, "robustd_stat: need --unix PATH or --port N\n");
    printUsage();
    return 2;
  }

  try {
    robust::net::Client client;
    if (!unixPath.empty()) {
      client.connectUnix(unixPath);
    } else {
      client.connectTcp(port);
    }

    if (!tracePath.empty()) {
      const std::string trace = client.traceDump();
      // Sanity-parse before writing: a daemon answering with garbage should
      // exit 3, not silently produce an unloadable trace file.
      (void)robust::obs::json::parse(trace);
      writeFile(tracePath, trace);
      std::printf("robustd_stat: flight recorder drained to %s (%zu bytes)\n",
                  tracePath.c_str(), trace.size());
      return 0;
    }

    Snapshot prev;
    bool havePrev = false;
    std::int64_t polls = 0;
    for (;;) {
      const std::string text = client.stats();
      const Value doc = robust::obs::json::parse(text);
      const Value* schema = doc.find("schema");
      const Value* version = doc.find("schema_version");
      if (schema == nullptr || !schema->isString() ||
          schema->string != robust::net::kStatsSchemaName ||
          version == nullptr ||
          static_cast<std::uint32_t>(version->number) !=
              robust::net::kStatsSchemaVersion) {
        std::fprintf(stderr,
                     "robustd_stat: reply is not a robust.stats v%u document\n",
                     robust::net::kStatsSchemaVersion);
        return 3;
      }
      if (!jsonPath.empty()) {
        writeFile(jsonPath, text);
      }
      prev = render(doc, havePrev ? &prev : nullptr);
      havePrev = true;
      ++polls;
      if (watchSeconds <= 0 || (count > 0 && polls >= count)) {
        break;
      }
      std::printf("\n");
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::duration<double>(watchSeconds));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "robustd_stat: %s\n", e.what());
    return 1;
  }
} catch (...) {
  return robust::harnessFailure("robustd_stat");
}

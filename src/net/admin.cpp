#include "daemon.hpp"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>

#include "robust/obs/json_lite.hpp"
#include "robust/obs/report.hpp"
#include "robust/obs/trace.hpp"

namespace robust::net {

namespace {

using util::RejectCategory;

/// Appends `"key":`, comma-separated unless it opens an object.
void putKey(std::string& out, std::string_view key) {
  out += out.back() == '{' ? "\"" : ",\"";
  out += key;
  out += "\":";
}

void put(std::string& out, const char* key, std::uint64_t v) {
  putKey(out, key);
  out += std::to_string(v);
}

void put(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  putKey(out, key);
  out += buf;
}

void putDigest(std::string& out, const char* key,
               const LatencyDigest& digest) {
  putKey(out, key);
  out += '{';
  put(out, "count", digest.count);
  put(out, "sum_nanos", digest.sumNanos);
  for (const auto& [name, q] : {std::pair{"p50_nanos", 0.50},
                                std::pair{"p95_nanos", 0.95},
                                std::pair{"p99_nanos", 0.99}}) {
    put(out, name,
        static_cast<std::uint64_t>(digest.quantileUpperNanos(q)));
  }
  out += '}';
}

}  // namespace

std::string buildStatsJson(const ServerStats& st, const ServerOptions& options,
                           const StatsGauges& gauges,
                           const std::map<std::string, TenantTotals>& tenants) {
  std::string out;
  out.reserve(1024 + tenants.size() * 640);
  out += "{\"schema\":\"";
  out += kStatsSchemaName;
  out += '"';
  put(out, "schema_version", std::uint64_t{kStatsSchemaVersion});
  out += ",\"tool\":\"robustd\"";

  out += ",\"server\":{";
  put(out, "sessions_opened", st.sessionsOpened);
  put(out, "sessions_closed", st.sessionsClosed);
  put(out, "sessions_active", st.sessionsActive);
  put(out, "frames", st.framesHandled);
  put(out, "batches", st.batches);
  put(out, "instances", st.instances);
  put(out, "registers", st.registers);
  put(out, "disconnects", st.disconnects);
  put(out, "stats_requests", st.statsRequests);
  put(out, "trace_dumps", st.traceDumps);
  put(out, "pool_workers", std::uint64_t{gauges.poolWorkers});
  put(out, "pool_busy", std::uint64_t{gauges.poolBusy});
  put(out, "virtual_time_floor", gauges.virtualTimeFloor);
  out += '}';

  out += ",\"cache\":{";
  put(out, "hits", st.cacheHits);
  put(out, "misses", st.cacheMisses);
  put(out, "evictions", st.cacheEvictions);
  put(out, "entries", std::uint64_t{gauges.cacheEntries});
  put(out, "capacity", std::uint64_t{options.cacheCapacity});
  out += '}';

  out += ",\"backpressure\":{";
  put(out, "stalls", st.backpressureStalls);
  put(out, "max_inflight_bytes", std::uint64_t{options.maxInflightBytes});
  put(out, "backlog_high_water_bytes", st.backlogHighWaterBytes);
  put(out, "paused_sessions", std::uint64_t{gauges.pausedSessions});
  out += '}';

  out += ",\"rejects\":{";
  for (std::size_t c = 0; c < util::kRejectCategoryCount; ++c) {
    put(out, util::rejectCategoryName(static_cast<RejectCategory>(c)),
        st.rejects[c]);
  }
  put(out, "total", st.rejectsTotal());
  out += '}';

  out += ",\"tenants\":{";
  for (const auto& [name, totals] : tenants) {
    putKey(out, obs::json::escape(name));
    out += '{';
    put(out, "sessions", totals.sessions);
    put(out, "frames", totals.frames);
    put(out, "batches", totals.batches);
    put(out, "instances", totals.instances);
    put(out, "registers", totals.registers);
    put(out, "cache_hits", totals.cacheHits);
    put(out, "cache_misses", totals.cacheMisses);
    std::uint64_t rejectsTotal = 0;
    for (std::uint64_t v : totals.rejects) {
      rejectsTotal += v;
    }
    put(out, "rejects_total", rejectsTotal);
    put(out, "virtual_time", totals.virtualTime);
    put(out, "charged_cost", totals.chargedCost);
    out += ",\"latency\":{";
    putDigest(out, "analyze", totals.analyzeLatency);
    putDigest(out, "compile", totals.compileLatency);
    putDigest(out, "queue", totals.queueLatency);
    out += "}}";
  }
  out += '}';

  out += ",\"flight\":{";
  put(out, "records", obs::flightRecordCount());
  put(out, "capacity", std::uint64_t{obs::flightCapacity()});
  put(out, "dumps", gauges.flightDumps);
  out += "}}";
  return out;
}

std::string drainFlightTrace(std::size_t maxBytes) {
  std::ostringstream dump;
  obs::writeFlightTrace(dump);
  std::string text = dump.str();
  if (text.size() <= maxBytes) {
    obs::clearFlight();
  }
  return text;
}

void writeSessionReport(const Session& s, const std::string& dir) {
  try {
    std::filesystem::create_directories(dir);
    obs::RunReport report;
    report.tool = "robustd";
    // report_check requires the metrics section even when obs is off (it
    // is empty then), so always emit it.
    report.includeMetrics = true;
    report.info.emplace_back("session", std::to_string(s.id));
    report.info.emplace_back("tenant", s.tenant);
    report.info.emplace_back("declared_demand", std::to_string(s.weight));
    report.info.emplace_back("close", s.disconnected ? "disconnect" : "clean");
    const auto count = [&report](std::string name, std::uint64_t v) {
      report.benchmarks.push_back(
          obs::BenchResult{std::move(name), static_cast<double>(v), "count"});
    };
    count("frames", s.frames);
    count("batches", s.batches);
    count("instances", s.instancesDone);
    count("registers", s.registersDone);
    report.benchmarks.push_back(obs::BenchResult{
        "charged_cost", s.chargedCost, "instances_per_weight"});
    for (std::size_t c = 0; c < util::kRejectCategoryCount; ++c) {
      count(std::string("rejects_") +
                util::rejectCategoryName(static_cast<RejectCategory>(c)),
            s.rejects[c]);
    }
    obs::writeRunReport(
        dir + "/robustd_session_" + std::to_string(s.id) + ".json", report);
  } catch (const std::exception&) {
  }
}

}  // namespace robust::net

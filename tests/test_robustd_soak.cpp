// In-process soak of the robustd daemon: N concurrent tenants stream
// batches whose answers must be bit-identical to the offline lane while
// saboteur connections inject malformed frames and abrupt disconnects.
// Afterwards the session ledger must balance exactly — zero leaked
// sessions — and no fair tenant may have seen a single wrong bit.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "robust/core/compiled.hpp"
#include "robust/net/client.hpp"
#include "robust/net/server.hpp"
#include "robust/net/wire.hpp"
#include "robust/obs/json_lite.hpp"
#include "robust/obs/trace.hpp"
#include "robust/util/rng.hpp"

namespace {

using robust::core::AnalysisInstance;
using robust::core::CompiledProblem;
using robust::core::ImpactFunction;
using robust::core::LinearConstraint;
using robust::core::MetricResult;
using robust::core::PerformanceFeature;
using robust::core::ProblemSpec;
using robust::core::ToleranceBounds;
using robust::net::Client;
using robust::net::FrameHeader;
using robust::net::FrameType;
using robust::net::Server;
using robust::net::ServerOptions;
using robust::net::ServerStats;
using robust::net::WireResult;

constexpr std::size_t kDim = 12;
constexpr std::size_t kFeatures = 5;

/// Deterministic spec family shared with a locally compiled oracle. Odd
/// families carry a hard constraint so infeasible-origin classification
/// is part of the soak.
ProblemSpec makeSpec(std::uint64_t family) {
  auto rng = robust::makeStream(2026, 500 + family);
  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin.resize(kDim);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(1.0, 3.0);
  }
  for (std::size_t f = 0; f < kFeatures; ++f) {
    robust::num::Vec weights(kDim);
    for (double& w : weights) {
      w = rng.uniform(0.2, 1.5);
    }
    const double constant = rng.uniform(-0.5, 0.5);
    double phi = constant;
    for (std::size_t j = 0; j < kDim; ++j) {
      phi += weights[j] * spec.parameter.origin[j];
    }
    const double slack = rng.uniform(1.0, 4.0);
    spec.features.push_back(PerformanceFeature{
        "phi_" + std::to_string(f),
        ImpactFunction::affine(std::move(weights), constant),
        ToleranceBounds::between(phi - slack, phi + slack)});
  }
  if (family % 2 == 1) {
    LinearConstraint budget;
    budget.name = "budget";
    budget.coeffs.assign(kDim, 1.0);
    double load = 0.0;
    for (double v : spec.parameter.origin) {
      load += v;
    }
    budget.bound = 1.02 * load;
    spec.constraints.push_back(std::move(budget));
  }
  return spec;
}

std::vector<double> makeBatch(const ProblemSpec& spec, std::uint64_t tenant,
                              std::size_t batch, std::size_t instances) {
  auto rng = robust::makeStream(2026, tenant * 1000 + batch);
  std::vector<double> origins(instances * kDim);
  for (std::size_t i = 0; i < instances; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      origins[i * kDim + j] =
          spec.parameter.origin[j] + rng.uniform(-0.4, 0.4);
    }
  }
  return origins;
}

std::vector<WireResult> offline(const CompiledProblem& problem,
                                const std::vector<double>& origins,
                                std::size_t instances) {
  std::vector<AnalysisInstance> batch(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    batch[i].origin =
        std::span<const double>(origins.data() + i * kDim, kDim);
  }
  const std::vector<MetricResult> metrics =
      problem.analyzeBatchMetric(batch, /*threads=*/1);
  std::vector<WireResult> expect(instances);
  const bool constrained = !problem.constraints().empty();
  for (std::size_t i = 0; i < instances; ++i) {
    expect[i].rho = metrics[i].metric;
    expect[i].bindingFeature =
        static_cast<std::uint32_t>(metrics[i].bindingFeature);
    expect[i].floored = metrics[i].floored;
    expect[i].infeasibleOrigin =
        constrained && !problem.originFeasible(batch[i].origin);
  }
  return expect;
}

std::uint64_t bitCompare(const std::vector<WireResult>& got,
                         const std::vector<WireResult>& expect) {
  EXPECT_EQ(got.size(), expect.size());
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < got.size() && i < expect.size(); ++i) {
    const bool same =
        std::memcmp(&got[i].rho, &expect[i].rho, sizeof(double)) == 0 &&
        got[i].bindingFeature == expect[i].bindingFeature &&
        got[i].floored == expect[i].floored &&
        got[i].infeasibleOrigin == expect[i].infeasibleOrigin;
    if (!same) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// One fair tenant: register, stream, verify, BYE.
std::uint64_t runTenant(std::uint16_t port, std::uint64_t tenant,
                        std::size_t batches, std::size_t instances) {
  const std::uint64_t family = tenant % 3;
  const ProblemSpec spec = makeSpec(family);
  const CompiledProblem oracle = CompiledProblem::compile(makeSpec(family));

  Client client;
  client.connectTcp(port);
  client.hello("tenant" + std::to_string(tenant),
               static_cast<std::uint32_t>(instances));
  const robust::net::RegisterReply reg = client.registerProblem(spec);

  std::uint64_t mismatches = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::vector<double> origins =
        makeBatch(spec, tenant, b, instances);
    const std::vector<WireResult> got = client.analyze(
        reg.key, static_cast<std::uint32_t>(instances), origins);
    mismatches += bitCompare(got, offline(oracle, origins, instances));
  }
  client.bye();
  return mismatches;
}

ServerStats waitForBalance(Server& server) {
  // Unclean disconnects are torn down asynchronously by the IO thread;
  // give it a moment before asserting the ledger.
  ServerStats stats = server.stats();
  for (int i = 0; i < 100 && stats.sessionsActive != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stats = server.stats();
  }
  return stats;
}

TEST(RobustdSoak, TenantsStayBitIdenticalUnderChaos) {
  ServerOptions options;
  options.tcpPort = 0;
  options.workers = 2;
  options.cacheCapacity = 8;
  Server server(std::move(options));
  server.start();
  const std::uint16_t port = server.port();

  constexpr std::size_t kTenants = 5;
  constexpr std::size_t kBatches = 4;
  constexpr std::size_t kInstances = 32;

  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<int> tenantFailures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      try {
        mismatches += runTenant(port, t, kBatches, kInstances);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "tenant " << t << ": " << e.what();
        ++tenantFailures;
      }
    });
  }
  // Saboteur 1: garbage bytes. Expect a fatal categorized reject.
  threads.emplace_back([port] {
    Client chaos;
    chaos.connectTcp(port);
    const std::uint8_t garbage[24] = {0xba, 0xad, 0xf0, 0x0d};
    chaos.sendRaw(garbage);
    auto [header, payload] = chaos.readFrame();
    EXPECT_EQ(header.type, FrameType::Reject);
    const robust::util::Diagnostics diag("chaos");
    const robust::net::RejectInfo info =
        robust::net::decodeReject(payload, diag);
    EXPECT_TRUE(info.fatal);
    EXPECT_EQ(info.category, robust::util::RejectCategory::Format);
    chaos.closeNow();
  });
  // Saboteur 2: valid HELLO, then vanish mid-frame.
  threads.emplace_back([port] {
    Client chaos;
    chaos.connectTcp(port);
    chaos.hello("saboteur", 1);
    std::vector<std::uint8_t> partial;
    robust::net::encodeFrameHeader(
        FrameHeader{robust::net::kProtocolVersion, FrameType::Analyze,
                    1u << 16, 99},
        partial);
    partial.resize(partial.size() + 8, 0);
    chaos.sendRaw(partial);
    chaos.closeNow();
  });
  for (std::thread& th : threads) {
    th.join();
  }

  const ServerStats stats = waitForBalance(server);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(tenantFailures.load(), 0);
  EXPECT_EQ(stats.sessionsActive, 0u) << "leaked sessions";
  EXPECT_EQ(stats.sessionsOpened, stats.sessionsClosed);
  EXPECT_EQ(stats.sessionsOpened, kTenants + 2);
  EXPECT_EQ(stats.batches, kTenants * kBatches);
  EXPECT_EQ(stats.instances, kTenants * kBatches * kInstances);
  // The garbage saboteur drew a Format reject; at least one unclean
  // disconnect was recorded.
  EXPECT_GE(stats.rejects[static_cast<std::size_t>(
                robust::util::RejectCategory::Format)],
            1u);
  EXPECT_GE(stats.disconnects, 1u);
  // 3 spec families across 5 tenants: 3 misses, 2 cross-tenant hits.
  EXPECT_EQ(stats.cacheMisses, 3u);
  EXPECT_EQ(stats.cacheHits, 2u);
  server.stop();
}

TEST(RobustdSoak, EvictedSpecsStayUsableForSessionsThatPinnedThem) {
  ServerOptions options;
  options.tcpPort = 0;
  options.workers = 1;
  options.cacheCapacity = 1;  // every new spec evicts the previous one
  Server server(std::move(options));
  server.start();
  const std::uint16_t port = server.port();

  const ProblemSpec spec0 = makeSpec(0);
  const CompiledProblem oracle0 = CompiledProblem::compile(makeSpec(0));

  Client a;
  a.connectTcp(port);
  a.hello("pinner", 1);
  const robust::net::RegisterReply reg0 = a.registerProblem(spec0);
  EXPECT_FALSE(reg0.fromCache);

  // Another session churns the 1-entry cache past spec0.
  Client b;
  b.connectTcp(port);
  b.hello("churner", 1);
  (void)b.registerProblem(makeSpec(1));
  (void)b.registerProblem(makeSpec(2));

  // Session a's key must still answer — the entry is pinned by the
  // session, eviction only ended cross-tenant sharing.
  const std::vector<double> origins = makeBatch(spec0, 7, 0, 8);
  const std::vector<WireResult> got = a.analyze(reg0.key, 8, origins);
  EXPECT_EQ(bitCompare(got, offline(oracle0, origins, 8)), 0u);

  a.bye();
  b.bye();
  const ServerStats stats = waitForBalance(server);
  EXPECT_EQ(stats.sessionsActive, 0u);
  EXPECT_GE(stats.cacheEvictions, 1u);
  server.stop();
}

TEST(RobustdSoak, BackpressureDefersReadsWithoutCorruptingReplies) {
  ServerOptions options;
  options.tcpPort = 0;
  options.workers = 1;
  options.maxInflightBytes = 2048;  // a couple of batches trip the bound
  Server server(std::move(options));
  server.start();

  const ProblemSpec spec = makeSpec(0);
  const CompiledProblem oracle = CompiledProblem::compile(makeSpec(0));

  Client client;
  client.connectTcp(server.port());
  client.hello("firehose", 4);
  const robust::net::RegisterReply reg = client.registerProblem(spec);

  // Pipeline many ANALYZE frames without reading a single reply; the
  // server must defer reads instead of buffering unboundedly, then answer
  // every request in order with the offline bits. All frames go out in
  // one write (under 40 KiB, below the server's 64 KiB read chunk), so one
  // read pass parses them all. Backlog is settled only when the IO thread
  // drains a completion, after that pass, so the 2048-byte bound trips
  // however fast the worker runs.
  constexpr std::size_t kPipelined = 24;
  constexpr std::size_t kInstances = 16;
  std::vector<std::vector<double>> batches;
  std::vector<std::uint8_t> pipeline;
  for (std::size_t b = 0; b < kPipelined; ++b) {
    batches.push_back(makeBatch(spec, 99, b, kInstances));
    std::vector<std::uint8_t> payload;
    robust::net::encodeAnalyze(reg.key,
                               static_cast<std::uint32_t>(kInstances),
                               batches.back(), payload);
    const std::vector<std::uint8_t> frame = robust::net::buildFrame(
        FrameType::Analyze, static_cast<std::uint32_t>(1000 + b), payload);
    pipeline.insert(pipeline.end(), frame.begin(), frame.end());
  }
  client.sendRaw(pipeline);
  const robust::util::Diagnostics diag("soak");
  const robust::net::WireLimits limits;
  for (std::size_t b = 0; b < kPipelined; ++b) {
    auto [header, payload] = client.readFrame();
    ASSERT_EQ(header.type, FrameType::Result) << "batch " << b;
    EXPECT_EQ(header.requestId, 1000 + b) << "replies out of order";
    const std::vector<WireResult> got =
        robust::net::decodeResult(payload, limits, diag);
    EXPECT_EQ(bitCompare(got, offline(oracle, batches[b], kInstances)), 0u)
        << "batch " << b;
  }
  client.bye();

  const ServerStats stats = waitForBalance(server);
  EXPECT_EQ(stats.sessionsActive, 0u);
  EXPECT_GE(stats.backpressureStalls, 1u)
      << "the byte bound never deferred a read";
  server.stop();
}

TEST(RobustdSoak, SessionRunReportsAreWrittenOnClose) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "robustd_soak_reports")
          .string();
  std::filesystem::remove_all(dir);

  ServerOptions options;
  options.tcpPort = 0;
  options.workers = 1;
  options.reportDir = dir;
  Server server(std::move(options));
  server.start();
  EXPECT_EQ(runTenant(server.port(), 2, 1, 8), 0u);
  (void)waitForBalance(server);
  server.stop();

  std::size_t reports = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      ++reports;
    }
  }
  EXPECT_EQ(reports, 1u);
  std::filesystem::remove_all(dir);
}

TEST(RobustdSoak, MalformedPayloadInsideAWellFramedFrameIsNotFatal) {
  ServerOptions options;
  options.tcpPort = 0;
  options.workers = 1;
  Server server(std::move(options));
  server.start();

  Client client;
  client.connectTcp(server.port());
  client.hello("resilient", 1);

  // ANALYZE against a key that was never registered: non-fatal Structure
  // reject, and the session keeps working afterwards.
  std::vector<double> one(kDim, 1.0);
  try {
    (void)client.analyze(0xdeadULL, 1, one);
    FAIL() << "bogus key analyzed";
  } catch (const robust::net::RejectedError& e) {
    EXPECT_FALSE(e.info().fatal);
    EXPECT_EQ(e.info().category, robust::util::RejectCategory::Structure);
  }

  const ProblemSpec spec = makeSpec(0);
  const CompiledProblem oracle = CompiledProblem::compile(makeSpec(0));
  const robust::net::RegisterReply reg = client.registerProblem(spec);
  const std::vector<double> origins = makeBatch(spec, 3, 0, 8);
  const std::vector<WireResult> got = client.analyze(reg.key, 8, origins);
  EXPECT_EQ(bitCompare(got, offline(oracle, origins, 8)), 0u);
  client.bye();

  const ServerStats stats = waitForBalance(server);
  EXPECT_EQ(stats.sessionsActive, 0u);
  server.stop();
}

// -------------------------------------------------------- introspection

using robust::obs::json::Value;

std::uint64_t statNumber(const Value& doc, const std::string& path) {
  const Value* cur = &doc;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = path.find('.', start);
    const std::string key =
        dot == std::string::npos ? path.substr(start)
                                 : path.substr(start, dot - start);
    cur = cur->find(key);
    if (cur == nullptr) {
      ADD_FAILURE() << "stats document is missing '" << path << "'";
      return 0;
    }
    if (dot == std::string::npos) {
      EXPECT_TRUE(cur->isNumber()) << path << " is not a number";
      return static_cast<std::uint64_t>(cur->number);
    }
    start = dot + 1;
  }
}

// The STATS snapshot taken while multi-tenant load is in flight must be
// internally consistent, and the final snapshot must agree exactly with
// the offline ledger: the driving loop knows precisely how many frames,
// batches, instances, and registers every tenant submitted.
TEST(RobustdSoak, StatsSnapshotIsExactUnderConcurrentLoad) {
  ServerOptions options;
  options.tcpPort = 0;
  options.workers = 2;
  Server server(std::move(options));
  server.start();
  const std::uint16_t port = server.port();

  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kBatches = 6;
  constexpr std::size_t kInstances = 24;

  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<bool> loadDone{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      try {
        mismatches += runTenant(port, t, kBatches, kInstances);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "tenant " << t << ": " << e.what();
      }
    });
  }
  // A poller hammers STATS mid-load (no HELLO needed). Every snapshot it
  // sees must be internally consistent: instances accrue with batches, so
  // a tenant's instances is always batches * kInstances — a torn snapshot
  // would break that.
  threads.emplace_back([&] {
    Client poller;
    poller.connectTcp(port);
    while (!loadDone.load(std::memory_order_acquire)) {
      const Value doc = robust::obs::json::parse(poller.stats());
      const Value* tenants = doc.find("tenants");
      ASSERT_NE(tenants, nullptr);
      for (const auto& [name, t] : tenants->object) {
        if (name.rfind("tenant", 0) != 0) {
          continue;
        }
        EXPECT_EQ(statNumber(t, "instances"),
                  statNumber(t, "batches") * kInstances)
            << "torn per-tenant snapshot for " << name;
      }
    }
    poller.closeNow();
  });
  for (std::size_t t = 0; t < kTenants; ++t) {
    threads[t].join();
  }
  loadDone.store(true, std::memory_order_release);
  threads.back().join();
  (void)waitForBalance(server);

  Client finalClient;
  finalClient.connectTcp(port);
  const Value doc = robust::obs::json::parse(finalClient.stats());
  EXPECT_EQ(doc.find("schema")->string, "robust.stats");
  for (std::size_t t = 0; t < kTenants; ++t) {
    const std::string prefix = "tenants.tenant" + std::to_string(t) + ".";
    EXPECT_EQ(statNumber(doc, prefix + "sessions"), 1u);
    // HELLO + REGISTER + kBatches ANALYZE + BYE.
    EXPECT_EQ(statNumber(doc, prefix + "frames"), kBatches + 3);
    EXPECT_EQ(statNumber(doc, prefix + "batches"), kBatches);
    EXPECT_EQ(statNumber(doc, prefix + "instances"), kBatches * kInstances);
    EXPECT_EQ(statNumber(doc, prefix + "registers"), 1u);
    EXPECT_EQ(statNumber(doc, prefix + "rejects_total"), 0u);
    // Every completed batch fed the latency digests.
    EXPECT_EQ(statNumber(doc, prefix + "latency.analyze.count"), kBatches);
    EXPECT_EQ(statNumber(doc, prefix + "latency.compile.count"), 1u);
    EXPECT_EQ(statNumber(doc, prefix + "latency.queue.count"), kBatches + 1);
  }
  EXPECT_EQ(statNumber(doc, "server.batches"), kTenants * kBatches);
  EXPECT_EQ(statNumber(doc, "server.instances"),
            kTenants * kBatches * kInstances);
  EXPECT_EQ(statNumber(doc, "server.registers"), kTenants);
  // 3 spec families across 4 tenants: 3 misses, 1 cross-tenant hit.
  EXPECT_EQ(statNumber(doc, "cache.hits") + statNumber(doc, "cache.misses"),
            kTenants);
  EXPECT_EQ(mismatches.load(), 0u);
  finalClient.closeNow();
  (void)waitForBalance(server);
  server.stop();
}

// Hostile STATS / TRACE_DUMP payloads draw categorized NON-fatal rejects
// and the connection keeps answering afterwards.
TEST(RobustdSoak, HostileAdminPayloadsAreContainedNonFatally) {
  ServerOptions options;
  options.tcpPort = 0;
  options.workers = 1;
  Server server(std::move(options));
  server.start();

  Client client;
  client.connectTcp(server.port());
  const robust::util::Diagnostics diag("soak");

  const auto expectReject = [&client](FrameType type,
                                      const std::vector<std::uint8_t>& payload,
                                      robust::util::RejectCategory category,
                                      const std::string& what) {
    client.sendRaw(robust::net::buildFrame(type, 77, payload));
    auto [header, reply] = client.readFrame();
    ASSERT_EQ(header.type, FrameType::Reject) << what;
    EXPECT_EQ(header.requestId, 77u) << what;
    const robust::util::Diagnostics d("soak");
    const robust::net::RejectInfo info = robust::net::decodeReject(reply, d);
    EXPECT_FALSE(info.fatal) << what;
    EXPECT_EQ(info.category, category) << what;
  };

  std::vector<std::uint8_t> good;
  robust::net::encodeAdminRequest(robust::net::kStatsSchemaVersion, good);

  for (const FrameType type : {FrameType::Stats, FrameType::TraceDump}) {
    const std::string label =
        type == FrameType::Stats ? "STATS" : "TRACE_DUMP";
    // Unsupported schema version.
    std::vector<std::uint8_t> badVersion;
    robust::net::encodeAdminRequest(robust::net::kStatsSchemaVersion + 1,
                                    badVersion);
    expectReject(type, badVersion, robust::util::RejectCategory::Structure,
                 label + " bad version");
    // Oversized payload (trailing bytes after a well-formed request).
    std::vector<std::uint8_t> oversized = good;
    oversized.resize(64, 0xee);
    expectReject(type, oversized, robust::util::RejectCategory::Structure,
                 label + " oversized");
    // Every strict prefix of a valid request underruns: Truncated.
    for (std::size_t n = 0; n < good.size(); ++n) {
      const std::vector<std::uint8_t> prefix(
          good.begin(), good.begin() + static_cast<long>(n));
      expectReject(type, prefix, robust::util::RejectCategory::Truncated,
                   label + " prefix of " + std::to_string(n) + " bytes");
    }
  }

  // The same connection still answers both admin requests — the rejects
  // were non-fatal.
  const Value stats = robust::obs::json::parse(client.stats());
  EXPECT_EQ(stats.find("schema")->string, "robust.stats");
  EXPECT_GE(statNumber(stats, "rejects.structure"), 4u);
  EXPECT_GE(statNumber(stats, "rejects.truncated"), 16u);
  const Value trace = robust::obs::json::parse(client.traceDump());
  EXPECT_NE(trace.find("traceEvents"), nullptr);

  client.closeNow();
  (void)waitForBalance(server);
  server.stop();
}

void collectPaths(const Value& v, const std::string& prefix,
                  std::set<std::string>& out) {
  if (!v.isObject()) {
    out.insert(prefix);
    return;
  }
  for (const auto& [key, child] : v.object) {
    collectPaths(child, prefix.empty() ? key : prefix + "." + key, out);
  }
}

// The same serial workload run twice must produce STATS documents with
// identical key-path structure and identical values on every deterministic
// counter (wall-clock latency digests and global flight-ring occupancy may
// differ).
TEST(RobustdSoak, StatsAreStructurallyIdenticalAcrossRuns) {
  const auto runOnce = [] {
    ServerOptions options;
    options.tcpPort = 0;
    options.workers = 1;
    Server server(std::move(options));
    server.start();
    EXPECT_EQ(runTenant(server.port(), 1, 3, 16), 0u);
    (void)waitForBalance(server);
    Client client;
    client.connectTcp(server.port());
    const std::string text = client.stats();
    client.closeNow();
    (void)waitForBalance(server);
    server.stop();
    return text;
  };
  const Value first = robust::obs::json::parse(runOnce());
  const Value second = robust::obs::json::parse(runOnce());

  std::set<std::string> firstPaths;
  std::set<std::string> secondPaths;
  collectPaths(first, "", firstPaths);
  collectPaths(second, "", secondPaths);
  EXPECT_EQ(firstPaths, secondPaths) << "runs disagree on document shape";

  for (const char* path :
       {"server.sessions_opened", "server.sessions_closed", "server.frames",
        "server.batches", "server.instances", "server.registers",
        "server.stats_requests", "cache.hits", "cache.misses",
        "rejects.total", "tenants.tenant1.frames", "tenants.tenant1.batches",
        "tenants.tenant1.instances", "tenants.tenant1.registers",
        "tenants.tenant1.latency.analyze.count"}) {
    EXPECT_EQ(statNumber(first, path), statNumber(second, path))
        << "runs disagree on " << path;
  }
}

// Deterministic test clock for the byte-determinism pin: atomic because
// the IO thread and the pool worker both read it.
std::atomic<std::int64_t> gSoakClock{0};
std::int64_t soakClock() noexcept {
  return 1000000 + gSoakClock.fetch_add(500, std::memory_order_relaxed);
}

// Under the test clock, a serial single-tenant flow reads the clock in a
// deterministic order (one arrival event per frame, one enqueue stamp and
// two work timestamps per dispatched request), so the TRACE_DUMP drain
// must be BYTE-identical between two runs.
TEST(RobustdSoak, TraceDumpIsByteDeterministicAcrossRuns) {
  const auto runOnce = [] {
    robust::obs::clearFlight();
    gSoakClock.store(0, std::memory_order_relaxed);
    robust::obs::detail::setClockForTesting(&soakClock);
    ServerOptions options;
    options.tcpPort = 0;
    options.workers = 1;
    Server server(std::move(options));
    server.start();

    const ProblemSpec spec = makeSpec(0);
    Client client;
    client.connectTcp(server.port());
    client.hello("flight-tenant", 1);
    const robust::net::RegisterReply reg = client.registerProblem(spec);
    for (std::size_t b = 0; b < 2; ++b) {
      const std::vector<double> origins = makeBatch(spec, 1, b, 8);
      (void)client.analyze(reg.key, 8, origins);
    }
    const std::string dump = client.traceDump();
    client.bye();
    (void)waitForBalance(server);
    server.stop();
    robust::obs::detail::setClockForTesting(nullptr);
    robust::obs::clearFlight();
    return dump;
  };
  robust::obs::setFlightCapacity(robust::obs::kDefaultFlightCapacity);
  const std::string firstDump = runOnce();
  const std::string secondDump = runOnce();
  EXPECT_EQ(firstDump, secondDump) << "flight dump bytes differ between runs";
  // The dump is real: it holds the per-frame arrival events (including the
  // TRACE_DUMP frame itself) and both work spans, requestId-correlated.
  EXPECT_NE(firstDump.find("robustd.frame.hello"), std::string::npos);
  EXPECT_NE(firstDump.find("robustd.frame.trace_dump"), std::string::npos);
  EXPECT_NE(firstDump.find("robustd.work.register"), std::string::npos);
  EXPECT_NE(firstDump.find("robustd.work.analyze"), std::string::npos);
  // Draining left nothing behind inside the dump itself: a second dump on
  // a fresh connection right after would have started empty. (The ring was
  // cleared as part of the drain; the frames after it re-populate it.)
}

}  // namespace

// serve: robustd end to end. A net::Server runs in-process on a Unix socket
// with 2 workers; 2 client threads, one connection each, run a closed loop
// for 2 tenants of different weights. Ops are ANALYZE batches on
// robustd_load's 24 x 8 spec families (tenant beta's family carries a hard
// constraint); every 16th op of a connection is a REGISTER drawn from
// twice as many spec families as the compile cache holds, so compiles and
// evictions run beside cache hits. It is the only workload through wire,
// epoll, admission and the compile cache. A request takes a few hundred
// microseconds: about half is the worker's analysis, the rest wire,
// queueing and the hand-offs between client, IO thread and worker. The
// batches are large enough that wake-up delays on a busy host do not
// dominate it.
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "robust/core/compiled.hpp"
#include "robust/net/client.hpp"
#include "robust/net/server.hpp"
#include "robust/net/wire.hpp"
#include "robust/obs/json_lite.hpp"
#include "robust/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using robust::core::AnalysisInstance;
using robust::core::CompiledProblem;
using robust::core::ProblemSpec;
using robust::net::WireResult;

constexpr std::size_t kDim = 24;
constexpr std::size_t kFeatures = 8;
constexpr std::uint64_t kRegisterEvery = 16;
constexpr std::size_t kCacheCapacity = 4;
constexpr std::size_t kChurnFamilies = 2 * kCacheCapacity;
/// Spec content is fixed (robustd_load's default seed); the run seed drives
/// the batches and the REGISTER draws.
constexpr std::uint64_t kSpecSeed = 42;
/// mean_rho averages rho over every instance of the first this-many
/// ANALYZE replies of each connection; every run completes them, so it is a
/// pure function of the seed.
constexpr std::size_t kRhoBatches = 512;
/// Set-up (server start to first replies) takes about 2 ms, so it is
/// repeated far more often than the sequential workloads' set-up; a
/// multiple of kWindows.
constexpr std::size_t kServeSetupReps = 40;
/// latency_tail_us. Thousands of samples lie beyond it in every window;
/// p95 and above spread two to four times as much over runs (README.md).
constexpr double kTailQuantile = 0.90;
/// Every 8th ANALYZE reply is hashed and compared with the offline lane's.
constexpr std::uint64_t kVerifyEvery = 8;
/// Each connection cycles through this many seeded batches, made at
/// construction, so the client spends no loop time generating inputs.
/// ANALYZE results are not cached, so a repeated batch is computed anew.
constexpr std::size_t kBatchPool = 32;
constexpr std::uint64_t kServeFamily = 0x73727665;  // "srve"

/// The constrained family costs about 100 us per instance and the plain one
/// well under 1 us, so each tenant's batch size is chosen to make both
/// tenants' ANALYZE requests take about as long: the pooled latencies then
/// have one mode, and neither tenant's share of the ops moves a percentile.
struct Tenant {
  const char* name;
  std::uint32_t weight;
  std::size_t family;
  std::uint32_t instances;  ///< per ANALYZE batch
};
constexpr Tenant kTenants[2] = {{"alpha", 16, 0, 768}, {"beta", 48, 1, 3}};

/// robustd_load's spec family generator: odd families carry a budget
/// constraint that perturbed origins straddle.
ProblemSpec makeSpec(std::size_t family) {
  auto rng = robust::makeStream(kSpecSeed, 1000 + family);
  ProblemSpec spec;
  spec.parameter.name = "pi (load family " + std::to_string(family) + ")";
  spec.parameter.origin.resize(kDim);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(1.0, 4.0);
  }
  for (std::size_t f = 0; f < kFeatures; ++f) {
    robust::num::Vec weights(kDim);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    const double constant = rng.uniform(-1.0, 1.0);
    double phiOrig = constant;
    for (std::size_t j = 0; j < kDim; ++j) {
      phiOrig += weights[j] * spec.parameter.origin[j];
    }
    const double slack = rng.uniform(2.0, 6.0);
    spec.features.push_back(robust::core::PerformanceFeature{
        "phi_" + std::to_string(f),
        robust::core::ImpactFunction::affine(std::move(weights), constant),
        robust::core::ToleranceBounds::between(phiOrig - slack,
                                               phiOrig + slack)});
  }
  if (family % 2 == 1) {
    robust::core::LinearConstraint budget;
    budget.name = "budget";
    budget.coeffs.assign(kDim, 1.0);
    double load = 0.0;
    for (double v : spec.parameter.origin) {
      load += v;
    }
    budget.bound = load + 0.05 * load;
    spec.constraints.push_back(std::move(budget));
  }
  return spec;
}

/// Batch `slot` of connection `client`'s pool: its origins.
std::vector<double> makeBatch(std::uint64_t seed, std::size_t client,
                              std::size_t slot, const ProblemSpec& spec) {
  auto rng = robust::makeStream(seed, kServeFamily + client, slot);
  const std::size_t instances = kTenants[client].instances;
  std::vector<double> origins(instances * kDim);
  for (std::size_t i = 0; i < instances; ++i) {
    for (std::size_t j = 0; j < kDim; ++j) {
      origins[i * kDim + j] = spec.parameter.origin[j] + rng.uniform(-0.5, 0.5);
    }
  }
  return origins;
}

/// Which churn family REGISTER op `index` of connection `client` sends.
std::size_t churnFamily(std::uint64_t seed, std::size_t client,
                        std::uint64_t index) {
  auto rng = robust::makeStream(seed, kServeFamily + 2 + client, index);
  return 2 + rng.nextBounded(static_cast<std::uint32_t>(kChurnFamilies));
}

bool isRegister(std::uint64_t index) {
  return index % kRegisterEvery == kRegisterEvery - 1;
}

/// The bits the daemon would send for `results`, hashed.
std::uint64_t hashResults(const std::vector<WireResult>& results) {
  std::vector<std::uint8_t> bytes;
  robust::net::encodeResult(results, bytes);
  return robust::net::fnv1a(bytes);
}

/// The offline lane for one batch: exactly the calls the daemon makes.
std::vector<WireResult> offlineAnswers(const CompiledProblem& problem,
                                       const std::vector<double>& origins) {
  const std::size_t instances = origins.size() / kDim;
  std::vector<AnalysisInstance> batch(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    batch[i].origin = std::span<const double>(origins.data() + i * kDim, kDim);
  }
  const auto metrics = problem.analyzeBatchMetric(batch, /*threads=*/1);
  const bool constrained = !problem.constraints().empty();
  std::vector<WireResult> expect(instances);
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

/// One connection's closed loop and what it measured in one phase.
struct Connection {
  std::size_t client = 0;
  robust::net::Client net;
  std::uint64_t key = 0;
  std::uint64_t nextIndex = 0;
  Window window;  ///< ops and latencies (wall/CPU unused)
  SpanLog spans;
  std::uint64_t analyzeOps = 0;
  std::uint64_t registerOps = 0;
  std::uint64_t failed = 0;
  std::string error;
};

/// What a tenant's connections keep across the run's set-ups.
struct TenantLog {
  double rhoSum = 0.0;
  std::size_t rhoInstances = 0;
  std::size_t rhoBatches = 0;
};

/// Sums a STATS latency digest over every tenant.
struct DigestTotals {
  double count = 0.0;
  double sumNanos = 0.0;
};

struct StatsView {
  double frames = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double rejects = 0.0;
  double stalls = 0.0;
  DigestTotals analyze;
  DigestTotals compile;
  DigestTotals queue;
};

double numberAt(const robust::obs::json::Value& v,
                std::initializer_list<const char*> path) {
  const robust::obs::json::Value* at = &v;
  for (const char* key : path) {
    at = at->find(key);
    if (at == nullptr) {
      return 0.0;
    }
  }
  return at->isNumber() ? at->number : 0.0;
}

StatsView readStats(const std::string& socketPath) {
  robust::net::Client admin;
  admin.connectUnix(socketPath);
  const robust::obs::json::Value doc = robust::obs::json::parse(admin.stats());
  admin.closeNow();
  StatsView s;
  s.frames = numberAt(doc, {"server", "frames"});
  s.hits = numberAt(doc, {"cache", "hits"});
  s.misses = numberAt(doc, {"cache", "misses"});
  s.rejects = numberAt(doc, {"rejects", "total"});
  s.stalls = numberAt(doc, {"backpressure", "stalls"});
  if (const auto* tenants = doc.find("tenants")) {
    for (const auto& [name, t] : tenants->object) {
      for (auto [key, totals] :
           {std::pair{"analyze", &s.analyze}, std::pair{"compile", &s.compile},
            std::pair{"queue", &s.queue}}) {
        totals->count += numberAt(t, {"latency", key, "count"});
        totals->sumNanos += numberAt(t, {"latency", key, "sum_nanos"});
      }
    }
  }
  return s;
}

class Serve {
 public:
  explicit Serve(const RunConfig& config)
      : config_(config),
        socketPath_(config.workDir + "/perfbench-" +
                    std::to_string(::getpid()) + ".sock") {
    for (std::size_t f = 0; f < 2 + kChurnFamilies; ++f) {
      specs_.push_back(makeSpec(f));
      keys_.push_back(
          robust::net::fnv1a(robust::net::encodeProblemSpec(specs_.back())));
    }
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t slot = 0; slot < kBatchPool; ++slot) {
        batches_[c].push_back(
            makeBatch(config.seed, c, slot, specs_[kTenants[c].family]));
      }
    }
  }

  Outcome run() {
    Outcome out;
    // The oracle's local copies of every family; timed for core.compile_us.
    SpanLog setupSpans;
    setupSpans.enabled = config_.trace;
    for (const ProblemSpec& spec : specs_) {
      Span span(setupSpans, "core.compile");
      local_.push_back(std::make_unique<CompiledProblem>(
          CompiledProblem::compile(spec)));
    }
    // The robustd_load oracle: every pool batch through the offline lane,
    // encoded and hashed as the daemon's reply would be.
    for (std::size_t c = 0; c < 2; ++c) {
      for (const std::vector<double>& origins : batches_[c]) {
        expect_[c].push_back(hashResults(
            offlineAnswers(*local_[kTenants[c].family], origins)));
      }
    }
    // Each window of the timed phase is preceded by its share of the
    // set-ups, the last of which leaves the server and connections the
    // window uses, so set-up is sampled across the whole run.
    std::vector<double> setups;
    const auto setUp = [&] {
      for (std::size_t rep = 0; rep < kServeSetupReps / kWindows; ++rep) {
        teardown();
        setups.push_back(setupOnce(out));
      }
    };

    if (!config_.trace) {
      std::vector<Window> windows;
      for (std::size_t w = 0; w < kWindows; ++w) {
        setUp();
        windows.push_back(
            runPhase(config_.seconds / static_cast<double>(kWindows), false,
                     out));
      }
      double rhoSum = 0.0;
      std::size_t rhoInstances = 0;
      for (const TenantLog& t : tenantLogs_) {
        rhoSum += t.rhoSum;
        rhoInstances += t.rhoInstances;
      }
      appendEndToEnd(out, median(setups), windows, kTailQuantile,
                     rhoSum / static_cast<double>(rhoInstances));
    } else {
      setUp();
      const Window plain = runPhase(config_.seconds / 2.0, false, out);
      const StatsView before = readStats(socketPath_);
      robust::obs::resetMetrics();
      robust::obs::setEnabled(true);
      const Window traced = runPhase(config_.seconds / 2.0, true, out);
      robust::obs::setEnabled(false);
      const robust::obs::MetricsSnapshot counters =
          robust::obs::snapshotMetrics();
      const StatsView after = readStats(socketPath_);
      appendTraced(out, before, after, counters, setupSpans,
                   static_cast<double>(plain.ops) / plain.wallSeconds, traced);
    }
    const robust::net::ServerStats stats = server_->stats();
    if (stats.rejectsTotal() != 0) {
      out.fail("the server rejected " + std::to_string(stats.rejectsTotal()) +
               " frames");
    }
    teardown();
    return out;
  }

 private:
  /// Starts the server, opens both connections (HELLO + REGISTER of the
  /// working set) and completes each connection's first ANALYZE. Returns
  /// the seconds from server construction to the last first reply.
  double setupOnce(Outcome& out) {
    const std::uint64_t index = nextIndex_++;
    const std::int64_t t0 = nowNs();
    robust::net::ServerOptions options;
    options.unixPath = socketPath_;
    options.workers = kThreads;
    options.cacheCapacity = kCacheCapacity;
    server_ = std::make_unique<robust::net::Server>(options);
    server_->start();
    std::vector<std::vector<WireResult>> replies(2);
    for (std::size_t c = 0; c < 2; ++c) {
      auto conn = std::make_unique<Connection>();
      conn->client = c;
      conn->net.connectUnix(socketPath_);
      conn->net.hello(kTenants[c].name, kTenants[c].weight);
      // The tenant's working set: the REGISTER families, then its own.
      for (std::size_t f = 2; f < specs_.size(); ++f) {
        if (conn->net.registerProblem(specs_[f]).key != keys_[f]) {
          out.fail("set-up REGISTER returned another key");
        }
      }
      conn->key =
          conn->net.registerProblem(specs_[kTenants[c].family]).key;
      replies[c] =
          conn->net.analyze(conn->key, kTenants[c].instances, batch(c, index));
      connections_.push_back(std::move(conn));
    }
    const double seconds = static_cast<double>(nowNs() - t0) / 1e9;
    for (std::size_t c = 0; c < 2; ++c) {
      out.attempted += 1;
      const std::size_t family = kTenants[c].family;
      if (connections_[c]->key != keys_[family] ||
          hashResults(replies[c]) != expect_[c][index % kBatchPool]) {
        out.fail("set-up reply differs from the offline lane");
      }
      connections_[c]->nextIndex = nextIndex_;
    }
    return seconds;
  }

  void teardown() {
    for (auto& c : connections_) {
      c->net.bye();
    }
    connections_.clear();
    if (server_) {
      server_->stop();
      server_.reset();
    }
  }

  /// Runs both connections' closed loops until `seconds` have passed and
  /// returns the phase as one window: the ops started in it, their
  /// latencies, and the process CPU and wall time from the start to the
  /// last reply. Counters in each Connection are reset first.
  Window runPhase(double seconds, bool traced, Outcome& out) {
    for (auto& c : connections_) {
      c->window = Window{};
      c->spans = SpanLog{};
      c->spans.enabled = traced;
      c->analyzeOps = c->registerOps = 0;
    }
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::int64_t start = 0;
    std::vector<std::thread> threads;
    for (auto& c : connections_) {
      threads.emplace_back([&, conn = c.get()] {
        ready.fetch_add(1);
        while (!go.load()) {
          std::this_thread::yield();
        }
        try {
          loop(*conn, start, seconds);
        } catch (const std::exception& e) {
          conn->error = e.what();
        }
      });
    }
    while (ready.load() != static_cast<int>(threads.size())) {
      std::this_thread::yield();
    }
    const double cpu0 = processCpuSeconds();
    start = nowNs();
    go.store(true);
    for (std::thread& t : threads) {
      t.join();
    }
    Window window;
    window.wallSeconds = static_cast<double>(nowNs() - start) / 1e9;
    window.cpuSeconds = processCpuSeconds() - cpu0;
    for (auto& c : connections_) {
      window.ops += c->window.ops;
      window.latencies.merge(c->window.latencies);
      nextIndex_ = std::max(nextIndex_, c->nextIndex);
      out.attempted += c->window.ops;
      out.failed += c->failed;
      if (c->failed != 0 && out.errors.size() < 20) {
        out.errors.push_back("connection " + std::to_string(c->client) + ": " +
                             std::to_string(c->failed) +
                             " replies differ from the offline lane");
      }
      c->failed = 0;
      if (!c->error.empty()) {
        out.fail("connection " + std::to_string(c->client) + ": " + c->error);
        c->error.clear();
      }
    }
    return window;
  }

  void loop(Connection& c, std::int64_t start, double seconds) {
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    const std::uint32_t instances = kTenants[c.client].instances;
    TenantLog& log = tenantLogs_[c.client];
    for (std::int64_t t0 = nowNs();
         t0 < deadline || log.rhoBatches < kRhoBatches; t0 = nowNs()) {
      const std::uint64_t index = c.nextIndex++;
      ++c.window.ops;
      if (isRegister(index)) {
        const std::size_t family = churnFamily(config_.seed, c.client, index);
        robust::net::RegisterReply reply;
        {
          Span root(c.spans, "op");
          Span span(c.spans, "net.register");
          reply = c.net.registerProblem(specs_[family]);
        }
        c.window.latencies.record(nowNs() - t0);
        ++c.registerOps;
        if (reply.key != keys_[family]) {
          ++c.failed;
        }
      } else {
        const std::int64_t sent = nowNs();
        std::vector<WireResult> got;
        {
          Span root(c.spans, "op");
          Span span(c.spans, "net.analyze");
          got = c.net.analyze(c.key, instances, batch(c.client, index));
        }
        c.window.latencies.record(nowNs() - sent);
        ++c.analyzeOps;
        if (got.size() != instances ||
            (index % kVerifyEvery == 0 &&
             hashResults(got) != expect_[c.client][index % kBatchPool])) {
          ++c.failed;
        }
        if (log.rhoBatches < kRhoBatches) {
          for (const WireResult& r : got) {
            log.rhoSum += r.rho;
          }
          log.rhoInstances += got.size();
          ++log.rhoBatches;
        }
      }
    }
  }

  void appendTraced(Outcome& out, const StatsView& before,
                    const StatsView& after,
                    const robust::obs::MetricsSnapshot& counters,
                    const SpanLog& setupSpans, double plainOpsPerSecond,
                    const Window& traced) {
    SpanLog spans;
    const std::uint64_t ops = traced.ops;
    std::uint64_t registerOps = 0;
    for (const auto& c : connections_) {
      spans.merge(c->spans);
      registerOps += c->registerOps;
    }
    const auto meanUs = [](const DigestTotals& a, const DigestTotals& b) {
      const double n = b.count - a.count;
      return n <= 0.0 ? 0.0 : (b.sumNanos - a.sumNanos) / n / 1e3;
    };
    const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));

    LayerValues values;
    values["net.server_analyze_us"] = meanUs(before.analyze, after.analyze);
    values["net.queue_wait_us"] = meanUs(before.queue, after.queue);
    values["net.compile_us"] = meanUs(before.compile, after.compile);
    const SpanLog::Totals* rtt = spans.find("net.analyze");
    values["net.wire_us"] =
        (rtt == nullptr ? 0.0 : rtt->latencies.meanNs() / 1e3) -
        values["net.server_analyze_us"] - values["net.queue_wait_us"];
    const double lookups =
        (after.hits - before.hits) + (after.misses - before.misses);
    values["net.cache_hit_ratio"] =
        lookups == 0.0 ? 0.0 : (after.hits - before.hits) / lookups;
    // The closing STATS request is a frame of its own.
    values["net.frames_per_op"] = (after.frames - before.frames - 1.0) / n;
    values["net.rejects"] = after.rejects - before.rejects;
    values["net.backpressure_stalls"] = after.stalls - before.stalls;

    // Payload bytes both ways, from the encoders, plus two headers per op.
    std::vector<std::uint8_t> bytes;
    double payloadBytes = 0.0;
    for (const auto& c : connections_) {
      const std::uint32_t instances = kTenants[c->client].instances;
      bytes.clear();
      robust::net::encodeAnalyze(0, instances, batch(c->client, 0), bytes);
      robust::net::encodeResult(std::vector<WireResult>(instances), bytes);
      payloadBytes += static_cast<double>(c->analyzeOps) *
                      static_cast<double>(bytes.size());
    }
    bytes.clear();
    robust::net::encodeRegisterOk(0, false, bytes);
    payloadBytes +=
        static_cast<double>(registerOps) *
        static_cast<double>(
            bytes.size() + robust::net::encodeProblemSpec(specs_[2]).size());
    values["net.bytes_per_op"] =
        payloadBytes / n + 2.0 * robust::net::kHeaderBytes;
    if (after.rejects != before.rejects) {
      out.fail("the server rejected frames in the traced phase");
    }
    appendLayers(out, std::move(values), setupSpans, spans, counters, ops,
                 /*poolsPerOp=*/0.0, plainOpsPerSecond,
                 static_cast<double>(ops) / traced.wallSeconds);
  }

  /// Op `index` of connection `client` sends this batch.
  const std::vector<double>& batch(std::size_t client,
                                   std::uint64_t index) const {
    return batches_[client][index % kBatchPool];
  }

  RunConfig config_;
  std::string socketPath_;
  std::vector<ProblemSpec> specs_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::vector<double>> batches_[2];
  std::vector<std::uint64_t> expect_[2];  ///< reply hash per pool batch
  TenantLog tenantLogs_[2];
  std::uint64_t nextIndex_ = 0;
  std::vector<std::unique_ptr<CompiledProblem>> local_;
  std::unique_ptr<robust::net::Server> server_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace

Outcome runServe(const RunConfig& config) {
  Serve serve(config);
  Outcome out = serve.run();
  out.info.emplace_back("serve.register_every", std::to_string(kRegisterEvery));
  out.info.emplace_back("serve.cache_capacity", std::to_string(kCacheCapacity));
  out.info.emplace_back("serve.register_families",
                        std::to_string(kChurnFamilies));
  std::string tenants;
  for (const Tenant& t : kTenants) {
    tenants += std::string(tenants.empty() ? "" : ",") + t.name +
               ":weight=" + std::to_string(t.weight) +
               ":instances=" + std::to_string(t.instances);
  }
  out.info.emplace_back("serve.tenants", tenants);
  return out;
}

}  // namespace perfbench

// Socket-free tests of robustd's policies, one unit at a time: the compile
// cache, weighted-fair admission, session framing and backpressure,
// request execution and the STATS document. The soak suite drives the same
// code through real sockets; these pin each rule on its own.
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "daemon.hpp"
#include "robust/core/compiled.hpp"
#include "robust/net/wire.hpp"
#include "robust/obs/json_lite.hpp"

namespace {

using robust::core::AnalysisInstance;
using robust::core::CompiledProblem;
using robust::core::ImpactFunction;
using robust::core::PerformanceFeature;
using robust::core::ProblemSpec;
using robust::core::ToleranceBounds;
using robust::net::FrameType;
using robust::net::PauseChange;
using robust::net::ProblemCache;
using robust::net::Session;
using robust::net::SessionMap;
using robust::net::WireLimits;
using robust::net::WireResult;
using robust::net::Work;

ProblemSpec specAt(double origin) {
  ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin = {origin, 1.0};
  spec.features.push_back(PerformanceFeature{
      "phi", ImpactFunction::affine({1.0, 2.0}, 0.0),
      ToleranceBounds::atMost(origin + 10.0)});
  return spec;
}

std::vector<std::uint8_t> bytesAt(double origin) {
  return robust::net::encodeProblemSpec(specAt(origin));
}

ProblemCache::Outcome lookup(ProblemCache& cache,
                             const std::vector<std::uint8_t>& bytes) {
  return cache.lookupOrCompile(robust::net::fnv1a(bytes), bytes,
                               WireLimits{});
}

Work workOf(std::uint32_t requestId, std::size_t bytes, double cost = 1.0) {
  Work w;
  w.requestId = requestId;
  w.bytes = bytes;
  w.cost = cost;
  return w;
}

Session& addSession(SessionMap& sessions, std::uint64_t id, double vt) {
  auto s = std::make_unique<Session>();
  s->id = id;
  s->fd = static_cast<int>(100 + id);  // a map key only; never a socket
  s->virtualTime = vt;
  Session& ref = *s;
  sessions[s->fd] = std::move(s);
  return ref;
}

// ------------------------------------------------------------ cache

TEST(NetUnits, CacheTouchesMruAndEvictsLru) {
  ProblemCache cache(2);
  const auto a = bytesAt(1.0);
  const auto b = bytesAt(2.0);
  const auto c = bytesAt(3.0);
  EXPECT_FALSE(lookup(cache, a).fromCache);
  EXPECT_FALSE(lookup(cache, b).fromCache);
  EXPECT_TRUE(lookup(cache, a).fromCache);  // a is now the MRU entry
  const ProblemCache::Outcome third = lookup(cache, c);
  EXPECT_FALSE(third.fromCache);
  EXPECT_EQ(third.evictions, 1u);  // b, the LRU entry, went
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_TRUE(lookup(cache, a).fromCache);
  EXPECT_TRUE(lookup(cache, c).fromCache);
  EXPECT_FALSE(lookup(cache, b).fromCache);
}

TEST(NetUnits, CacheCompilesAKeyCollisionUncached) {
  ProblemCache cache(4);
  const auto a = bytesAt(1.0);
  const auto b = bytesAt(2.0);
  const std::uint64_t key = robust::net::fnv1a(a);
  const auto cached = cache.lookupOrCompile(key, a, WireLimits{});
  // Same key, different bytes: compiled for its own spec, never cached.
  for (int round = 0; round < 2; ++round) {
    const auto collided = cache.lookupOrCompile(key, b, WireLimits{});
    EXPECT_FALSE(collided.fromCache);
    EXPECT_NE(collided.problem, cached.problem);
    EXPECT_EQ(collided.problem->evaluate().metric,
              CompiledProblem::compile(specAt(2.0)).evaluate().metric);
  }
  EXPECT_EQ(cache.entries(), 1u);
  const auto again = cache.lookupOrCompile(key, a, WireLimits{});
  EXPECT_TRUE(again.fromCache);
  EXPECT_EQ(again.problem, cached.problem);
}

TEST(NetUnits, CachePinnedProblemSurvivesEviction) {
  ProblemCache cache(1);
  const auto a = bytesAt(1.0);
  const std::shared_ptr<const CompiledProblem> pinned =
      lookup(cache, a).problem;
  EXPECT_EQ(lookup(cache, bytesAt(2.0)).evictions, 1u);
  EXPECT_EQ(pinned->evaluate().metric,
            CompiledProblem::compile(specAt(1.0)).evaluate().metric);
  const auto recompiled = lookup(cache, a);
  EXPECT_FALSE(recompiled.fromCache);
  EXPECT_NE(recompiled.problem, pinned);
}

TEST(NetUnits, CacheRacingRegistersShareOneProblem) {
  // Concurrent REGISTERs of one new spec may all compile, but every caller
  // ends up with the one cached problem and only the first counts a miss.
  ProblemCache cache(4);
  const auto bytes = bytesAt(1.0);
  constexpr int kThreads = 4;
  std::vector<ProblemCache::Outcome> outcomes(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      outcomes[t] = lookup(cache, bytes);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  int misses = 0;
  for (const ProblemCache::Outcome& o : outcomes) {
    misses += o.fromCache ? 0 : 1;
    EXPECT_EQ(o.problem, outcomes[0].problem);
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(cache.entries(), 1u);
}

// -------------------------------------------------------- admission

TEST(NetUnits, AdmissionPicksLowestVirtualTimeThenLowestId) {
  SessionMap sessions;
  addSession(sessions, 1, 0.0);  // lowest time, but nothing queued
  Session& busy = addSession(sessions, 2, 0.5);  // request in flight
  Session& late = addSession(sessions, 3, 4.0);
  Session& tieHigh = addSession(sessions, 5, 2.0);
  Session& tieLow = addSession(sessions, 4, 2.0);
  EXPECT_EQ(robust::net::pickNext(sessions), nullptr);
  for (Session* s : {&busy, &late, &tieHigh, &tieLow}) {
    robust::net::queueWork(*s, workOf(1, 8));
  }
  busy.inflight = 1;
  EXPECT_EQ(robust::net::pickNext(sessions), &tieLow);
  tieLow.virtualTime = 2.5;
  EXPECT_EQ(robust::net::pickNext(sessions), &tieHigh);
  busy.inflight = 0;
  EXPECT_EQ(robust::net::pickNext(sessions), &busy);
  EXPECT_EQ(late.pending.size(), 1u);
}

TEST(NetUnits, AdmissionChargesCostOverWeightAndFloorNeverFalls) {
  SessionMap sessions;
  Session& heavy = addSession(sessions, 1, 7.0);
  heavy.weight = 4;
  Session& unweighted = addSession(sessions, 2, 3.0);
  unweighted.weight = 0;  // charged as weight 1
  robust::net::queueWork(heavy, workOf(1, 8, /*cost=*/10.0));
  robust::net::queueWork(unweighted, workOf(2, 8, /*cost=*/3.0));

  double vtFloor = 5.0;
  const robust::net::Started low = robust::net::startNext(unweighted, vtFloor);
  EXPECT_EQ(low.charge, 3.0);
  EXPECT_EQ(unweighted.virtualTime, 6.0);
  EXPECT_EQ(vtFloor, 5.0);  // a session behind the floor does not lower it
  const robust::net::Started high = robust::net::startNext(heavy, vtFloor);
  EXPECT_EQ(high.charge, 2.5);
  EXPECT_EQ(high.work.requestId, 1u);
  EXPECT_EQ(heavy.virtualTime, 9.5);
  EXPECT_EQ(heavy.chargedCost, 2.5);
  EXPECT_EQ(vtFloor, 7.0);  // raised to the started session's time
  EXPECT_EQ(heavy.inflight, 1u);
}

// ----------------------------------------------- framing, backpressure

TEST(NetUnits, OneRequestInFlightPerSessionInFifoOrder) {
  SessionMap sessions;
  Session& s = addSession(sessions, 1, 0.0);
  for (std::uint32_t id = 1; id <= 3; ++id) {
    robust::net::queueWork(s, workOf(id, 8));
  }
  double vtFloor = 0.0;
  for (std::uint32_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(robust::net::pickNext(sessions), &s);
    EXPECT_EQ(robust::net::startNext(s, vtFloor).work.requestId, id);
    EXPECT_EQ(robust::net::pickNext(sessions), nullptr) << "second in flight";
    robust::net::settleInflight(s, 8);
  }
  EXPECT_EQ(s.backlogBytes, 0u);
}

TEST(NetUnits, BackpressurePausesAboveTheBoundAndResumesAtHalf) {
  constexpr std::size_t kBound = 100;
  SessionMap sessions;
  Session& s = addSession(sessions, 1, 0.0);
  robust::net::queueWork(s, workOf(1, 60));
  EXPECT_EQ(robust::net::updatePause(s, kBound), PauseChange::None);
  robust::net::queueWork(s, workOf(2, 40));
  EXPECT_EQ(robust::net::updatePause(s, kBound), PauseChange::None)
      << "exactly at the bound still reads";
  robust::net::queueWork(s, workOf(3, 10));
  EXPECT_EQ(robust::net::updatePause(s, kBound), PauseChange::Paused);
  EXPECT_TRUE(s.paused);
  EXPECT_EQ(robust::net::updatePause(s, kBound), PauseChange::None);

  double vtFloor = 0.0;
  (void)robust::net::startNext(s, vtFloor);  // in flight bytes still count
  EXPECT_TRUE(robust::net::queueReply(s, std::vector<std::uint8_t>(9, 0)));
  EXPECT_FALSE(robust::net::queueReply(s, std::vector<std::uint8_t>(1, 0)));
  EXPECT_EQ(s.backlogBytes, 120u);
  robust::net::settleInflight(s, 60);
  EXPECT_EQ(robust::net::updatePause(s, kBound), PauseChange::None)
      << "60 bytes is above half the bound";
  robust::net::consumeWritten(s, 9);
  EXPECT_EQ(s.out.size(), 1u);
  EXPECT_EQ(s.backlogBytes, 51u);
  EXPECT_EQ(robust::net::updatePause(s, kBound), PauseChange::None);
  robust::net::consumeWritten(s, 1);
  EXPECT_EQ(robust::net::updatePause(s, kBound), PauseChange::Resumed);
  EXPECT_FALSE(s.paused);
  robust::net::discardPending(s);
  EXPECT_EQ(s.backlogBytes, 0u);
}

TEST(NetUnits, FramingWaitsForWholeFramesAndDropsAnUntrustedHeader) {
  Session s;
  std::vector<std::uint8_t> hello;
  robust::net::encodeHello(3, "alice", hello);
  const auto frame = robust::net::buildFrame(FrameType::Hello, 42, hello);
  const WireLimits limits;
  s.in.assign(frame.begin(), frame.begin() + 20);  // header + 4 bytes
  EXPECT_FALSE(robust::net::nextFrame(s, limits).has_value());
  s.in.insert(s.in.end(), frame.begin() + 20, frame.end());
  const auto got = robust::net::nextFrame(s, limits);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->header.type, FrameType::Hello);
  EXPECT_EQ(got->header.requestId, 42u);
  EXPECT_TRUE(std::equal(got->payload.begin(), got->payload.end(),
                         hello.begin(), hello.end()));
  EXPECT_FALSE(robust::net::nextFrame(s, limits).has_value());
  EXPECT_TRUE(s.in.empty()) << "consumed prefix is compacted";

  s.in.assign(24, 0xee);
  EXPECT_THROW((void)robust::net::nextFrame(s, limits),
               robust::util::ParseError);
}

// ------------------------------------------------------------- work

TEST(NetUnits, RunWorkAnswersLikeTheOfflineLane) {
  ProblemCache cache(4);
  Work reg;
  reg.kind = Work::Kind::Register;
  reg.requestId = 7;
  reg.specBytes = bytesAt(1.0);
  const robust::net::Completion registered =
      robust::net::runWork(reg, cache, WireLimits{});
  std::vector<std::uint8_t> okPayload;
  robust::net::encodeRegisterOk(robust::net::fnv1a(reg.specBytes), false,
                                okPayload);
  EXPECT_EQ(registered.frame,
            robust::net::buildFrame(FrameType::RegisterOk, 7, okPayload));
  ASSERT_NE(registered.install, nullptr);

  Work analyze;
  analyze.requestId = 8;
  analyze.problem = registered.install;
  analyze.count = 2;
  analyze.origins = {1.5, 1.0, 0.5, 2.0};
  const robust::net::Completion done =
      robust::net::runWork(analyze, cache, WireLimits{});
  const std::vector<AnalysisInstance> instances = {
      {.origin = std::span<const double>(analyze.origins.data(), 2)},
      {.origin = std::span<const double>(analyze.origins.data() + 2, 2)}};
  const auto metrics = CompiledProblem::compile(specAt(1.0))
                           .analyzeBatchMetric(instances, /*threads=*/1);
  std::vector<WireResult> expect(2);
  for (std::size_t i = 0; i < 2; ++i) {
    expect[i].rho = metrics[i].metric;
    expect[i].bindingFeature =
        static_cast<std::uint32_t>(metrics[i].bindingFeature);
    expect[i].floored = metrics[i].floored;
  }
  std::vector<std::uint8_t> resultPayload;
  robust::net::encodeResult(expect, resultPayload);
  EXPECT_EQ(done.frame,
            robust::net::buildFrame(FrameType::Result, 8, resultPayload));
  EXPECT_EQ(done.instances, 2u);

  analyze.origins[3] = std::numeric_limits<double>::quiet_NaN();
  const robust::net::Completion bad =
      robust::net::runWork(analyze, cache, WireLimits{});
  EXPECT_TRUE(bad.rejected);
  EXPECT_EQ(bad.rejectCategory, robust::util::RejectCategory::Domain);
}

// ------------------------------------------------------------ STATS

std::vector<std::string> keysOf(const robust::obs::json::Value& v) {
  std::vector<std::string> keys;
  for (const auto& [key, child] : v.object) {
    keys.push_back(key);
  }
  return keys;
}

TEST(NetUnits, StatsDocumentKeepsItsKeyOrder) {
  std::map<std::string, robust::net::TenantTotals> tenants;
  tenants["beta"].batches = 2;
  tenants["alpha"].frames = 1;
  const std::string text = robust::net::buildStatsJson(
      robust::net::ServerStats{}, robust::net::ServerOptions{},
      robust::net::StatsGauges{}, tenants);
  const robust::obs::json::Value doc = robust::obs::json::parse(text);
  EXPECT_EQ(keysOf(doc),
            (std::vector<std::string>{"schema", "schema_version", "tool",
                                      "server", "cache", "backpressure",
                                      "rejects", "tenants", "flight"}));
  EXPECT_EQ(keysOf(*doc.find("tenants")),
            (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(keysOf(*doc.find("tenants")->find("alpha")),
            (std::vector<std::string>{
                "sessions", "frames", "batches", "instances", "registers",
                "cache_hits", "cache_misses", "rejects_total", "virtual_time",
                "charged_cost", "latency"}));
}

}  // namespace

// Unit tests for the observability layer: metric registration and shard
// merging (including retired threads), histogram bucketing, trace export
// against a golden Chrome trace file, snapshot-under-concurrent-writers
// safety (exercised under TSan-less ASan/UBSan CI — the shards are relaxed
// atomics, so the sanitizers see any lifetime bug), the run-report schema,
// and the disabled-mode overhead pin for the hottest search loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "robust/core/compiled.hpp"
#include "robust/core/instance_file.hpp"
#include "robust/core/stream.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/obs/json_lite.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/report.hpp"
#include "robust/obs/trace.hpp"
#include "robust/scheduling/experiment.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/util/rng.hpp"
#include "robust/util/timer.hpp"
#include "snapshot_lookup.hpp"

namespace robust {
namespace {

using testing_util::gaugeValue;
using testing_util::histogramNamed;

/// RAII guard: every test runs with a clean slate and leaves recording off.
class ObsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::setEnabled(true);
    obs::resetMetrics();
    obs::clearTrace();
    obs::clearFlight();
    obs::setFlightCapacity(obs::kDefaultFlightCapacity);
  }
  void TearDown() override {
    obs::setEnabled(false);
    obs::resetMetrics();
    obs::clearTrace();
    obs::clearFlight();
    obs::setFlightCapacity(obs::kDefaultFlightCapacity);
    obs::detail::setClockForTesting(nullptr);
  }
};

using ObsMetrics = ObsFixture;
using ObsTrace = ObsFixture;
using ObsReport = ObsFixture;

// ---------------------------------------------------------------- metrics

TEST_F(ObsMetrics, CounterIdIsIdempotent) {
  const obs::MetricId a = obs::counterId("test.idempotent");
  const obs::MetricId b = obs::counterId("test.idempotent");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, obs::counterId("test.idempotent2"));
}

TEST_F(ObsMetrics, CounterAccumulatesAndResets) {
  const obs::MetricId id = obs::counterId("test.counter");
  obs::addCounter(id);
  obs::addCounter(id, 41);
  EXPECT_EQ(obs::snapshotMetrics().counter("test.counter"), 42u);
  obs::resetMetrics();
  EXPECT_EQ(obs::snapshotMetrics().counter("test.counter"), 0u);
}

TEST_F(ObsMetrics, UnknownNamesReadAsZero) {
  const auto snapshot = obs::snapshotMetrics();
  EXPECT_EQ(snapshot.counter("test.never_registered"), 0u);
  EXPECT_EQ(gaugeValue(snapshot, "test.never_registered"), 0);
  EXPECT_EQ(histogramNamed(snapshot, "test.never_registered"), nullptr);
}

TEST_F(ObsMetrics, GaugeSetAndHighWater) {
  const obs::MetricId id = obs::gaugeId("test.gauge");
  obs::setGauge(id, 7);
  EXPECT_EQ(gaugeValue(obs::snapshotMetrics(), "test.gauge"), 7);
  obs::maxGauge(id, 3);  // below the high-water mark: no effect
  EXPECT_EQ(gaugeValue(obs::snapshotMetrics(), "test.gauge"), 7);
  obs::maxGauge(id, 19);
  EXPECT_EQ(gaugeValue(obs::snapshotMetrics(), "test.gauge"), 19);
}

TEST_F(ObsMetrics, HistogramBucketsByPowerOfTwo) {
  const obs::MetricId id = obs::histogramId("test.hist");
  obs::recordLatency(id, 0);     // bucket 0
  obs::recordLatency(id, 1);     // bit_width(1) = 1  -> bucket 1
  obs::recordLatency(id, 1000);  // bit_width(1000) = 10 -> bucket 10
  obs::recordLatency(id, -5);    // clamped to 0 -> bucket 0
  const auto snapshot = obs::snapshotMetrics();
  const obs::HistogramValue* hist = histogramNamed(snapshot, "test.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 4u);
  EXPECT_EQ(hist->sumNanos, 1001u);
  ASSERT_EQ(hist->buckets.size(), obs::kHistogramBuckets);
  EXPECT_EQ(hist->buckets[0], 2u);
  EXPECT_EQ(hist->buckets[1], 1u);
  EXPECT_EQ(hist->buckets[10], 1u);
}

TEST_F(ObsMetrics, HistogramSaturatesAtLastBucket) {
  const obs::MetricId id = obs::histogramId("test.hist_saturate");
  obs::recordLatency(id, INT64_MAX);  // bit_width = 63, far past bucket 27
  const auto snapshot = obs::snapshotMetrics();
  const obs::HistogramValue* hist =
      histogramNamed(snapshot, "test.hist_saturate");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->buckets[obs::kHistogramBuckets - 1], 1u);
}

TEST_F(ObsMetrics, DisabledRecordingIsDropped) {
  const obs::MetricId id = obs::counterId("test.disabled");
  obs::setEnabled(false);
  // The call-site convention guards on enabled(); recording anyway must be
  // harmless (the shard write happens, the convention just skips it).
  // What matters here: enabled() is false so instrumented code paths skip.
  EXPECT_FALSE(obs::enabled());
  obs::setEnabled(true);
  EXPECT_EQ(obs::snapshotMetrics().counter("test.disabled"), 0u);
}

// The shard merge must fold in threads that have already exited: each
// worker's thread_local shard retires at thread exit, and its totals move
// to the registry's retired tally. Whatever the interleaving, the merged
// value is exact.
TEST_F(ObsMetrics, MergesRetiredThreadShardsExactly) {
  const obs::MetricId id = obs::counterId("test.retired");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([id] {
        for (int i = 0; i < kIncrements; ++i) {
          obs::addCounter(id);
        }
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
  }
  EXPECT_EQ(obs::snapshotMetrics().counter("test.retired"),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

// Snapshots taken while writers are mid-flight must observe consistent
// per-slot values (monotone, never torn, never above the true total) and
// the final snapshot must be exact. Run under ASan/UBSan in CI.
TEST_F(ObsMetrics, SnapshotUnderConcurrentWritersIsSafeAndMonotone) {
  const obs::MetricId id = obs::counterId("test.race");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([id, &go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kIncrements; ++i) {
        obs::addCounter(id);
      }
    });
  }
  go.store(true, std::memory_order_release);
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kIncrements;
  std::uint64_t previous = 0;
  for (int s = 0; s < 200; ++s) {
    const std::uint64_t seen = obs::snapshotMetrics().counter("test.race");
    EXPECT_GE(seen, previous);
    EXPECT_LE(seen, kTotal);
    previous = seen;
  }
  for (std::thread& w : workers) {
    w.join();
  }
  EXPECT_EQ(obs::snapshotMetrics().counter("test.race"), kTotal);
}

// --------------------------------------------------------------- labeled

TEST_F(ObsMetrics, LabeledCountersComposeSeriesNames) {
  const obs::MetricId alice = obs::counterId("test.lbl", "tenant", "alice");
  const obs::MetricId bob = obs::counterId("test.lbl", "tenant", "bob");
  EXPECT_NE(alice, bob);
  EXPECT_EQ(alice, obs::counterId("test.lbl", "tenant", "alice"));
  obs::addCounter(alice, 3);
  obs::addCounter(bob, 4);
  const auto snapshot = obs::snapshotMetrics();
  EXPECT_EQ(snapshot.counter("test.lbl{tenant=alice}"), 3u);
  EXPECT_EQ(snapshot.counter("test.lbl{tenant=bob}"), 4u);
  EXPECT_EQ(snapshot.counter("test.lbl"), 0u);  // the bare name is distinct
}

// The labeled path rides the same shard/retired merge as plain counters:
// per-tenant totals must be exact even when every writer thread has
// already exited by snapshot time.
TEST_F(ObsMetrics, LabeledCountersMergeRetiredThreadsExactly) {
  const obs::MetricId alice = obs::counterId("test.lblret", "tenant", "alice");
  const obs::MetricId bob = obs::counterId("test.lblret", "tenant", "bob");
  constexpr int kThreads = 6;
  constexpr int kIncrements = 5000;
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([alice, bob, t] {
        for (int i = 0; i < kIncrements; ++i) {
          obs::addCounter(t % 2 == 0 ? alice : bob);
        }
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
  }
  const auto snapshot = obs::snapshotMetrics();
  EXPECT_EQ(snapshot.counter("test.lblret{tenant=alice}"),
            3u * kIncrements);
  EXPECT_EQ(snapshot.counter("test.lblret{tenant=bob}"), 3u * kIncrements);
}

// Hostile label cardinality (a tenant name per connection, say) must not
// crash or throw on the recording path: once the table fills, new label
// values degrade to the shared {tenant=_other_} aggregation bucket that
// was reserved at the first labeled registration.
TEST_F(ObsMetrics, LabeledRegistrationOverflowsToAggregationBucket) {
  const obs::MetricId overflow = obs::counterId("test.ovf", "tenant", "_other_");
  std::uint64_t overflowed = 0;
  for (int i = 0; i < 400; ++i) {
    const obs::MetricId id =
        obs::counterId("test.ovf", "tenant", "t" + std::to_string(i));
    obs::addCounter(id);
    if (id == overflow) {
      ++overflowed;
    }
  }
  ASSERT_GT(overflowed, 0u) << "400 label values never exhausted the table";
  const auto snapshot = obs::snapshotMetrics();
  EXPECT_EQ(snapshot.counter("test.ovf{tenant=_other_}"), overflowed);
  // The series registered before exhaustion stay exact.
  EXPECT_EQ(snapshot.counter("test.ovf{tenant=t0}"), 1u);
}

// A full table stays full for the life of the process, so the next two
// tests fill it in a child process that must exit cleanly (an exception
// escaping registration fails it too).
TEST_F(ObsMetrics, LabeledFloodLeavesRoomForUnlabeledNames) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        for (int n = 0; n < 64; ++n) {
          for (int v = 0; v < 64; ++v) {
            (void)obs::counterId("test.flood" + std::to_string(n), "tenant",
                                 "t" + std::to_string(v));
          }
        }
        obs::addCounter(obs::counterId("test.after_flood"), 5);
        const auto snapshot = obs::snapshotMetrics();
        const auto labeled = std::count_if(
            snapshot.counters.begin(), snapshot.counters.end(),
            [](const obs::CounterValue& c) {
              return c.name.find('{') != std::string::npos;
            });
        std::exit(labeled >= 64 && snapshot.counter("test.after_flood") == 5
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST_F(ObsMetrics, UnlabeledNamesPastCapacityShareTheOverflowSeries) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        for (int i = 0; i < 300; ++i) {
          obs::addCounter(obs::counterId("test.many" + std::to_string(i)));
        }
        const auto snapshot = obs::snapshotMetrics();
        std::exit(snapshot.counter("test.many0") == 1 &&
                          snapshot.counter("obs.overflow") > 0
                      ? 0
                      : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST_F(ObsMetrics, HistogramQuantilesUseBucketUpperBounds) {
  const obs::MetricId id = obs::histogramId("test.lat", "tenant", "alice");
  for (int i = 0; i < 100; ++i) {
    obs::recordLatency(id, 100);  // bit_width(100) = 7 -> [64, 127]
  }
  for (int i = 0; i < 10; ++i) {
    obs::recordLatency(id, 1000000);  // bit_width = 20 -> [524288, 1048575]
  }
  const auto snapshot = obs::snapshotMetrics();
  const obs::HistogramValue* hist =
      histogramNamed(snapshot, "test.lat{tenant=alice}");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 110u);
  EXPECT_EQ(hist->quantileUpperNanos(0.50), 127u);
  EXPECT_EQ(hist->quantileUpperNanos(0.95), 1048575u);
  EXPECT_EQ(hist->quantileUpperNanos(0.99), 1048575u);

  const obs::HistogramValue* empty =
      histogramNamed(snapshot, "test.lat{tenant=alice}");
  ASSERT_NE(empty, nullptr);
  std::array<std::uint64_t, obs::kHistogramBuckets> zeros{};
  EXPECT_EQ(obs::latencyQuantileUpperNanos(zeros, 0, 0.5), 0u);
}

// Every digest edge has a specified answer: empty digests and empty bucket
// spans answer 0, a single-bucket digest answers that bucket's bound for
// every quantile, and a degenerate digest (count larger than the bucket
// sum — e.g. a trimmed snapshot) answers the bound of the last OCCUPIED
// bucket, never the bound of a trailing empty slot.
TEST_F(ObsMetrics, QuantileEdgesAreSpecified) {
  // Empty digest in both shapes: zero count, and an empty bucket span.
  std::array<std::uint64_t, obs::kHistogramBuckets> zeros{};
  EXPECT_EQ(obs::latencyQuantileUpperNanos(zeros, 0, 0.0), 0);
  EXPECT_EQ(obs::latencyQuantileUpperNanos(zeros, 0, 1.0), 0);
  EXPECT_EQ(obs::latencyQuantileUpperNanos({}, 0, 0.5), 0);
  EXPECT_EQ(obs::latencyQuantileUpperNanos({}, 5, 0.5), 0);

  // A count with all-zero buckets behaves like an empty digest, not like
  // an observation in the last bucket.
  EXPECT_EQ(obs::latencyQuantileUpperNanos(zeros, 7, 0.5), 0);

  // Single-bucket digests: every quantile answers that bucket's bound.
  const std::array<std::uint64_t, 1> only0{{9}};
  EXPECT_EQ(obs::latencyQuantileUpperNanos(only0, 9, 0.0), 0);
  EXPECT_EQ(obs::latencyQuantileUpperNanos(only0, 9, 1.0), 0);
  const std::array<std::uint64_t, 3> only2{{0, 0, 7}};
  EXPECT_EQ(obs::latencyQuantileUpperNanos(only2, 7, 0.0), 3);
  EXPECT_EQ(obs::latencyQuantileUpperNanos(only2, 7, 0.5), 3);
  EXPECT_EQ(obs::latencyQuantileUpperNanos(only2, 7, 1.0), 3);

  // Degenerate digest: count exceeds the bucket sum (trailing buckets
  // trimmed away). High quantiles land on the last occupied bucket.
  const std::array<std::uint64_t, 6> trimmed{{0, 4, 2, 0, 0, 0}};
  EXPECT_EQ(obs::latencyQuantileUpperNanos(trimmed, 100, 0.99), 3);
  EXPECT_EQ(obs::latencyQuantileUpperNanos(trimmed, 100, 0.01), 1);

  // Quantiles outside [0, 1] clamp instead of indexing out of range.
  const std::array<std::uint64_t, 3> spread{{1, 1, 1}};
  EXPECT_EQ(obs::latencyQuantileUpperNanos(spread, 3, -0.5), 0);
  EXPECT_EQ(obs::latencyQuantileUpperNanos(spread, 3, 1.5), 3);
}

// A STATS snapshot runs concurrently with labeled writers and fetch-max
// gauge updates; every intermediate snapshot must be consistent (monotone
// counters, gauge never above the true maximum) and the final state exact.
TEST_F(ObsMetrics, LabeledWritersAndMaxGaugeSurviveConcurrentSnapshots) {
  const obs::MetricId alice = obs::counterId("test.lblrace", "tenant", "alice");
  const obs::MetricId bob = obs::counterId("test.lblrace", "tenant", "bob");
  const obs::MetricId gauge = obs::gaugeId("test.lblrace.highwater");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([alice, bob, gauge, t, &go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kIncrements; ++i) {
        obs::addCounter(t % 2 == 0 ? alice : bob);
        obs::maxGauge(gauge, t * kIncrements + i);
      }
    });
  }
  go.store(true, std::memory_order_release);
  constexpr std::uint64_t kPerTenant =
      static_cast<std::uint64_t>(kThreads / 2) * kIncrements;
  constexpr std::int64_t kMaxGauge = (kThreads - 1) * kIncrements +
                                     (kIncrements - 1);
  std::uint64_t prevAlice = 0;
  for (int s = 0; s < 100; ++s) {
    const auto snapshot = obs::snapshotMetrics();
    const std::uint64_t seen = snapshot.counter("test.lblrace{tenant=alice}");
    EXPECT_GE(seen, prevAlice);
    EXPECT_LE(seen, kPerTenant);
    EXPECT_LE(gaugeValue(snapshot, "test.lblrace.highwater"), kMaxGauge);
    prevAlice = seen;
  }
  for (std::thread& w : workers) {
    w.join();
  }
  const auto snapshot = obs::snapshotMetrics();
  EXPECT_EQ(snapshot.counter("test.lblrace{tenant=alice}"), kPerTenant);
  EXPECT_EQ(snapshot.counter("test.lblrace{tenant=bob}"), kPerTenant);
  EXPECT_EQ(gaugeValue(snapshot, "test.lblrace.highwater"), kMaxGauge);
}

// ---------------------------------------------------------------- trace

// Deterministic test clock: starts at 1 ms, advances 500 ns per reading.
std::int64_t gFakeNow = 0;
std::int64_t fakeClock() noexcept {
  const std::int64_t t = gFakeNow;
  gFakeNow += 500;
  return t;
}

/// Constant test clock: every span starts at the same instant and lasts 0.
std::int64_t constantClock() noexcept { return 7000; }

std::string traceText() {
  std::ostringstream out;
  obs::writeTrace(out);
  return out.str();
}

std::string flightDumpText() {
  std::ostringstream out;
  obs::writeFlightTrace(out);
  return out.str();
}

std::string goldenPath() {
  return std::string(ROBUST_TEST_DATA_DIR) + "/obs_trace_golden.json";
}

TEST_F(ObsTrace, ExportMatchesGoldenFileWithNestingAndThreadIds) {
  gFakeNow = 1'000'000;
  obs::detail::setClockForTesting(&fakeClock);
  {
    const obs::Span outer("outer");
    {
      const obs::Span inner("inner");
    }
  }
  std::thread worker([] {
    const obs::Span span("worker");
  });
  worker.join();

  std::ostringstream out;
  obs::writeTrace(out);

  std::ifstream golden(goldenPath());
  ASSERT_TRUE(golden.is_open()) << "missing golden file " << goldenPath();
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(out.str(), expected.str())
      << "trace export drifted from the golden file; if the change is "
         "intentional, regenerate tests/data/obs_trace_golden.json";

  // The golden file itself must be loadable Chrome trace JSON.
  const auto doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.isObject());
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 3u);
  // Span nesting: "outer" encloses "inner" on the same dense tid 1; the
  // worker thread gets tid 2 (ordered by first span start).
  EXPECT_EQ(events->array[0].find("name")->string, "outer");
  EXPECT_EQ(events->array[1].find("name")->string, "inner");
  EXPECT_EQ(events->array[2].find("name")->string, "worker");
  EXPECT_EQ(events->array[0].find("tid")->number, 1.0);
  EXPECT_EQ(events->array[1].find("tid")->number, 1.0);
  EXPECT_EQ(events->array[2].find("tid")->number, 2.0);
  const double outerTs = events->array[0].find("ts")->number;
  const double outerEnd = outerTs + events->array[0].find("dur")->number;
  const double innerTs = events->array[1].find("ts")->number;
  const double innerEnd = innerTs + events->array[1].find("dur")->number;
  EXPECT_LE(outerTs, innerTs);
  EXPECT_GE(outerEnd, innerEnd);
}

TEST_F(ObsTrace, DisabledSpansRecordNothing) {
  obs::setEnabled(false);
  {
    const obs::Span span("invisible");
  }
  obs::setEnabled(true);
  std::ostringstream out;
  obs::writeTrace(out);
  EXPECT_EQ(out.str().find("invisible"), std::string::npos);
}

TEST_F(ObsTrace, ClearTraceDiscardsRecordedSpans) {
  {
    const obs::Span span("to_be_cleared");
  }
  obs::clearTrace();
  std::ostringstream out;
  obs::writeTrace(out);
  EXPECT_EQ(out.str().find("to_be_cleared"), std::string::npos);
}

// Records that tie on (start, duration) serialize in the order they were
// recorded, in both recorders: the rings unroll oldest first and the one
// serializer sorts stably.
TEST_F(ObsTrace, TiedSpansSerializeInRecordingOrder) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    char buf[8];
    for (int i = 0; i < 40; ++i) {
      std::snprintf(buf, sizeof(buf), "n%02d", i);
      out.emplace_back(buf);
    }
    return out;
  }();
  obs::detail::setClockForTesting(&constantClock);
  for (const std::string& name : names) {
    const obs::Span span(name.c_str());
    obs::recordFlight(name.c_str(), 1, obs::detail::nowNanos(), 0);
  }
  obs::detail::setClockForTesting(nullptr);
  for (const std::string& dump : {traceText(), flightDumpText()}) {
    const auto doc = obs::json::parse(dump);
    const auto* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(events->array[i].find("name")->string, names[i]) << dump;
    }
  }
}

// Past its capacity a thread's trace ring keeps its newest spans.
TEST_F(ObsTrace, RingKeepsNewestSpansPastCapacity) {
  gFakeNow = 1000;
  obs::detail::setClockForTesting(&fakeClock);
  for (int i = 0; i < 3; ++i) {
    const obs::Span span("ring.oldest");
  }
  for (std::size_t i = 0; i < obs::kMaxRecordsPerThread; ++i) {
    const obs::Span span("ring.newest");
  }
  obs::detail::setClockForTesting(nullptr);
  const std::string dump = traceText();
  EXPECT_EQ(dump.find("ring.oldest"), std::string::npos);
  const std::string newest = "\"name\":\"ring.newest\"";
  std::size_t count = 0;
  for (std::size_t at = dump.find(newest); at != std::string::npos;
       at = dump.find(newest, at + newest.size())) {
    ++count;
  }
  EXPECT_EQ(count, obs::kMaxRecordsPerThread);
}

// ---------------------------------------------------------------- flight

using ObsFlight = ObsFixture;

// The flight recorder runs independently of obs::enabled(): it is the
// always-on crash-context ring, gated only by its capacity.
TEST_F(ObsFlight, RecordsWithMetricsDisabled) {
  obs::setEnabled(false);
  obs::recordFlight("flight.test", 7, 1000, 250);
  obs::setEnabled(true);
  EXPECT_EQ(obs::flightRecordCount(), 1u);
  const std::string dump = flightDumpText();
  EXPECT_NE(dump.find("\"flight.test\""), std::string::npos);
  EXPECT_NE(dump.find("\"requestId\":7"), std::string::npos);
  EXPECT_NE(dump.find("\"cat\":\"flight\""), std::string::npos);
}

// The ring keeps the NEWEST capacity records; older ones are overwritten
// in place and the dump is chronological.
TEST_F(ObsFlight, RingWrapsKeepingNewestRecords) {
  obs::setFlightCapacity(4);
  for (int i = 0; i < 7; ++i) {
    obs::recordFlight("flight.wrap", static_cast<std::uint64_t>(i),
                      1000 * (i + 1), 10);
  }
  EXPECT_EQ(obs::flightRecordCount(), 4u);
  const std::string dump = flightDumpText();
  EXPECT_EQ(dump.find("\"requestId\":2"), std::string::npos);  // overwritten
  for (int i = 3; i < 7; ++i) {
    EXPECT_NE(dump.find("\"requestId\":" + std::to_string(i)),
              std::string::npos);
  }
  // Chronological within the thread: request 3's event precedes request 6's.
  EXPECT_LT(dump.find("\"requestId\":3"), dump.find("\"requestId\":6"));
}

/// Records one flight span timed by two clock reads, as robustd's pool
/// workers do around each request.
void recordTimedFlight(const char* name, std::uint64_t requestId) {
  const std::int64_t start = obs::detail::nowNanos();
  obs::recordFlight(name, requestId, start, obs::detail::nowNanos() - start);
}

/// The requestIds of a flight dump, in serialized order.
std::vector<double> dumpedRequestIds() {
  const auto doc = obs::json::parse(flightDumpText());
  std::vector<double> ids;
  for (const auto& event : doc.find("traceEvents")->array) {
    ids.push_back(event.find("args")->find("requestId")->number);
  }
  return ids;
}

// Raising or lowering the capacity of a wrapped ring keeps its newest
// records in recording order (the records tie on start, so the dump order
// is the ring order).
TEST_F(ObsFlight, CapacityChangesKeepNewestRecordsInOrder) {
  const auto record = [](std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t id = first; id <= last; ++id) {
      obs::recordFlight("flight.resize", id, 1000, 10);
    }
  };
  obs::setFlightCapacity(4);
  record(0, 6);
  obs::setFlightCapacity(8);
  record(7, 8);
  EXPECT_EQ(dumpedRequestIds(), (std::vector<double>{3, 4, 5, 6, 7, 8}));
  obs::setFlightCapacity(2);
  record(9, 9);
  EXPECT_EQ(dumpedRequestIds(), (std::vector<double>{8, 9}));
  obs::setFlightCapacity(obs::kMaxRecordsPerThread + 1);
  EXPECT_EQ(obs::flightCapacity(), obs::kMaxRecordsPerThread);
}

// ROBUST_FLIGHT is read once at startup, so each case re-executes the test
// binary with the variable set (threadsafe death-test style) and checks the
// capacity the child started with. A plain TEST: the fixture would reset
// the capacity in the child.
TEST(ObsFlightEnv, CapacityIsBoundedAndMalformedValuesAreDiagnosed) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto expectStartupCapacity = [](const char* value,
                                        std::size_t expected,
                                        const char* stderrPattern) {
    ASSERT_EQ(::setenv("ROBUST_FLIGHT", value, 1), 0);
    EXPECT_EXIT(std::exit(obs::flightCapacity() == expected ? 0 : 1),
                ::testing::ExitedWithCode(0), stderrPattern)
        << "ROBUST_FLIGHT=" << value;
    ::unsetenv("ROBUST_FLIGHT");
  };
  const char* const kIgnored = "obs: ignoring ROBUST_FLIGHT=";
  for (const char* bad : {"-1", "abc", "65537", "18446744073709551616", "+8",
                          " 8", "8k"}) {
    expectStartupCapacity(bad, obs::kDefaultFlightCapacity, kIgnored);
  }
  expectStartupCapacity("0", 0, "");
  expectStartupCapacity("8", 8, "");
  expectStartupCapacity("65536", obs::kMaxRecordsPerThread, "");
}

TEST_F(ObsFlight, ZeroCapacityDisablesRecording) {
  obs::setFlightCapacity(0);
  EXPECT_FALSE(obs::flightEnabled());
  obs::recordFlight("flight.off", 1, 100, 10);
  gFakeNow = 1000000;
  obs::detail::setClockForTesting(&fakeClock);
  recordTimedFlight("flight.off_span", 2);
  obs::detail::setClockForTesting(nullptr);
  EXPECT_EQ(obs::flightRecordCount(), 0u);
}

TEST_F(ObsFlight, RecordFlightMeasuresWithTestClock) {
  gFakeNow = 1000000;
  obs::detail::setClockForTesting(&fakeClock);
  recordTimedFlight("flight.span", 42);  // two clock reads, 500 ns apart
  obs::detail::setClockForTesting(nullptr);
  const std::string dump = flightDumpText();
  EXPECT_NE(dump.find("\"name\":\"flight.span\""), std::string::npos);
  EXPECT_NE(dump.find("\"ts\":1000.000"), std::string::npos);
  EXPECT_NE(dump.find("\"dur\":0.500"), std::string::npos);
  EXPECT_NE(dump.find("\"requestId\":42"), std::string::npos);
}

// Two identical recording sequences under the test clock serialize to
// byte-identical documents, and records from exited threads survive into
// the dump (the retired-flight fold).
TEST_F(ObsFlight, DumpIsDeterministicAndIncludesRetiredThreads) {
  const auto run = [] {
    obs::clearFlight();
    gFakeNow = 5000;
    obs::detail::setClockForTesting(&fakeClock);
    std::thread worker([] {
      obs::recordFlight("flight.worker", 11, 2000, 100);
    });
    worker.join();  // the worker's ring retires at thread exit
    recordTimedFlight("flight.main", 12);
    obs::detail::setClockForTesting(nullptr);
    return flightDumpText();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second) << "flight dump is not deterministic";
  EXPECT_NE(first.find("\"flight.worker\""), std::string::npos);
  EXPECT_NE(first.find("\"flight.main\""), std::string::npos);
  // Both threads appear, remapped to dense tids 1 and 2 (the retired
  // worker sorts first: its record starts earliest).
  EXPECT_NE(first.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(first.find("\"tid\":2"), std::string::npos);
}

TEST_F(ObsFlight, ClearFlightDropsEverything) {
  obs::recordFlight("flight.gone", 1, 100, 10);
  obs::clearFlight();
  EXPECT_EQ(obs::flightRecordCount(), 0u);
  EXPECT_EQ(flightDumpText().find("flight.gone"), std::string::npos);
}

// ---------------------------------------------------------------- report

TEST_F(ObsReport, RunReportRoundTripsThroughTheValidatorSchema) {
  obs::addCounter(obs::counterId("test.report_counter"), 5);
  obs::setGauge(obs::gaugeId("test.report_gauge"), -3);
  obs::recordLatency(obs::histogramId("test.report_hist"), 1024);

  obs::RunReport report;
  report.tool = "test_obs";
  report.info.emplace_back("flavor", "unit \"quoted\"");
  report.benchmarks.push_back(obs::BenchResult{"bench/one", 1.5, "ns"});
  std::ostringstream out;
  obs::writeRunReport(out, report);

  const auto doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.find("schema")->string, obs::kRunReportSchemaName);
  EXPECT_EQ(doc.find("schema_version")->number,
            static_cast<double>(obs::kRunReportSchemaVersion));
  EXPECT_EQ(doc.find("tool")->string, "test_obs");
  EXPECT_EQ(doc.find("info")->find("flavor")->string, "unit \"quoted\"");
  const auto* benchmarks = doc.find("benchmarks");
  ASSERT_EQ(benchmarks->array.size(), 1u);
  EXPECT_EQ(benchmarks->array[0].find("name")->string, "bench/one");
  EXPECT_EQ(benchmarks->array[0].find("value")->number, 1.5);
  const auto* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->find("counters")->find("test.report_counter")->number,
            5.0);
  EXPECT_EQ(metrics->find("gauges")->find("test.report_gauge")->number, -3.0);
  const auto* hist = metrics->find("histograms")->find("test.report_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->number, 1.0);
  EXPECT_EQ(hist->find("sum_nanos")->number, 1024.0);
  // 1024 = 2^10: bit_width = 11. Trailing zeros are trimmed, so the last
  // entry is the populated bucket.
  ASSERT_EQ(hist->find("buckets")->array.size(), 12u);
  EXPECT_EQ(hist->find("buckets")->array[11].number, 1.0);
}

TEST_F(ObsReport, MetricsSectionCanBeOmitted) {
  obs::RunReport report;
  report.tool = "test_obs";
  report.includeMetrics = false;
  std::ostringstream out;
  obs::writeRunReport(out, report);
  const auto doc = obs::json::parse(out.str());
  EXPECT_EQ(doc.find("metrics"), nullptr);
}

TEST_F(ObsReport, RawSectionsAppendAsTopLevelKeys) {
  obs::RunReport report;
  report.tool = "test_obs";
  report.includeMetrics = false;
  report.sections.emplace_back(
      "curve", "{\"schema\": \"robust.curve\", \"samples\": 3}");
  report.sections.emplace_back("extra", "[1, 2, 3]");
  std::ostringstream out;
  obs::writeRunReport(out, report);
  const auto doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.isObject());
  const auto* curve = doc.find("curve");
  ASSERT_NE(curve, nullptr);
  EXPECT_EQ(curve->find("schema")->string, "robust.curve");
  EXPECT_EQ(curve->find("samples")->number, 3.0);
  const auto* extra = doc.find("extra");
  ASSERT_NE(extra, nullptr);
  ASSERT_EQ(extra->array.size(), 3u);
}

TEST_F(ObsReport, RawSectionKeyCollisionsAreLoudErrors) {
  obs::RunReport report;
  report.tool = "test_obs";
  report.includeMetrics = false;
  report.sections.emplace_back("metrics", "{}");
  std::ostringstream out;
  EXPECT_THROW(obs::writeRunReport(out, report), std::invalid_argument);
  report.sections = {{"curve", "{}"}, {"curve", "{}"}};
  std::ostringstream out2;
  EXPECT_THROW(obs::writeRunReport(out2, report), std::invalid_argument);
}

TEST_F(ObsReport, ControlCharactersRoundTripThroughWriterAndReader) {
  // Every byte 0x00..0x1F lands in an info value; the writer escapes the
  // non-shorthand ones as \u00XX, which the reader must decode (a report
  // whose strings contain a tab or CR used to be rejected by our own
  // parser).
  std::string all;
  for (int b = 0x00; b <= 0x1f; ++b) {
    all.push_back(static_cast<char>(b));
  }
  obs::RunReport report;
  report.tool = "test_obs";
  report.includeMetrics = false;
  report.info.emplace_back("controls", all);
  report.info.emplace_back("mixed", std::string("a\tb\rc\x01d"));
  std::ostringstream out;
  obs::writeRunReport(out, report);

  const auto doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.isObject());
  const auto* controls = doc.find("info")->find("controls");
  ASSERT_NE(controls, nullptr);
  EXPECT_EQ(controls->string, all);
  EXPECT_EQ(doc.find("info")->find("mixed")->string, "a\tb\rc\x01d");
}

TEST_F(ObsReport, JsonLiteDecodesBmpEscapesAndRejectsSurrogates) {
  // BMP escapes decode to UTF-8 across all three encoding widths.
  EXPECT_EQ(obs::json::parse("\"\\u0041\"").string, "A");
  EXPECT_EQ(obs::json::parse("\"\\u00e9\"").string, "\xc3\xa9");      // é
  EXPECT_EQ(obs::json::parse("\"\\u20ac\"").string, "\xe2\x82\xac");  // €
  EXPECT_EQ(obs::json::parse("\"\\uFFFD\"").string, "\xef\xbf\xbd");
  // Surrogate halves and malformed hex are loud errors, not mojibake.
  EXPECT_THROW((void)obs::json::parse("\"\\ud800\""), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("\"\\udfff\""), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("\"\\u-12f\""), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("\"\\u12\""), std::runtime_error);
  EXPECT_THROW((void)obs::json::parse("\"\\u12g4\""), std::runtime_error);
}

// ----------------------------------------------------- metric-lane metrics

/// A compiled problem whose first feature binds tightly and whose remaining
/// rows are far from their bounds, so the metric lane's incumbent prune
/// provably skips every row after the first.
core::CompiledProblem pruneHeavyProblem() {
  constexpr std::size_t kRows = 40;
  constexpr std::size_t kDims = 8;
  core::ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin = num::Vec(kDims, 1.0);
  for (std::size_t r = 0; r < kRows; ++r) {
    num::Vec weights(kDims, 1.0 + static_cast<double>(r % 3));
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < kDims; ++k) {
      atOrigin += weights[k] * spec.parameter.origin[k];
    }
    spec.features.push_back(core::PerformanceFeature{
        "F_" + std::to_string(r),
        core::ImpactFunction::affine(std::move(weights)),
        core::ToleranceBounds::atMost(atOrigin + (r == 0 ? 0.01 : 100.0))});
  }
  return core::CompiledProblem::compile(std::move(spec));
}

TEST_F(ObsMetrics, MetricLaneRecordsDispatchAndPruneMetrics) {
  const auto problem = pruneHeavyProblem();
  const num::Vec origin(8, 1.001);  // non-default: forces the kernel pass
  core::AnalysisInstance instance;
  instance.origin = origin;

  num::simd::setTarget(num::simd::Target::Scalar);
  (void)problem.evaluateMetric(instance);
  auto snapshot = obs::snapshotMetrics();
  EXPECT_EQ(snapshot.counter("core.kernel.dispatch.scalar"), 1u);
  EXPECT_EQ(snapshot.counter("core.kernel.dispatch.avx2"), 0u);
  // Row 0 binds; every later row's gap lower bound exceeds the incumbent.
  EXPECT_EQ(snapshot.counter("core.prune.rows_skipped"), 39u);
  EXPECT_EQ(gaugeValue(snapshot, "core.prune.effectiveness"), 39 * 100 / 40);

  if (num::simd::avx2Available()) {
    num::simd::setTarget(num::simd::Target::Avx2);
    (void)problem.evaluateMetric(instance);
    snapshot = obs::snapshotMetrics();
    EXPECT_EQ(snapshot.counter("core.kernel.dispatch.avx2"), 1u);
  }
  num::simd::setTarget(num::simd::avx2Available() ? num::simd::Target::Avx2
                                                  : num::simd::Target::Scalar);
}

TEST_F(ObsMetrics, MetricLaneRecordsNothingWhenDisabled) {
  const auto problem = pruneHeavyProblem();
  const num::Vec origin(8, 1.001);
  core::AnalysisInstance instance;
  instance.origin = origin;
  obs::setEnabled(false);
  (void)problem.evaluateMetric(instance);
  obs::setEnabled(true);
  const auto snapshot = obs::snapshotMetrics();
  EXPECT_EQ(snapshot.counter("core.kernel.dispatch.scalar"), 0u);
  EXPECT_EQ(snapshot.counter("core.kernel.dispatch.avx2"), 0u);
  EXPECT_EQ(snapshot.counter("core.prune.rows_skipped"), 0u);
  EXPECT_EQ(gaugeValue(snapshot, "core.prune.effectiveness"), 0);
}

TEST_F(ObsMetrics, HiperdMetricLaneRecordsAnalyzeCounter) {
  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, 2003);
  const hiperd::CompiledScenario compiled = generated.scenario.compile();
  Pcg32 rng(4);
  const auto mapping = sched::randomMapping(
      generated.scenario.graph.applicationCount(),
      generated.scenario.machines, rng);
  (void)compiled.analyzeMetric(mapping);
  const auto snapshot = obs::snapshotMetrics();
  EXPECT_EQ(snapshot.counter("hiperd.analyze_metric"), 1u);
  EXPECT_GE(snapshot.counter("core.kernel.dispatch.scalar") +
                snapshot.counter("core.kernel.dispatch.avx2"),
            1u);
}

// ------------------------------------------------------- streaming lane

/// A 30-instance file of perturbations around pruneHeavyProblem's origin,
/// removed on destruction.
class StreamObsFile {
 public:
  StreamObsFile() {
    path_ = (std::filesystem::temp_directory_path() /
             ("robust_obs_stream_" + std::to_string(::getpid()) + ".rbi"))
                .string();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    core::InstanceFileWriter writer(out, 8);
    std::vector<double> row(8);
    for (int i = 0; i < 30; ++i) {
      for (std::size_t k = 0; k < 8; ++k) {
        row[k] = 1.0 + 0.001 * static_cast<double>(i + 1);
      }
      writer.append(row);
    }
    writer.finish();
  }
  ~StreamObsFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST_F(ObsMetrics, StreamLaneRecordsShardsInstancesAndMmapBytes) {
  const StreamObsFile file;
  const auto problem = pruneHeavyProblem();
  core::StreamOptions options;
  options.shardInstances = 7;  // 30 instances -> ceil(30/7) = 5 shards
  options.threads = 2;
  const core::StreamResult result =
      core::analyzeStream(problem, file.path(), options);
  EXPECT_EQ(result.instances, 30u);
  EXPECT_EQ(result.shards, 5u);

  const auto snapshot = obs::snapshotMetrics();
  EXPECT_EQ(snapshot.counter("core.stream.shards"), 5u);
  EXPECT_EQ(snapshot.counter("core.stream.instances"), 30u);
  EXPECT_EQ(snapshot.counter("core.stream.instances_screened"),
            result.screenedInstances);
  // The shard-queue high-water mark is the whole queue: every shard is
  // enqueued up front and drained by ticket.
  EXPECT_EQ(gaugeValue(snapshot, "core.stream.queue_high_water"), 5);
  const std::int64_t inflight =
      gaugeValue(snapshot, "core.stream.inflight_high_water");
  EXPECT_GE(inflight, 1);
  EXPECT_LE(inflight, 2);
  // Every payload byte travels through exactly one window: 64-byte
  // header + 5 shard views, mapped or read depending on the platform.
  const std::uint64_t moved = snapshot.counter("io.mmap.bytes_mapped") +
                              snapshot.counter("io.mmap.bytes_read");
  EXPECT_EQ(moved, 64u + 30u * 8u * 8u);
}

TEST_F(ObsMetrics, StreamLaneRecordsNothingWhenDisabled) {
  const StreamObsFile file;
  const auto problem = pruneHeavyProblem();
  obs::setEnabled(false);
  const core::StreamResult result =
      core::analyzeStream(problem, file.path(), {});
  obs::setEnabled(true);
  EXPECT_EQ(result.instances, 30u);  // the answer itself is unaffected
  const auto snapshot = obs::snapshotMetrics();
  EXPECT_EQ(snapshot.counter("core.stream.shards"), 0u);
  EXPECT_EQ(snapshot.counter("core.stream.instances"), 0u);
  EXPECT_EQ(snapshot.counter("core.stream.instances_screened"), 0u);
  EXPECT_EQ(snapshot.counter("io.mmap.bytes_mapped"), 0u);
  EXPECT_EQ(snapshot.counter("io.mmap.bytes_read"), 0u);
  EXPECT_EQ(gaugeValue(snapshot, "core.stream.queue_high_water"), 0);
  EXPECT_EQ(gaugeValue(snapshot, "core.stream.inflight_high_water"), 0);
}

TEST_F(ObsMetrics, AnnealingAndGeneticFlushTheirSearchWork) {
  // Every search driver opens its span and flushes its evaluator, not only
  // localSearch; the probe counters stay localSearch-only.
  Pcg32 rng(3);
  const auto etc = sched::generateEtc(sched::EtcOptions{}, rng);
  const auto start = sched::roundRobinMapping(etc);
  const auto objective = sched::EtcObjective::negatedRobustness(1.2);
  sched::AnnealingOptions annealing;
  annealing.iterations = 500;
  (void)sched::simulatedAnnealing(etc, start, objective, annealing);
  sched::GeneticOptions genetic;
  genetic.generations = 2;
  (void)sched::geneticAlgorithm(etc, start, objective, genetic);
  const auto snapshot = obs::snapshotMetrics();
  EXPECT_GT(snapshot.counter("sched.inc_moves"), 0u);
  EXPECT_GT(snapshot.counter("sched.inc_commits"), 0u);
  EXPECT_EQ(snapshot.counter("sched.search_probes"), 0u);
  std::ostringstream trace;
  obs::writeTrace(trace);
  EXPECT_NE(trace.str().find("\"sched.anneal\""), std::string::npos);
  EXPECT_NE(trace.str().find("\"sched.genetic\""), std::string::npos);
}

// ---------------------------------------------------------------- overhead

// The acceptance pin: with recording off, the instrumentation added to the
// localSearch round must cost < 1% of the round. Measured empirically: the
// per-op cost of the disabled-mode guard pattern (Span + plain counter +
// labeled counter — the labeled series added for per-tenant introspection
// ride the same guard), times a conservative ops-per-round bound (the
// round-level instrumentation is a handful of guarded sites; the per-probe
// loop carries only plain integer stats increments), against the measured
// round time on the BM_LocalSearchRound default instance (20 apps x 5
// machines). The flight recorder is compiled in at its default ring
// capacity during the measurement — it instruments robustd's frame/work
// boundaries, never the search loop, so its cost must not appear here.
TEST(ObsOverhead, DisabledModeCostsUnderOnePercentOfSearchRound) {
  obs::setEnabled(false);
  obs::setFlightCapacity(obs::kDefaultFlightCapacity);
  ASSERT_TRUE(obs::flightEnabled());

  // Per-op cost of the disabled pattern, median of 5 batches.
  constexpr int kOps = 200000;
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    Stopwatch watch;
    for (int i = 0; i < kOps; ++i) {
      const obs::Span span("overhead.probe");
      if (obs::enabled()) [[unlikely]] {
        static const obs::MetricId kId = obs::counterId("overhead.counter");
        obs::addCounter(kId);
        static const obs::MetricId kLabeled =
            obs::counterId("overhead.labeled", "tenant", "probe");
        obs::addCounter(kLabeled);
      }
    }
    batches.push_back(static_cast<double>(watch.nanos()) / kOps);
  }
  std::sort(batches.begin(), batches.end());
  const double perOpNanos = batches[batches.size() / 2];

  // One localSearch round on the pinned instance, best of 20 (minimum is
  // the standard noise-robust estimator for a lower bound on the work).
  sched::EtcOptions options;
  options.apps = 20;
  options.machines = 5;
  Pcg32 rng(1);
  const auto etc = sched::generateEtc(options, rng);
  const auto start = sched::roundRobinMapping(etc);
  const auto objective = sched::EtcObjective::negatedRobustness(1.2);
  sched::LocalSearchOptions searchOptions;
  searchOptions.maxRounds = 1;
  searchOptions.threads = 1;
  double roundNanos = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 20; ++r) {
    Stopwatch watch;
    (void)sched::localSearch(etc, start, objective, searchOptions);
    roundNanos = std::min(roundNanos, static_cast<double>(watch.nanos()));
  }

  // The instrumentation a single round executes when disabled: the
  // sched.localSearch span, the round-counter guard, publishStats per
  // evaluator, and the handful of guards in the evaluation engine beneath —
  // bounded generously by 8 guarded ops.
  constexpr double kOpsPerRound = 8.0;
  const double overhead = kOpsPerRound * perOpNanos;
  EXPECT_LT(overhead, 0.01 * roundNanos)
      << "disabled-mode instrumentation cost " << overhead << " ns against a "
      << roundNanos << " ns round (per-op " << perOpNanos << " ns)";
}

}  // namespace
}  // namespace robust

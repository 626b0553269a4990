// Metrics registry + span recorder. One translation unit because the two
// share the per-thread shard machinery: a thread's counter slots and its
// two span rings (trace and flight) live in the same shard, registered once
// and retired together when the thread exits.
#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "robust/obs/json_lite.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"

namespace robust::obs {

namespace detail {
std::atomic<bool> gEnabled{false};
}  // namespace detail

namespace {

// Capacities sized for labeled series too: each distinct (name, label
// key, label value) consumes one slot, so the tables leave headroom for a
// realistic tenant population on top of the unlabeled instrumentation.
constexpr std::size_t kMaxCounters = 256;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 64;
/// Series that absorbs every registration past a table's capacity. The
/// last slot of each table is kept free for it.
constexpr std::string_view kOverflowName = "obs.overflow";

/// One completed span (32 bytes). Trace spans carry requestId 0.
struct SpanRecord {
  const char* name;         ///< string literal, never owned
  std::uint64_t requestId;  ///< wire correlation id (0 = none)
  std::int64_t startNs;
  std::int64_t durationNs;
};

/// One thread's bounded span ring, owner-written under `mutex` (contended
/// only by an export, clear or count). It grows lazily up to its capacity,
/// then overwrites the oldest record in place: a full ring never allocates.
struct SpanRing {
  std::mutex mutex;
  std::vector<SpanRecord> records;
  std::size_t next = 0;  ///< overwrite cursor: the oldest record once full

  /// Rotates the records into recording order (oldest first).
  void restoreOrder() {
    std::rotate(records.begin(),
                records.begin() + static_cast<std::ptrdiff_t>(next),
                records.end());
    next = 0;
  }

  void push(const SpanRecord& record, std::size_t capacity) {
    std::lock_guard lock(mutex);
    if (records.size() != capacity && next != 0) {
      // The capacity changed since this ring wrapped: at most once per
      // thread per change, restore order and keep the newest records.
      restoreOrder();
    }
    if (records.size() > capacity) {
      records.erase(records.begin(),
                    records.end() - static_cast<std::ptrdiff_t>(capacity));
    }
    if (records.size() < capacity) {
      records.push_back(record);
      return;
    }
    records[next] = record;
    if (++next == records.size()) {
      next = 0;
    }
  }
};

/// One thread's private slots. Owner-incremented with relaxed atomics; the
/// snapshot reads the same atomics, so concurrent merge is race-free. The
/// span rings are the only mutex-guarded part.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> histCount{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> histSum{};
  std::array<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>,
             kMaxHistograms>
      histBuckets{};
  std::uint32_t tid = 0;
  SpanRing trace;   ///< obs::Span, while enabled(); kMaxRecordsPerThread
  SpanRing flight;  ///< recordFlight, always on; flightCapacity()
};

/// Totals of threads that have exited (their shards are freed on exit, so
/// their contributions are folded in here, under the registry mutex).
struct RetiredTotals {
  std::array<std::uint64_t, kMaxCounters> counters{};
  std::array<std::uint64_t, kMaxHistograms> histCount{};
  std::array<std::uint64_t, kMaxHistograms> histSum{};
  std::array<std::array<std::uint64_t, kHistogramBuckets>, kMaxHistograms>
      histBuckets{};
};

/// One thread's records in recording order, tagged with its shard tid.
struct ThreadSpans {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> records;
};

/// One span recorder: the ring `ring` of every live shard plus the rings
/// of exited threads, at most `maxRetiredThreads` of them.
struct SpanRecorder {
  SpanRing Shard::*ring;
  std::size_t maxRetiredThreads;
  std::vector<ThreadSpans> retired{};
};

/// One kind's registered names; a metric's id is its index in `names`.
/// Labeled series may hold at most half of the capacity, and each labeled
/// (name, key) pair at most an eighth besides its "_other_" bucket, so
/// neither a flood of labeled names nor one hostile label crowds out the
/// unlabeled instrumentation or the other labeled series.
struct NameTable {
  std::size_t capacity;
  std::vector<std::string> names{};
  std::size_t labeled = 0;  ///< slots held by labeled series
};

struct Registry {
  std::mutex mutex;  ///< names, shard list, retired totals — never recording
  NameTable counterTable{kMaxCounters};
  NameTable gaugeTable{kMaxGauges};
  NameTable histogramTable{kMaxHistograms};
  std::vector<Shard*> shards;
  RetiredTotals retired;
  // Exited threads' trace rings are all kept; at most 64 flight rings are
  // (oldest dropped first), so thread churn cannot grow a post-mortem dump.
  SpanRecorder trace{&Shard::trace, SIZE_MAX};
  SpanRecorder flight{&Shard::flight, 64};
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges{};
  std::uint32_t nextTid = 1;
};

std::atomic<std::size_t> gFlightCapacity{kDefaultFlightCapacity};

/// Leaked singleton: thread_local shard handles retire through it during
/// thread (and process) teardown, so it must never be destroyed.
Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

void retireShard(Shard* shard) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (std::size_t i = 0; i < kMaxCounters; ++i) {
    reg.retired.counters[i] +=
        shard->counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kMaxHistograms; ++i) {
    reg.retired.histCount[i] +=
        shard->histCount[i].load(std::memory_order_relaxed);
    reg.retired.histSum[i] += shard->histSum[i].load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      reg.retired.histBuckets[i][b] +=
          shard->histBuckets[i][b].load(std::memory_order_relaxed);
    }
  }
  for (SpanRecorder* recorder : {&reg.trace, &reg.flight}) {
    SpanRing& ring = shard->*recorder->ring;
    if (ring.records.empty()) {
      continue;
    }
    if (recorder->retired.size() >= recorder->maxRetiredThreads) {
      recorder->retired.erase(recorder->retired.begin());
    }
    ring.restoreOrder();
    recorder->retired.push_back(
        ThreadSpans{shard->tid, std::move(ring.records)});
  }
  reg.shards.erase(std::find(reg.shards.begin(), reg.shards.end(), shard));
  delete shard;
}

struct ShardHandle {
  Shard* shard = nullptr;
  ~ShardHandle() {
    if (shard != nullptr) {
      retireShard(shard);
    }
  }
};

Shard& localShard() {
  thread_local ShardHandle handle;
  if (handle.shard == nullptr) {
    auto* shard = new Shard;
    Registry& reg = registry();
    std::lock_guard lock(reg.mutex);
    shard->tid = reg.nextTid++;
    reg.shards.push_back(shard);
    handle.shard = shard;
  }
  return *handle.shard;
}

std::optional<MetricId> findLocked(const NameTable& table,
                                   std::string_view name) {
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    if (table.names[i] == name) {
      return static_cast<MetricId>(i);
    }
  }
  return std::nullopt;
}

/// Number of registered series of the labeled (name, key) pair whose
/// names start with `prefix` ("name{key=").
std::size_t seriesWithPrefix(const NameTable& table, std::string_view prefix) {
  return static_cast<std::size_t>(std::count_if(
      table.names.begin(), table.names.end(),
      [&](const std::string& n) { return n.starts_with(prefix); }));
}

/// Looks `name` up, or appends it when the table has room for it: an
/// ordinary series never takes the last slot, and a labeled one (prefix
/// non-empty) also respects the labeled caps. The registry mutex must be
/// held.
std::optional<MetricId> findOrAddLocked(NameTable& table, std::string_view name,
                                        std::string_view labelPrefix = {}) {
  if (const auto id = findLocked(table, name)) {
    return id;
  }
  if (table.names.size() + 1 >= table.capacity) {
    return std::nullopt;
  }
  if (!labelPrefix.empty()) {
    if (table.labeled >= table.capacity / 2 ||
        seriesWithPrefix(table, labelPrefix) > table.capacity / 8) {
      return std::nullopt;
    }
    ++table.labeled;
  }
  table.names.emplace_back(name);
  return static_cast<MetricId>(table.names.size() - 1);
}

/// The reserved series for registrations past capacity. Always fits:
/// ordinary registrations stop one slot short of capacity.
MetricId overflowLocked(NameTable& table) {
  if (const auto id = findLocked(table, kOverflowName)) {
    return *id;
  }
  table.names.emplace_back(kOverflowName);
  return static_cast<MetricId>(table.names.size() - 1);
}

MetricId registerName(NameTable& table, std::string_view name) {
  std::lock_guard lock(registry().mutex);
  if (const auto id = findOrAddLocked(table, name)) {
    return *id;
  }
  return overflowLocked(table);
}

MetricId registerLabeled(NameTable& table, std::string_view name,
                         std::string_view key, std::string_view value) {
  const std::string prefix = std::string(name) + '{' + std::string(key) + '=';
  const std::string overflowName = labeledMetricName(name, key, "_other_");
  const std::string seriesName = labeledMetricName(name, key, value);
  std::lock_guard lock(registry().mutex);
  // Reserve the (name, key) aggregation bucket before the specific series:
  // once it exists, hostile label cardinality degrades to aggregation
  // under "_other_". Without room even for the bucket, the series lands in
  // the table's overflow series.
  const auto bucket = findOrAddLocked(table, overflowName, prefix);
  if (!bucket) {
    return overflowLocked(table);
  }
  if (const auto id = findOrAddLocked(table, seriesName, prefix)) {
    return *id;
  }
  return *bucket;
}

std::int64_t steadyNowNanos() noexcept;

std::int64_t (*gClockOverride)() noexcept = nullptr;

/// Environment bootstrap, run once before main: ROBUST_OBS turns recording
/// on; ROBUST_TRACE=<path> additionally writes the trace at process exit.
bool envTruthy(const char* value) {
  return value != nullptr &&
         (std::strcmp(value, "1") == 0 || std::strcmp(value, "on") == 0 ||
          std::strcmp(value, "true") == 0);
}

std::string& tracePathAtExit() {
  static std::string path;
  return path;
}

void writeTraceAtExit() {
  const std::string& path = tracePathAtExit();
  if (path.empty()) {
    return;
  }
  try {
    writeTrace(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs: failed to write ROBUST_TRACE file: %s\n",
                 e.what());
  }
}

const bool gEnvInitialized = [] {
  if (envTruthy(std::getenv("ROBUST_OBS"))) {
    detail::gEnabled.store(true, std::memory_order_relaxed);
  }
  if (const char* trace = std::getenv("ROBUST_TRACE");
      trace != nullptr && *trace != '\0') {
    detail::gEnabled.store(true, std::memory_order_relaxed);
    tracePathAtExit() = trace;
    std::atexit(writeTraceAtExit);
  }
  if (const char* flight = std::getenv("ROBUST_FLIGHT");
      flight != nullptr && *flight != '\0') {
    // A bare decimal in [0, kMaxRecordsPerThread]: no sign, no spaces.
    const char* end = flight + std::strlen(flight);
    std::size_t parsed = 0;
    const auto [stop, ec] = std::from_chars(flight, end, parsed);
    if (ec == std::errc{} && stop == end && parsed <= kMaxRecordsPerThread) {
      gFlightCapacity.store(parsed, std::memory_order_relaxed);
    } else {
      std::fprintf(stderr,
                   "obs: ignoring ROBUST_FLIGHT=%s (want 0..%zu records per "
                   "thread)\n",
                   flight, kMaxRecordsPerThread);
    }
  }
  return true;
}();

}  // namespace

void setEnabled(bool on) noexcept {
  detail::gEnabled.store(on, std::memory_order_relaxed);
}

MetricId counterId(std::string_view name) {
  return registerName(registry().counterTable, name);
}

MetricId gaugeId(std::string_view name) {
  return registerName(registry().gaugeTable, name);
}

MetricId histogramId(std::string_view name) {
  return registerName(registry().histogramTable, name);
}

std::string labeledMetricName(std::string_view name, std::string_view labelKey,
                              std::string_view labelValue) {
  std::string out;
  out.reserve(name.size() + labelKey.size() + labelValue.size() + 3);
  out.append(name);
  out.push_back('{');
  out.append(labelKey);
  out.push_back('=');
  out.append(labelValue);
  out.push_back('}');
  return out;
}

MetricId counterId(std::string_view name, std::string_view labelKey,
                   std::string_view labelValue) {
  return registerLabeled(registry().counterTable, name, labelKey, labelValue);
}

MetricId histogramId(std::string_view name, std::string_view labelKey,
                     std::string_view labelValue) {
  return registerLabeled(registry().histogramTable, name, labelKey, labelValue);
}

void addCounter(MetricId id, std::uint64_t delta) noexcept {
  localShard().counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void setGauge(MetricId id, std::int64_t value) noexcept {
  registry().gauges[id].store(value, std::memory_order_relaxed);
}

void maxGauge(MetricId id, std::int64_t value) noexcept {
  std::atomic<std::int64_t>& gauge = registry().gauges[id];
  std::int64_t seen = gauge.load(std::memory_order_relaxed);
  while (value > seen &&
         !gauge.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::size_t latencyBucketIndex(std::int64_t nanos) noexcept {
  const std::uint64_t magnitude =
      nanos <= 0 ? 0 : static_cast<std::uint64_t>(nanos);
  return std::min<std::size_t>(
      kHistogramBuckets - 1,
      static_cast<std::size_t>(magnitude == 0 ? 0
                                              : std::bit_width(magnitude)));
}

std::int64_t latencyQuantileUpperNanos(std::span<const std::uint64_t> buckets,
                                       std::uint64_t count, double q) noexcept {
  if (count == 0 || buckets.empty()) {
    return 0;
  }
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  std::uint64_t target =
      static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(count)));
  target = std::max<std::uint64_t>(1, std::min(target, count));
  // Every edge is specified: when `count` exceeds the bucket sum (a
  // trimmed or otherwise degenerate digest), the answer is the bound of
  // the last OCCUPIED bucket — never the bound of a trailing empty slot —
  // and a digest whose buckets are all zero answers 0, exactly like an
  // empty digest.
  std::uint64_t seen = 0;
  std::size_t bucket = 0;
  bool found = false;
  std::size_t lastOccupied = 0;
  bool anyOccupied = false;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] > 0) {
      lastOccupied = b;
      anyOccupied = true;
    }
    seen += buckets[b];
    if (!found && seen >= target) {
      bucket = b;
      found = true;
    }
  }
  if (!found) {
    if (!anyOccupied) {
      return 0;
    }
    bucket = lastOccupied;
  }
  return bucket == 0
             ? 0
             : static_cast<std::int64_t>((std::uint64_t{1} << bucket) - 1);
}

void recordLatency(MetricId id, std::int64_t nanos) noexcept {
  Shard& shard = localShard();
  const std::uint64_t magnitude =
      nanos <= 0 ? 0 : static_cast<std::uint64_t>(nanos);
  const std::size_t bucket = latencyBucketIndex(nanos);
  shard.histCount[id].fetch_add(1, std::memory_order_relaxed);
  shard.histSum[id].fetch_add(magnitude, std::memory_order_relaxed);
  shard.histBuckets[id][bucket].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  for (const CounterValue& c : counters) {
    if (c.name == name) {
      return c.value;
    }
  }
  return 0;
}

MetricsSnapshot snapshotMetrics() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  MetricsSnapshot snapshot;

  snapshot.counters.resize(reg.counterTable.names.size());
  for (std::size_t i = 0; i < reg.counterTable.names.size(); ++i) {
    snapshot.counters[i].name = reg.counterTable.names[i];
    std::uint64_t total = reg.retired.counters[i];
    for (const Shard* shard : reg.shards) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snapshot.counters[i].value = total;
  }

  snapshot.gauges.resize(reg.gaugeTable.names.size());
  for (std::size_t i = 0; i < reg.gaugeTable.names.size(); ++i) {
    snapshot.gauges[i].name = reg.gaugeTable.names[i];
    snapshot.gauges[i].value = reg.gauges[i].load(std::memory_order_relaxed);
  }

  snapshot.histograms.resize(reg.histogramTable.names.size());
  for (std::size_t i = 0; i < reg.histogramTable.names.size(); ++i) {
    HistogramValue& h = snapshot.histograms[i];
    h.name = reg.histogramTable.names[i];
    h.count = reg.retired.histCount[i];
    h.sumNanos = reg.retired.histSum[i];
    h.buckets.assign(reg.retired.histBuckets[i].begin(),
                     reg.retired.histBuckets[i].end());
    for (const Shard* shard : reg.shards) {
      h.count += shard->histCount[i].load(std::memory_order_relaxed);
      h.sumNanos += shard->histSum[i].load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        h.buckets[b] +=
            shard->histBuckets[i][b].load(std::memory_order_relaxed);
      }
    }
  }
  return snapshot;
}

void resetMetrics() noexcept {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  reg.retired = RetiredTotals{};
  for (std::size_t i = 0; i < kMaxGauges; ++i) {
    reg.gauges[i].store(0, std::memory_order_relaxed);
  }
  for (Shard* shard : reg.shards) {
    for (auto& c : shard->counters) {
      c.store(0, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxHistograms; ++i) {
      shard->histCount[i].store(0, std::memory_order_relaxed);
      shard->histSum[i].store(0, std::memory_order_relaxed);
      for (auto& b : shard->histBuckets[i]) {
        b.store(0, std::memory_order_relaxed);
      }
    }
  }
}

// --- trace ---------------------------------------------------------------

namespace {

std::int64_t steadyNowNanos() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace detail {

std::int64_t nowNanos() noexcept {
  if (gClockOverride != nullptr) {
    return gClockOverride();
  }
  return steadyNowNanos();
}

void setClockForTesting(std::int64_t (*fn)() noexcept) noexcept {
  gClockOverride = fn;
}

void recordSpan(const char* name, std::int64_t startNanos) noexcept {
  const std::int64_t duration = nowNanos() - startNanos;
  localShard().trace.push(SpanRecord{name, 0, startNanos, duration},
                          kMaxRecordsPerThread);
}

}  // namespace detail

namespace {

/// Every thread's records of `recorder`, live shards first, then exited
/// threads; each in recording order.
std::vector<ThreadSpans> collectSpans(const SpanRecorder& recorder) {
  std::vector<ThreadSpans> threads;
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  for (Shard* shard : reg.shards) {
    SpanRing& ring = shard->*recorder.ring;
    std::lock_guard ringLock(ring.mutex);
    if (!ring.records.empty()) {
      ring.restoreOrder();
      threads.push_back(ThreadSpans{shard->tid, ring.records});
    }
  }
  threads.insert(threads.end(), recorder.retired.begin(),
                 recorder.retired.end());
  return threads;
}

/// Serializes `recorder` as Chrome trace-event JSON. Deterministic under
/// the test clock: each thread's records sort by (start ascending,
/// duration descending) with ties kept in recording order, threads by
/// (first start, tid), and tids are remapped to dense 1-based ids.
void writeChromeTrace(std::ostream& out, const SpanRecorder& recorder,
                      const char* category, bool withRequestId) {
  std::vector<ThreadSpans> threads = collectSpans(recorder);
  for (ThreadSpans& t : threads) {
    std::stable_sort(t.records.begin(), t.records.end(),
                     [](const SpanRecord& a, const SpanRecord& b) {
                       return a.startNs < b.startNs ||
                              (a.startNs == b.startNs &&
                               a.durationNs > b.durationNs);
                     });
  }
  std::sort(threads.begin(), threads.end(),
            [](const ThreadSpans& a, const ThreadSpans& b) {
              const std::int64_t sa = a.records.front().startNs;
              const std::int64_t sb = b.records.front().startNs;
              return sa < sb || (sa == sb && a.tid < b.tid);
            });

  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (std::size_t t = 0; t < threads.size(); ++t) {
    for (const SpanRecord& r : threads[t].records) {
      if (!first) {
        out << ',';
      }
      first = false;
      out << "{\"name\":\"" << json::escape(r.name) << "\",\"cat\":\""
          << category << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (t + 1);
      // Microseconds with nanosecond precision: deterministic formatting.
      std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                    static_cast<long long>(r.startNs / 1000),
                    static_cast<long long>(r.startNs % 1000));
      out << ",\"ts\":" << buf;
      std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                    static_cast<long long>(r.durationNs / 1000),
                    static_cast<long long>(r.durationNs % 1000));
      out << ",\"dur\":" << buf;
      if (withRequestId) {
        out << ",\"args\":{\"requestId\":" << r.requestId << '}';
      }
      out << '}';
    }
  }
  out << "]}\n";
}

void clearSpans(SpanRecorder& recorder) noexcept {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  recorder.retired.clear();
  for (Shard* shard : reg.shards) {
    SpanRing& ring = shard->*recorder.ring;
    std::lock_guard ringLock(ring.mutex);
    ring.records.clear();
    ring.next = 0;
  }
}

std::uint64_t countSpans(const SpanRecorder& recorder) noexcept {
  Registry& reg = registry();
  std::lock_guard lock(reg.mutex);
  std::uint64_t total = 0;
  for (const ThreadSpans& retired : recorder.retired) {
    total += retired.records.size();
  }
  for (Shard* shard : reg.shards) {
    SpanRing& ring = shard->*recorder.ring;
    std::lock_guard ringLock(ring.mutex);
    total += ring.records.size();
  }
  return total;
}

}  // namespace

void writeTrace(std::ostream& out) {
  writeChromeTrace(out, registry().trace, "robust", false);
}

void writeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("obs: cannot open trace file '" + path + "'");
  }
  writeTrace(out);
}

void clearTrace() noexcept { clearSpans(registry().trace); }

// --- flight recorder -----------------------------------------------------

std::size_t flightCapacity() noexcept {
  return gFlightCapacity.load(std::memory_order_relaxed);
}

void setFlightCapacity(std::size_t perThreadRecords) noexcept {
  gFlightCapacity.store(std::min(perThreadRecords, kMaxRecordsPerThread),
                        std::memory_order_relaxed);
}

void recordFlight(const char* name, std::uint64_t requestId,
                  std::int64_t startNanos,
                  std::int64_t durationNanos) noexcept {
  const std::size_t capacity = gFlightCapacity.load(std::memory_order_relaxed);
  if (capacity == 0) {
    return;
  }
  localShard().flight.push(
      SpanRecord{name, requestId, startNanos, durationNanos}, capacity);
}

void writeFlightTrace(std::ostream& out) {
  writeChromeTrace(out, registry().flight, "flight", true);
}

void writeFlightTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("obs: cannot open flight trace file '" + path +
                             "'");
  }
  writeFlightTrace(out);
}

void clearFlight() noexcept { clearSpans(registry().flight); }

std::uint64_t flightRecordCount() noexcept {
  return countSpans(registry().flight);
}

}  // namespace robust::obs

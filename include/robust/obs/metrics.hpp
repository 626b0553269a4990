// Zero-overhead-when-off metrics for the analysis engine.
//
// The experiment drivers compare mappings by how much work each analysis
// performs — radius evaluations, solver iterations, boundary probes — and
// the parallel paths (localSearch neighborhood scans, analyzeBatchMetric,
// runMakespanStudy) must never contend on a shared metrics structure. The
// registry here is therefore *lock-sparse*:
//
//   * every thread owns a private shard of counter / histogram slots
//     (relaxed atomics, touched only by their owner on the hot path);
//   * the registry mutex guards only name registration, shard
//     registration / retirement, and snapshotting — never recording;
//   * gauges are single atomics (set / monotonic-max semantics), because
//     a high-water mark needs a global maximum anyway.
//
// Everything compiles down to one relaxed atomic load and a predictable
// branch when recording is off. Call sites follow the pattern
//
//   if (obs::enabled()) [[unlikely]] {
//     static const obs::MetricId kRows = obs::counterId("core.rows");
//     obs::addCounter(kRows, n);
//   }
//
// so a disabled build-up of instrumentation costs < 1% on the hottest
// paths (pinned by tests/test_obs.cpp). Recording is toggled by the
// ROBUST_OBS environment variable ("1" / "on" / "true") or setEnabled().
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace robust::obs {

namespace detail {
/// The single global toggle. Exposed so enabled() inlines to one relaxed
/// load; treat as private — flip it through setEnabled().
extern std::atomic<bool> gEnabled;
}  // namespace detail

/// True when metric / trace recording is on. One relaxed atomic load; safe
/// and meaningful to call from any thread at any time.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

/// Turns recording on or off process-wide. The initial value comes from the
/// ROBUST_OBS / ROBUST_TRACE environment variables (read once at startup).
void setEnabled(bool on) noexcept;

/// Index of a registered metric. Stable for the process lifetime; resolve
/// once (a function-local static at the call site) and reuse.
using MetricId = std::uint32_t;

/// Fixed histogram shape: bucket b counts latencies in [2^(b-1), 2^b)
/// nanoseconds (bucket 0 is < 1 ns), saturating at the last bucket.
inline constexpr std::size_t kHistogramBuckets = 28;

/// Registers (or looks up) a metric by name. Idempotent: the same name
/// always yields the same id. Never throws: once the fixed per-kind
/// capacity is exhausted, new names share the reserved "obs.overflow"
/// series of their kind, which the snapshot shows like any other. Names
/// are conventionally dotted paths ("core.rows_evaluated").
[[nodiscard]] MetricId counterId(std::string_view name);
[[nodiscard]] MetricId gaugeId(std::string_view name);
[[nodiscard]] MetricId histogramId(std::string_view name);

// Labeled series. A labeled metric is an ordinary metric whose registered
// name is the canonical composition "name{key=value}" — it rides the same
// per-thread shards and the same retired-totals fold, so snapshot exactness
// (including threads that have exited) holds for labeled series too.
// Labels are for LOW-cardinality dimensions (tenant id, frame type): each
// distinct (name, key, value) consumes one slot of the fixed per-kind
// capacity. Labeled series may fill at most half of a kind's capacity, and
// one (name, key) pair at most an eighth, so unlabeled names always keep
// headroom. When a new value would not fit, the id of the per-series
// overflow bucket "name{key=_other_}" is returned instead — hostile
// cardinality degrades to aggregation, never to a thrown error. (The
// bucket is reserved on the first labeled registration of a (name, key)
// pair; when even the bucket does not fit, the kind's "obs.overflow"
// series is returned.)

[[nodiscard]] MetricId counterId(std::string_view name, std::string_view labelKey,
                                 std::string_view labelValue);
[[nodiscard]] MetricId histogramId(std::string_view name,
                                   std::string_view labelKey,
                                   std::string_view labelValue);

/// The canonical registered name of a labeled series: "name{key=value}".
[[nodiscard]] std::string labeledMetricName(std::string_view name,
                                            std::string_view labelKey,
                                            std::string_view labelValue);

// Hot-path recording. Callers guard with enabled(); recording while
// disabled is harmless but wasted work. All are safe from any thread.

/// Adds `delta` to a counter (per-thread shard; merged on snapshot).
void addCounter(MetricId id, std::uint64_t delta = 1) noexcept;

/// Sets a gauge to `value` (last writer wins).
void setGauge(MetricId id, std::int64_t value) noexcept;

/// Raises a gauge to at least `value` (monotonic high-water mark).
void maxGauge(MetricId id, std::int64_t value) noexcept;

/// Records one latency observation, in nanoseconds, into a histogram.
void recordLatency(MetricId id, std::int64_t nanos) noexcept;

/// The log2 bucket a latency observation lands in: bucket 0 for <= 0 ns,
/// bucket b for [2^(b-1), 2^b) ns, saturating at kHistogramBuckets - 1.
/// Exposed so out-of-registry digests (the robustd per-tenant latency
/// digests) share the exact shape of registry histograms.
[[nodiscard]] std::size_t latencyBucketIndex(std::int64_t nanos) noexcept;

/// Upper bound, in nanoseconds, of the bucket holding the q-quantile
/// observation of a log2-bucketed histogram (q clamped to [0, 1]); 0 when
/// the histogram is empty. Exact to a factor of two — the intended
/// resolution of a p50/p95/p99 digest, not a percentile estimator.
[[nodiscard]] std::int64_t latencyQuantileUpperNanos(
    std::span<const std::uint64_t> buckets, std::uint64_t count,
    double q) noexcept;

/// One merged counter / gauge / histogram in a snapshot.
struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeValue {
  std::string name;
  std::int64_t value = 0;
};
struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;     ///< total observations
  std::uint64_t sumNanos = 0;  ///< sum of all observations
  std::vector<std::uint64_t> buckets;  ///< kHistogramBuckets entries

  /// latencyQuantileUpperNanos over this histogram's buckets.
  [[nodiscard]] std::int64_t quantileUpperNanos(double q) const noexcept {
    return latencyQuantileUpperNanos(buckets, count, q);
  }
};

/// A point-in-time merge of every thread's shard plus the retired totals of
/// threads that have exited. Metrics appear in registration order.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of the named counter, or 0 when never registered.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
};

/// Merges all live shards and retired totals. Concurrent recording is safe:
/// the snapshot observes each slot atomically (it may land between two
/// increments of a racing writer, never tear).
[[nodiscard]] MetricsSnapshot snapshotMetrics();

/// Zeroes every counter, gauge, and histogram (live shards and retired
/// totals). Registered names and ids survive. Primarily for tests and for
/// delimiting measurement windows in benches.
void resetMetrics() noexcept;

}  // namespace robust::obs

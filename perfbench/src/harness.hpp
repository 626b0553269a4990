// Shared machinery of the perfbench workloads: clocks, op latency
// quantiles, the benchmark-side span recorder, the sequential op loop,
// and the metric tables every workload reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "robust/obs/metrics.hpp"

namespace perfbench {

/// Every API call that takes a thread count gets this; 0 would mean
/// "hardware concurrency" and tie the numbers to the host's core count.
inline constexpr std::size_t kThreads = 2;
/// An untraced timed phase is split into this many equal windows of wall
/// time. Every timing metric is computed per window and the median is
/// reported, so a burst of host contention that covers less than half of a
/// run does not move it.
inline constexpr std::size_t kWindows = 5;
/// Set-up repetitions per run, an equal share before each window. setup_s
/// is their median, so neither one slow process start, cold page cache or
/// costly first-op input nor a burst of host contention at the start of a
/// run moves it.
inline constexpr std::size_t kSetupReps = 2 * kWindows;

[[nodiscard]] std::int64_t nowNs();
/// User + system CPU time of the whole process (all threads), seconds.
[[nodiscard]] double processCpuSeconds();
/// Peak resident set size of the process, MiB.
[[nodiscard]] double peakRssMb();
[[nodiscard]] double median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Op latencies, exact to 20 ns below 2 ms and exact above. The fine
/// histogram is allocated on first use and has a fixed size, so the memory
/// the benchmark holds does not grow with the op count (peak_rss_mb).
class LatencyLog {
 public:
  void record(std::int64_t nanos);
  void merge(const LatencyLog& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Nearest-rank quantile in nanoseconds (0 when empty).
  [[nodiscard]] double quantileNs(double q) const;
  [[nodiscard]] double meanNs() const noexcept {
    return count_ == 0 ? 0.0 : sumNs_ / static_cast<double>(count_);
  }

 private:
  static constexpr std::int64_t kBucketNs = 20;
  static constexpr std::size_t kFineBuckets = 100000;
  std::vector<std::uint32_t> fine_;
  std::vector<std::int64_t> coarse_;
  std::uint64_t count_ = 0;
  double sumNs_ = 0.0;
};

/// Spans the benchmark records around its own calls into each layer. The
/// root span of an op is opened by the op loop; every span opened inside it
/// is a layer call. Totals are folded as spans close, so memory stays flat
/// however long the run: per name, calls, wall time, latencies and an item
/// count (instances, samples) for per-item rates; per root span, the time
/// its child spans cover.
class SpanLog {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t nanos = 0;
    std::uint64_t items = 0;
    LatencyLog latencies;
  };

  bool enabled = false;

  /// Folds another thread's log into this one.
  void merge(const SpanLog& other);
  [[nodiscard]] const Totals* find(const std::string& name) const;
  /// Share of root-span time covered by direct child spans.
  [[nodiscard]] double coverage() const noexcept {
    return rootNanos_ == 0 ? 0.0
                           : static_cast<double>(coveredNanos_) /
                                 static_cast<double>(rootNanos_);
  }

 private:
  friend class Span;
  struct Open {
    const char* name;
    std::int64_t start;
    std::int64_t childNanos;
  };
  std::vector<Open> stack_;
  std::map<std::string, Totals> totals_;
  std::int64_t rootNanos_ = 0;
  std::int64_t coveredNanos_ = 0;
};

/// RAII span; a no-op when the log is disabled.
class Span {
 public:
  Span(SpanLog& log, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Items processed by this call (instances, samples), for rates.
  void items(std::uint64_t n) noexcept { items_ = n; }

 private:
  SpanLog* log_;
  std::uint64_t items_ = 0;
};

/// The per-layer metric table: every name the traced run prints, in order,
/// with its unit. A workload that does not reach a layer reports 0 for it.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layerMetricNames();
using LayerValues = std::map<std::string, double>;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir = ".";
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< oracle failures, for stderr
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void fail(std::string why);
};

/// A workload whose ops run one after another on the calling thread.
class SequentialWorkload {
 public:
  virtual ~SequentialWorkload() = default;
  /// Program set-up: compiles, file packing, scenario generation.
  virtual void setup(SpanLog& spans) = 0;
  /// Generates op `index`'s inputs from the seed, outside the timed
  /// interval.
  virtual void prepare(std::uint64_t index) = 0;
  /// One op: the API calls only. Keeps what check() needs.
  virtual void op(std::uint64_t index, SpanLog& spans) = 0;
  /// Oracle for the op just run; runs outside the timed interval. Returns
  /// false with a reason when the op's result is wrong.
  virtual bool check(std::uint64_t index, std::string& why) = 0;
  /// The rho summary of the op just run (mean_rho averages it).
  [[nodiscard]] virtual double rho() const = 0;
  /// Oracles that need the object's whole life: threads = 1 re-runs.
  /// Called once on every object, before it is replaced or at the end.
  virtual void finalCheck(Outcome& out) = 0;
  /// ThreadPools the program starts per op (util.pool_spawn_us).
  [[nodiscard]] virtual double poolsPerOp() const = 0;
};

struct SequentialSpec {
  /// Percentile reported as latency_tail_us: of those that leave at least
  /// ten samples beyond them in every window, the one whose run-to-run
  /// spread measured lowest (see README.md).
  double tailQuantile = 0.95;
  /// mean_rho averages the results of the first this-many timed ops (the
  /// same op indices in every run, which every run completes), so it is a
  /// pure function of the seed.
  std::size_t rhoOps = 16;
  std::function<std::unique_ptr<SequentialWorkload>(const RunConfig&)> make;
  std::vector<std::pair<std::string, std::string>> info;
};

[[nodiscard]] Outcome runSequential(const RunConfig& config,
                                    const SequentialSpec& spec);

// Pieces shared with the serve workload's own loop.

/// The work measured in one window of a timed phase (or in all of it).
struct Window {
  std::uint64_t ops = 0;
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  LatencyLog latencies;
};

/// The end-to-end metrics of one untraced timed phase: each timing metric
/// is the median over its kWindows windows.
void appendEndToEnd(Outcome& out, double setupSeconds,
                    const std::vector<Window>& windows, double tailQuantile,
                    double meanRho);
/// Fills the layer metrics derived from spans (set-up and timed ops), obs
/// counters and the two micro-timings (dot kernel, pool spawn), then
/// appends every layer metric to `out` in table order.
void appendLayers(Outcome& out, LayerValues values,
                  const SpanLog& setupSpans, const SpanLog& spans,
                  const robust::obs::MetricsSnapshot& counters,
                  std::uint64_t ops, double poolsPerOp,
                  double untracedOpsPerSecond, double tracedOpsPerSecond);

}  // namespace perfbench

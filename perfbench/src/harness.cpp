#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string_view>

#include "robust/numeric/simd.hpp"
#include "robust/util/rng.hpp"
#include "robust/util/thread_pool.hpp"

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ------------------------------------------------------------- LatencyLog

void LatencyLog::record(std::int64_t nanos) {
  nanos = std::max<std::int64_t>(nanos, 0);
  ++count_;
  sumNs_ += static_cast<double>(nanos);
  const auto bucket = static_cast<std::size_t>(nanos / kBucketNs);
  if (bucket < kFineBuckets) {
    if (fine_.empty()) {
      fine_.assign(kFineBuckets, 0);
    }
    ++fine_[bucket];
  } else {
    coarse_.push_back(nanos);
  }
}

void LatencyLog::merge(const LatencyLog& other) {
  if (!other.fine_.empty()) {
    if (fine_.empty()) {
      fine_.assign(kFineBuckets, 0);
    }
    for (std::size_t i = 0; i < kFineBuckets; ++i) {
      fine_[i] += other.fine_[i];
    }
  }
  coarse_.insert(coarse_.end(), other.coarse_.begin(), other.coarse_.end());
  count_ += other.count_;
  sumNs_ += other.sumNs_;
}

double LatencyLog::quantileNs(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))),
      1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < fine_.size(); ++i) {
    seen += fine_[i];
    if (seen >= rank) {
      return static_cast<double>(static_cast<std::int64_t>(i) * kBucketNs) +
             0.5 * static_cast<double>(kBucketNs);
    }
  }
  std::vector<std::int64_t> sorted = coarse_;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<double>(sorted[rank - seen - 1]);
}

// ---------------------------------------------------------------- SpanLog

void SpanLog::merge(const SpanLog& other) {
  for (const auto& [name, t] : other.totals_) {
    Totals& mine = totals_[name];
    mine.calls += t.calls;
    mine.nanos += t.nanos;
    mine.items += t.items;
    mine.latencies.merge(t.latencies);
  }
  rootNanos_ += other.rootNanos_;
  coveredNanos_ += other.coveredNanos_;
}

const SpanLog::Totals* SpanLog::find(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? nullptr : &it->second;
}

Span::Span(SpanLog& log, const char* name)
    : log_(log.enabled ? &log : nullptr) {
  if (log_ != nullptr) {
    log_->stack_.push_back(SpanLog::Open{name, nowNs(), 0});
  }
}

Span::~Span() {
  if (log_ == nullptr) {
    return;
  }
  const std::int64_t end = nowNs();
  const SpanLog::Open open = log_->stack_.back();
  log_->stack_.pop_back();
  const std::int64_t duration = end - open.start;
  SpanLog::Totals& t = log_->totals_[open.name];
  ++t.calls;
  t.nanos += duration;
  t.items += items_;
  t.latencies.record(duration);
  if (log_->stack_.empty()) {
    log_->rootNanos_ += duration;
    log_->coveredNanos_ += open.childNanos;
  } else {
    log_->stack_.back().childNanos += duration;
  }
}

// ---------------------------------------------------------- metric tables

const std::vector<std::pair<std::string, std::string>>& layerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"net.rtt_p50_us", "us"},
      {"net.rtt_p99_us", "us"},
      {"net.register_us", "us"},
      {"net.server_analyze_us", "us"},
      {"net.queue_wait_us", "us"},
      {"net.compile_us", "us"},
      {"net.wire_us", "us"},
      {"net.cache_hit_ratio", "1"},
      {"net.frames_per_op", "count"},
      {"net.bytes_per_op", "B"},
      {"net.rejects", "count"},
      {"net.backpressure_stalls", "count"},
      {"core.compile_us", "us"},
      {"core.metric_ns_per_instance", "ns"},
      {"core.rows_evaluated", "count"},
      {"core.prune.rows_skipped", "count"},
      {"core.evaluations", "count"},
      {"core.stream_instances_per_s", "1/s"},
      {"core.stream_screened_ratio", "1"},
      {"io.mmap_bytes_read", "B"},
      {"numeric.dot_ns_per_row", "ns"},
      {"numeric.simd_target", "enum"},
      {"numeric.scalar_dispatch", "count"},
      {"curve.fast_ns_per_sample", "ns"},
      {"curve.rows_visited_per_sample", "count"},
      {"curve.fallback_ns_per_sample", "ns"},
      {"num.bisect_iterations_per_sample", "count"},
      {"curve.cache_hits", "count"},
      {"sched.anneal_us", "us"},
      {"sched.localsearch_us", "us"},
      {"sched.genetic_us", "us"},
      {"sched.generic_anneal_us", "us"},
      {"sched.ns_per_probe", "ns"},
      {"sched.search_probes", "count"},
      {"sched.inc_moves", "count"},
      {"sched.inc_commits", "count"},
      {"sched.inc_rebuilds", "count"},
      {"hiperd.analyze_metric", "count"},
      {"core.radius_analytic", "count"},
      {"util.pool_spawn_us", "us"},
      {"util.pool_tasks", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"trace.span_coverage", "1"},
  };
  return kNames;
}

void Outcome::fail(std::string why) {
  ++failed;
  if (errors.size() < 20) {
    errors.push_back(std::move(why));
  }
}

void appendEndToEnd(Outcome& out, double setupSeconds,
                    const std::vector<Window>& windows, double tailQuantile,
                    double meanRho) {
  const auto perWindow = [&](const auto& value) {
    std::vector<double> values;
    for (const Window& w : windows) {
      values.push_back(value(w));
    }
    return median(std::move(values));
  };
  const auto quantileUs = [&](double q) {
    return perWindow([q](const Window& w) {
      return w.latencies.quantileNs(q) / 1e3;
    });
  };
  out.metrics.push_back({"setup_s", setupSeconds, "s"});
  out.metrics.push_back({"ops_per_s", perWindow([](const Window& w) {
                           return static_cast<double>(w.ops) / w.wallSeconds;
                         }),
                         "1/s"});
  out.metrics.push_back({"latency_p50_us", quantileUs(0.5), "us"});
  out.metrics.push_back({"latency_tail_us", quantileUs(tailQuantile), "us"});
  out.metrics.push_back({"cpu_us_per_op", perWindow([](const Window& w) {
                           return w.cpuSeconds * 1e6 /
                                  static_cast<double>(std::max<std::uint64_t>(
                                      w.ops, 1));
                         }),
                         "us"});
  out.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  out.metrics.push_back({"mean_rho", meanRho, "1"});

  std::uint64_t ops = 0;
  std::uint64_t fewestBeyond = std::numeric_limits<std::uint64_t>::max();
  for (const Window& w : windows) {
    ops += w.latencies.count();
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(tailQuantile * static_cast<double>(w.latencies.count())));
    fewestBeyond = std::min(fewestBeyond, w.latencies.count() - rank);
  }
  out.info.emplace_back("latency_tail_percentile",
                        std::to_string(tailQuantile * 100.0));
  out.info.emplace_back("latency_tail_samples_beyond_per_window",
                        std::to_string(fewestBeyond));
  out.info.emplace_back("latency_samples", std::to_string(ops));
  out.info.emplace_back("windows", std::to_string(windows.size()));
  std::string quantiles;
  for (double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.999}) {
    quantiles += (quantiles.empty() ? "p" : " p") + std::to_string(q * 100.0) +
                 "=" + std::to_string(quantileUs(q));
  }
  out.info.emplace_back("latency_quantiles_us", quantiles);
}

namespace {

/// Median ns per row of num::simd::dotRowsBlocked at 256 x 64.
double timeDotKernel() {
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kDim = 64;
  auto rng = robust::makeStream(20031, 0);
  std::vector<double> rows(kRows * kDim);
  std::vector<double> x(kDim);
  std::vector<double> out(kRows);
  for (double& v : rows) {
    v = rng.uniform(0.1, 2.0);
  }
  for (double& v : x) {
    v = rng.uniform(0.5, 1.5);
  }
  std::vector<double> perRow;
  double sink = 0.0;
  for (int batch = 0; batch < 9; ++batch) {
    const std::int64_t t0 = nowNs();
    for (int rep = 0; rep < 1000; ++rep) {
      x[static_cast<std::size_t>(rep) % kDim] += 1e-9;
      robust::num::simd::dotRowsBlocked(rows.data(), kRows, x, out.data());
      sink += out[static_cast<std::size_t>(rep) % kRows];
    }
    perRow.push_back(static_cast<double>(nowNs() - t0) / (1000.0 * kRows));
  }
  if (!std::isfinite(sink)) {
    perRow.push_back(0.0);
  }
  return median(perRow);
}

/// Median us to construct and join a ThreadPool of kThreads workers.
double timePoolSpawn() {
  std::vector<double> perPool;
  for (int batch = 0; batch < 7; ++batch) {
    const std::int64_t t0 = nowNs();
    for (int rep = 0; rep < 40; ++rep) {
      robust::ThreadPool pool(kThreads);
    }
    perPool.push_back(static_cast<double>(nowNs() - t0) / (40.0 * 1e3));
  }
  return median(perPool);
}

}  // namespace

void appendLayers(Outcome& out, LayerValues values,
                  const SpanLog& setupSpans, const SpanLog& spans,
                  const robust::obs::MetricsSnapshot& counters,
                  std::uint64_t ops, double poolsPerOp,
                  double untracedOpsPerSecond, double tracedOpsPerSecond) {
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  const auto counter = [&](std::string_view name) {
    return static_cast<double>(counters.counter(name));
  };
  const auto perOp = [&](std::string_view name) { return counter(name) / n; };
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const SpanLog::Totals none;
  const auto span = [&](const SpanLog& log,
                        const std::string& name) -> const SpanLog::Totals& {
    const SpanLog::Totals* t = log.find(name);
    return t == nullptr ? none : *t;
  };
  const auto spanNs = [&](const std::string& name) {
    return static_cast<double>(span(spans, name).nanos);
  };
  const auto spanItems = [&](const std::string& name) {
    return static_cast<double>(span(spans, name).items);
  };
  const auto usPerOp = [&](const std::string& name) {
    return spanNs(name) / n / 1e3;
  };
  const auto usPerCall = [&](const SpanLog& log, const std::string& name) {
    const SpanLog::Totals& t = span(log, name);
    return ratio(static_cast<double>(t.nanos), static_cast<double>(t.calls)) /
           1e3;
  };

  const LatencyLog& rtt = span(spans, "net.analyze").latencies;
  values["net.rtt_p50_us"] = rtt.quantileNs(0.50) / 1e3;
  values["net.rtt_p99_us"] = rtt.quantileNs(0.99) / 1e3;
  values["net.register_us"] = usPerCall(spans, "net.register");

  values["core.compile_us"] = usPerCall(setupSpans, "core.compile");
  values["core.metric_ns_per_instance"] =
      ratio(spanNs("core.metric"), spanItems("core.metric"));
  values["core.rows_evaluated"] = perOp("core.rows_evaluated");
  values["core.prune.rows_skipped"] = perOp("core.prune.rows_skipped");
  values["core.evaluations"] = perOp("core.evaluations");
  values["core.stream_instances_per_s"] =
      ratio(spanItems("core.stream"), spanNs("core.stream") / 1e9);
  values["core.stream_screened_ratio"] =
      ratio(counter("core.stream.instances_screened"),
            counter("core.stream.instances"));
  values["io.mmap_bytes_read"] = perOp("io.mmap.bytes_read");

  values["numeric.dot_ns_per_row"] = timeDotKernel();
  values["numeric.simd_target"] =
      robust::num::simd::activeTarget() == robust::num::simd::Target::Avx2
          ? 1.0
          : 0.0;
  values["numeric.scalar_dispatch"] = perOp("core.kernel.dispatch.scalar");

  values["curve.fast_ns_per_sample"] =
      ratio(spanNs("curve.fast"), spanItems("curve.fast"));
  values["curve.rows_visited_per_sample"] =
      ratio(counter("curve.rows_visited"),
            counter("curve.samples") - counter("curve.fallback_samples"));
  values["curve.fallback_ns_per_sample"] =
      ratio(spanNs("curve.fallback"), spanItems("curve.fallback"));
  values["num.bisect_iterations_per_sample"] =
      ratio(counter("num.bisect_iterations"),
            counter("curve.fallback_samples"));
  values["curve.cache_hits"] = counter("curve.cache.hits");

  values["sched.anneal_us"] = usPerOp("sched.anneal");
  values["sched.localsearch_us"] = usPerOp("sched.localsearch");
  values["sched.genetic_us"] = usPerOp("sched.genetic");
  values["sched.generic_anneal_us"] = usPerOp("sched.generic_anneal");
  // Only the EtcObjective localSearch counts sched.search_probes.
  values["sched.ns_per_probe"] =
      ratio(spanNs("sched.localsearch"), counter("sched.search_probes"));
  values["sched.search_probes"] = perOp("sched.search_probes");
  values["sched.inc_moves"] = perOp("sched.inc_moves");
  values["sched.inc_commits"] = perOp("sched.inc_commits");
  values["sched.inc_rebuilds"] = perOp("sched.inc_rebuilds");

  values["hiperd.analyze_metric"] = perOp("hiperd.analyze_metric");
  values["core.radius_analytic"] = perOp("core.radius_analytic");

  values["util.pool_spawn_us"] = timePoolSpawn() * poolsPerOp;
  values["util.pool_tasks"] = perOp("util.pool_tasks");

  values["obs.trace_overhead_pct"] =
      tracedOpsPerSecond > 0.0
          ? (untracedOpsPerSecond / tracedOpsPerSecond - 1.0) * 100.0
          : 0.0;
  values["trace.span_coverage"] = spans.coverage();

  for (const auto& [name, unit] : layerMetricNames()) {
    out.metrics.push_back({name, values[name], unit});
  }
}

// ----------------------------------------------------- sequential op loop

namespace {

/// Runs ops until `seconds` of wall time have passed (and at least
/// `minOps` ops, whose rho() values go to `rhos` when given) and returns
/// them as one window. Only the op's own calls are inside the timed
/// interval; the oracle runs between intervals.
Window runPhase(SequentialWorkload& workload, double seconds,
                std::size_t minOps, std::uint64_t& nextIndex, SpanLog& spans,
                Outcome& out, std::vector<double>* rhos) {
  Window w;
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t ops = 0; ops < minOps || nowNs() < deadline; ++ops) {
    const std::uint64_t index = nextIndex++;
    workload.prepare(index);
    const double cpu0 = processCpuSeconds();
    const std::int64_t t0 = nowNs();
    {
      Span root(spans, "op");
      workload.op(index, spans);
    }
    const std::int64_t t1 = nowNs();
    const double cpu1 = processCpuSeconds();
    w.latencies.record(t1 - t0);
    w.wallSeconds += static_cast<double>(t1 - t0) / 1e9;
    w.cpuSeconds += cpu1 - cpu0;
    ++w.ops;
    ++out.attempted;
    // The oracle's own calls into the program stay out of the counters.
    const bool recording = robust::obs::enabled();
    robust::obs::setEnabled(false);
    std::string why;
    if (!workload.check(index, why)) {
      out.fail("op " + std::to_string(index) + ": " + why);
    }
    robust::obs::setEnabled(recording);
    if (rhos != nullptr && rhos->size() < minOps) {
      rhos->push_back(workload.rho());
    }
  }
  return w;
}

}  // namespace

Outcome runSequential(const RunConfig& config, const SequentialSpec& spec) {
  Outcome out;
  out.info = spec.info;

  // Set-up: a fresh workload object each repetition, timed from its
  // construction to the end of its first op. Each window of the timed
  // phase is preceded by its share of the repetitions and runs on the
  // last object made, so set-up is sampled across the whole run.
  std::vector<double> setups;
  std::unique_ptr<SequentialWorkload> workload;
  SpanLog quiet;
  SpanLog setupSpans;
  setupSpans.enabled = config.trace;
  std::uint64_t nextIndex = 0;
  const auto setUp = [&] {
    for (std::size_t rep = 0; rep < kSetupReps / kWindows; ++rep) {
      if (workload) {
        workload->finalCheck(out);
      }
      workload.reset();
      const std::uint64_t index = nextIndex++;
      const std::int64_t t0 = nowNs();
      workload = spec.make(config);
      workload->setup(setupSpans);
      workload->prepare(index);
      workload->op(index, quiet);
      setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
      ++out.attempted;
      std::string why;
      if (!workload->check(index, why)) {
        out.fail("set-up op " + std::to_string(index) + ": " + why);
      }
    }
  };

  if (!config.trace) {
    std::vector<double> rhos;
    std::vector<Window> windows;
    for (std::size_t w = 0; w < kWindows; ++w) {
      setUp();
      windows.push_back(runPhase(
          *workload, config.seconds / static_cast<double>(kWindows),
          w == 0 ? spec.rhoOps : 1, nextIndex, quiet, out,
          w == 0 ? &rhos : nullptr));
    }
    double rhoSum = 0.0;
    for (double r : rhos) {
      rhoSum += r;
    }
    appendEndToEnd(out, median(setups), windows, spec.tailQuantile,
                   rhoSum / static_cast<double>(rhos.size()));
  } else {
    setUp();
    const Window plain = runPhase(*workload, config.seconds / 2.0, 1,
                                  nextIndex, quiet, out, nullptr);
    SpanLog spans;
    spans.enabled = true;
    robust::obs::resetMetrics();
    robust::obs::setEnabled(true);
    const Window traced = runPhase(*workload, config.seconds / 2.0, 1,
                                   nextIndex, spans, out, nullptr);
    robust::obs::setEnabled(false);
    const robust::obs::MetricsSnapshot counters =
        robust::obs::snapshotMetrics();
    if (counters.counter("curve.cache.hits") != 0) {
      out.fail("curve cache served a timed op");
    }
    appendLayers(out, {}, setupSpans, spans, counters, traced.ops,
                 workload->poolsPerOp(),
                 static_cast<double>(plain.ops) / plain.wallSeconds,
                 static_cast<double>(traced.ops) / traced.wallSeconds);
  }
  workload->finalCheck(out);
  return out;
}

}  // namespace perfbench

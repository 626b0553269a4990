#include "robust/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

#include "robust/obs/metrics.hpp"
#include "robust/obs/trace.hpp"

namespace robust {

std::size_t parseThreadCount(const char* text) noexcept {
  if (text == nullptr || *text == '\0') {
    return 0;
  }
  // strtoul accepts leading whitespace and a sign (and wraps negatives);
  // require a bare digit string so "-3" and " 4" are rejected, not mangled.
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return 0;
    }
  }
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || parsed == 0 || parsed > kMaxThreads) {
    return 0;
  }
  return static_cast<std::size_t>(parsed);
}

std::size_t defaultThreadCount() noexcept {
  static const std::size_t cached = [] {
    if (const std::size_t parsed = parseThreadCount(std::getenv("ROBUST_THREADS"))) {
      return parsed;
    }
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }();
  return cached;
}

ThreadPool::ThreadPool(std::size_t threads) {
  grow(threads != 0 ? threads : defaultThreadCount());
}

void ThreadPool::grow(std::size_t threads) {
  std::lock_guard lock(mutex_);
  if (obs::enabled() && threads > workers_.size()) [[unlikely]] {
    static const obs::MetricId kSpawns = obs::counterId("util.pool_spawns");
    obs::addCounter(kSpawns, threads - workers_.size());
  }
  while (workers_.size() < threads) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

std::size_t ThreadPool::size() const {
  std::lock_guard lock(mutex_);
  return workers_.size();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cvTask_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    ++inFlight_;
    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kHighWater =
          obs::gaugeId("util.pool_queue_highwater");
      obs::maxGauge(kHighWater,
                    static_cast<std::int64_t>(queue_.size()));
    }
  }
  cvTask_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  cvDone_.wait(lock, [this] { return inFlight_ == 0; });
  if (failure_) {
    std::exception_ptr first = std::exchange(failure_, nullptr);
    lock.unlock();
    std::rethrow_exception(first);
  }
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cvTask_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to run
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // A throwing task must neither terminate the process nor skip the
    // inFlight_ bookkeeping (which would deadlock wait()); the first
    // escape is captured for wait() to rethrow.
    std::exception_ptr caught;
    const auto run = [&task, &caught] {
      try {
        task();
      } catch (...) {
        caught = std::current_exception();
      }
    };
    if (obs::enabled()) [[unlikely]] {
      static const obs::MetricId kTasks = obs::counterId("util.pool_tasks");
      static const obs::MetricId kLatency =
          obs::histogramId("util.pool_task_ns");
      const std::int64_t started = obs::detail::nowNanos();
      run();
      obs::addCounter(kTasks);
      obs::recordLatency(kLatency, obs::detail::nowNanos() - started);
    } else {
      run();
    }
    {
      std::lock_guard lock(mutex_);
      if (caught && !failure_) {
        failure_ = std::move(caught);
      }
      if (--inFlight_ == 0) {
        cvDone_.notify_all();
      }
    }
  }
}

std::size_t shardParticipants(std::size_t shards,
                              std::size_t threads) noexcept {
  return std::min({threads != 0 ? threads : defaultThreadCount(), shards,
                   kMaxThreads});
}

namespace {

// The pool behind forEachShard, never destroyed: joining its idle workers
// from a static destructor would race the statics they use.
ThreadPool& sharedPool() {
  static ThreadPool* const pool = new ThreadPool(1);
  return *pool;
}

// One forEachShard call, shared with its helpers: a helper that starts
// after the call returned finds no ticket left and never touches `body`.
struct ShardRun {
  ShardRun(std::size_t n, const ShardBody& fn)
      : shards(n), body(&fn), errors(n) {}

  // Claims and runs shards until none is left, then counts them done.
  void drain(std::size_t participant) {
    std::size_t ran = 0;
    for (std::size_t s; (s = ticket.fetch_add(1)) < shards; ++ran) {
      try {
        (*body)(s, participant);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    }
    if (ran > 0 && done.fetch_add(ran) + ran == shards) {
      done.notify_all();
    }
  }

  const std::size_t shards;
  const ShardBody* const body;
  std::vector<std::exception_ptr> errors;  ///< slot s written by its runner
  std::atomic<std::size_t> ticket{0};
  std::atomic<std::size_t> done{0};
};

}  // namespace

std::size_t sharedPoolThreads() { return sharedPool().size(); }

void forEachShard(std::size_t shards, std::size_t threads,
                  const ShardBody& body) {
  const std::size_t participants = shardParticipants(shards, threads);
  if (participants <= 1) {
    for (std::size_t s = 0; s < shards; ++s) {
      body(s, 0);
    }
    return;
  }
  const auto run = std::make_shared<ShardRun>(shards, body);
  ThreadPool& pool = sharedPool();
  pool.grow(participants - 1);
  for (std::size_t helper = 1; helper < participants; ++helper) {
    pool.submit([run, helper] { run->drain(helper); });
  }
  run->drain(0);
  // Waits only for shards other threads have claimed and are running.
  for (std::size_t d; (d = run->done.load()) != shards;) {
    run->done.wait(d);
  }
  // Taken here, so no exception dies on a helper dropping `run` late.
  for (const std::exception_ptr& error : std::exchange(run->errors, {})) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& body,
                 std::size_t threads) {
  const std::size_t n = begin < end ? end - begin : 0;
  const std::size_t workers = shardParticipants(n, threads);
  const std::size_t chunk = workers == 0 ? 0 : (n + workers - 1) / workers;
  forEachShard(workers, workers, [&](std::size_t block, std::size_t) {
    const std::size_t lo = begin + block * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) {
      body(i);
    }
  });
}

}  // namespace robust

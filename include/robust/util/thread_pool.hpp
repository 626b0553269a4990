// A thread pool, and the one shard loop every parallel call site runs on.
//
// Experiment drivers evaluate thousands of independent mappings; each
// evaluation is pure given its substream RNG, so a static block partition is
// both deterministic and contention-free (no shared mutable state beyond the
// output slots, which are disjoint). Steady-state calls start no threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace robust {

/// Largest thread count ROBUST_THREADS accepts or forEachShard uses.
inline constexpr std::size_t kMaxThreads = 1024;

/// Fixed-size worker pool. Tasks are arbitrary void() callables; submission
/// is thread-safe; destruction joins all workers after draining the queue.
///
/// Exception safety: a throwing task never takes the pool (or the process)
/// down. The first exception a task escapes with is captured and rethrown
/// from the next wait(); later submissions still run normally, so a
/// long-lived service can keep using the pool after a poisoned task.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Signals shutdown and joins every worker; queued tasks still run. A
  /// captured task exception that was never collected by wait() is
  /// discarded (destructors cannot throw).
  ~ThreadPool();

  /// Enqueues one task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing, then
  /// rethrows the first exception any task escaped with since the last
  /// wait() (clearing it, so the pool remains usable).
  void wait();

  /// Starts workers until the pool has at least `threads`; never shrinks.
  void grow(std::size_t threads);

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const;

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cvTask_;
  std::condition_variable cvDone_;
  std::size_t inFlight_ = 0;
  bool stop_ = false;
  std::exception_ptr failure_;  ///< first uncollected task exception
};

/// Parses a ROBUST_THREADS-style override: the thread count when `text` is
/// a plain decimal integer in [1, 1024], otherwise 0 ("ignore"). Hostile
/// values (negative, huge, trailing garbage, floats, empty, null) all map
/// to 0 so a bad environment can never oversubscribe or wedge the pool.
[[nodiscard]] std::size_t parseThreadCount(const char* text) noexcept;

/// Worker count used wherever callers pass `threads = 0`: the
/// ROBUST_THREADS environment variable when parseThreadCount accepts it,
/// otherwise hardware concurrency (minimum 1). Read once and cached.
[[nodiscard]] std::size_t defaultThreadCount() noexcept;

/// min(threads, shards, kMaxThreads), with threads = 0 meaning
/// defaultThreadCount(): how many participants forEachShard uses.
[[nodiscard]] std::size_t shardParticipants(std::size_t shards,
                                            std::size_t threads) noexcept;

/// Threads the shared pool behind forEachShard has started so far.
[[nodiscard]] std::size_t sharedPoolThreads();

using ShardBody =
    std::function<void(std::size_t shard, std::size_t participant)>;

/// The shard loop: runs body(shard, participant) once per shard in
/// [0, shards). The caller is participant 0; up to
/// shardParticipants(shards, threads) - 1 threads of one lazily started,
/// never shrinking process-wide pool help by dynamic ticket, and concurrent
/// body calls never share a participant. The lowest-index shard exception
/// is rethrown after all shards finish. Reentrant: the caller runs every
/// unclaimed shard itself and waits only for shards running elsewhere.
void forEachShard(std::size_t shards, std::size_t threads,
                  const ShardBody& body);

/// Splits [0, n) into shardParticipants(n, threads) contiguous blocks
/// [n*b/blocks, n*(b+1)/blocks) and runs body(lo, hi, scratch) for each on
/// the shard loop, with one default-constructed Scratch per participant.
template <class Scratch, class Body>
void forEachBlock(std::size_t n, std::size_t threads, Body&& body) {
  const std::size_t blocks = shardParticipants(n, threads);
  std::vector<Scratch> scratch(blocks);
  forEachShard(blocks, blocks, [&](std::size_t b, std::size_t participant) {
    body(n * b / blocks, n * (b + 1) / blocks, scratch[participant]);
  });
}

/// Runs body(i) for i in [begin, end) in contiguous blocks of
/// ceil(n / workers) on the shard loop. If body throws, the lowest block's
/// exception is rethrown after every block has finished.
void parallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& body,
                 std::size_t threads = 0);

}  // namespace robust

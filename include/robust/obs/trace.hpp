// Span recording and Chrome trace-event export.
//
// Every thread records completed spans (name, requestId, start, duration)
// into two bounded rings that keep its newest records. Span names must be
// string literals (or otherwise outlive the process): only the pointer is
// stored. Both rings serialize to the same deterministic Chrome trace-event
// JSON (chrome://tracing, ui.perfetto.dev), merging exited threads' rings.
//
// The trace ring (kMaxRecordsPerThread spans) answers "what did this run
// do?". A Span marks one scoped unit of work ("core.analyzeStream") and
// records while obs::enabled(); when disabled it is one relaxed load, one
// store and a predictable branch — nothing allocated, no clock read.
// ROBUST_TRACE=<path> enables recording and writes <path> at exit.
//
// The flight ring answers "what happened just BEFORE this fatal reject?".
// It is always on, small, and overwritten forever: one ring slot per
// record, no allocation once full. Records carry the wire requestId. The
// capacity defaults to kDefaultFlightCapacity; ROBUST_FLIGHT=<n> sets it
// at startup (0 disables). The rings stay apart so that a traced run never
// evicts the crash context a fatal-reject dump needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "robust/obs/metrics.hpp"

namespace robust::obs {

/// Capacity of every thread's trace ring, in records, and the largest
/// flight-ring capacity: ROBUST_FLIGHT, setFlightCapacity and robustd
/// --flight are bounded by it.
inline constexpr std::size_t kMaxRecordsPerThread = std::size_t{1} << 16;

/// Default per-thread flight-ring capacity, in records.
inline constexpr std::size_t kDefaultFlightCapacity = 512;

namespace detail {
/// Monotonic nanoseconds since an arbitrary epoch. Overridable in tests so
/// trace exports can be compared against a golden file bit for bit.
[[nodiscard]] std::int64_t nowNanos() noexcept;
void setClockForTesting(std::int64_t (*fn)() noexcept) noexcept;
/// Appends one completed span to the calling thread's trace ring.
void recordSpan(const char* name, std::int64_t startNanos) noexcept;
}  // namespace detail

/// RAII scope marker. `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name) noexcept
      : name_(name), start_(enabled() ? detail::nowNanos() : kInactive) {}
  ~Span() {
    if (start_ != kInactive) {
      detail::recordSpan(name_, start_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr std::int64_t kInactive = INT64_MIN;
  const char* name_;
  std::int64_t start_;
};

/// Writes every thread's trace ring as Chrome trace-event JSON
/// ("cat":"robust"). Each thread's records sort by (start, longest first),
/// ties in recording order; threads by (first start, registration order)
/// with dense 1-based tids. Timestamps are microseconds with nanosecond
/// precision, so exports are byte-deterministic under a test clock.
void writeTrace(std::ostream& out);

/// writeTrace to a file; throws std::runtime_error when it cannot be
/// opened.
void writeTrace(const std::string& path);

/// Discards every recorded span (live rings and retired threads').
void clearTrace() noexcept;

/// Current per-thread flight-ring capacity (records). 0 means recording is
/// off.
[[nodiscard]] std::size_t flightCapacity() noexcept;

/// Sets the per-thread flight-ring capacity, clamped to
/// kMaxRecordsPerThread. Existing rings shrink lazily, keeping their newest
/// records. 0 disables recording.
void setFlightCapacity(std::size_t perThreadRecords) noexcept;

[[nodiscard]] inline bool flightEnabled() noexcept {
  return flightCapacity() > 0;
}

/// Appends one completed record to the calling thread's flight ring,
/// overwriting the oldest when full. Unlike Span this does NOT consult
/// enabled(). `name` must be a string literal. requestId 0 means "not tied
/// to a wire request".
void recordFlight(const char* name, std::uint64_t requestId,
                  std::int64_t startNanos, std::int64_t durationNanos) noexcept;

/// writeTrace's format for every thread's flight ring ("cat":"flight",
/// requestId in "args").
void writeFlightTrace(std::ostream& out);

/// writeFlightTrace to a file; throws std::runtime_error when it cannot be
/// opened.
void writeFlightTrace(const std::string& path);

/// Discards every flight record (live rings and retired threads').
void clearFlight() noexcept;

/// Flight records currently held across all rings (live + retired). For
/// tests and the STATS snapshot.
[[nodiscard]] std::uint64_t flightRecordCount() noexcept;

}  // namespace robust::obs

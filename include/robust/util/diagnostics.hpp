// Structured diagnostics for the external-input boundary.
//
// Every loader (ETC CSV, HiPer-D scenario text) parses *untrusted* bytes:
// files written by other tools, hand-edited archives, network payloads.
// When such input is malformed, the error must name the exact place —
// "etc.csv:12:4: cell 'nan' is not a finite positive time" — instead of a
// context-free strtod failure, and downstream code must be able to consume
// the finding programmatically (source / line / column / message) rather
// than re-parse the what() string. This header provides that vocabulary:
//
//   * Diagnostic   — one structured finding with provenance,
//   * ParseError   — an InvalidArgumentError (so every existing catch site
//                    keeps working) that carries the Diagnostic,
//   * Diagnostics  — a per-source context the loaders thread through their
//                    parse; fail() throws and tallies the rejection.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "robust/util/error.hpp"

namespace robust::util {

/// Why an input was rejected. Categories aggregate rejections for
/// monitoring (each increments a `Diagnostics` counter and, when
/// observability is on, an `io.reject.<category>` obs counter) without
/// forcing consumers to pattern-match message strings.
enum class RejectCategory : std::uint8_t {
  Format,     ///< a token/cell is not lexically what the grammar expects
  Domain,     ///< lexically valid but outside the value policy (sign,
              ///< finiteness, policy caps)
  Structure,  ///< pieces parse but do not fit together (ragged rows,
              ///< wrong keyword, index out of range)
  Truncated,  ///< input ended before the grammar was satisfied
  Other,      ///< anything uncategorised (legacy call sites)
};

inline constexpr std::size_t kRejectCategoryCount = 5;

/// Stable lower-case name ("format", "domain", ...), used for counter keys.
[[nodiscard]] const char* rejectCategoryName(RejectCategory category) noexcept;

/// Per-category rejection tally for one `Diagnostics` context.
struct RejectionCounts {
  std::array<std::uint64_t, kRejectCategoryCount> byCategory{};

  [[nodiscard]] std::uint64_t operator[](RejectCategory c) const noexcept {
    return byCategory[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint64_t v : byCategory) {
      sum += v;
    }
    return sum;
  }
};

/// One structured finding about an external input. Line and column are
/// 1-based; 0 means "not applicable" (column 0 = whole line, line 0 =
/// whole input). For CSV input the column is the 1-based field index; for
/// token-oriented input it is the 1-based character offset of the token.
struct Diagnostic {
  std::string source;      ///< logical input name, e.g. "etc.csv"
  std::size_t line = 0;
  std::size_t column = 0;
  std::string message;
  RejectCategory category = RejectCategory::Other;

  /// Canonical rendering: "source:line:column: message", omitting the
  /// position fields that are 0.
  [[nodiscard]] std::string format() const;
};

/// Thrown by the loaders on malformed input. IS-A InvalidArgumentError, so
/// callers that only care about "the load failed" are unaffected, while
/// callers that relay errors to users (CLIs, services) can access the
/// structured diagnostic.
class ParseError : public InvalidArgumentError {
 public:
  explicit ParseError(Diagnostic diagnostic);

  [[nodiscard]] const Diagnostic& diagnostic() const noexcept {
    return diagnostic_;
  }

 private:
  Diagnostic diagnostic_;
};

/// Diagnostic context bound to one named input source. Loaders create one
/// per load and route every rejection through fail(), which guarantees the
/// provenance fields are always populated.
class Diagnostics {
 public:
  explicit Diagnostics(std::string source) : source_(std::move(source)) {}

  [[nodiscard]] const std::string& source() const noexcept { return source_; }

  /// Throws ParseError pinned to (line, column), tallying `category` in
  /// counts() (and the io.reject.* obs counters) first.
  [[noreturn]] void fail(RejectCategory category, std::size_t line,
                         std::size_t column, std::string message) const;

  /// Throws ParseError pinned to (line, column) as RejectCategory::Other.
  [[noreturn]] void fail(std::size_t line, std::size_t column,
                         std::string message) const {
    fail(RejectCategory::Other, line, column, std::move(message));
  }

  /// Throws ParseError pinned to a whole line.
  [[noreturn]] void failLine(RejectCategory category, std::size_t line,
                             std::string message) const {
    fail(category, line, 0, std::move(message));
  }
  [[noreturn]] void failLine(std::size_t line, std::string message) const {
    fail(RejectCategory::Other, line, 0, std::move(message));
  }

  /// Throws ParseError about the input as a whole (e.g. truncation).
  [[noreturn]] void failInput(RejectCategory category,
                              std::string message) const {
    fail(category, 0, 0, std::move(message));
  }
  [[noreturn]] void failInput(std::string message) const {
    fail(RejectCategory::Other, 0, 0, std::move(message));
  }

  /// Rejections recorded by this context, tallied by category. fail() is
  /// [[noreturn]], so the tally is written just before the throw; a context
  /// observed after a caught ParseError reports the rejection that raised
  /// it.
  [[nodiscard]] const RejectionCounts& counts() const noexcept {
    return counts_;
  }

 private:
  std::string source_;
  // fail() is semantically const (it never mutates the parse state callers
  // see — it throws); the tally is bookkeeping, hence mutable.
  mutable RejectionCounts counts_;
};

/// Formats `v` with %.17g (the same rendering the savers use), so
/// diagnostics echo values exactly as they would round-trip.
[[nodiscard]] std::string formatValue(double v);

}  // namespace robust::util

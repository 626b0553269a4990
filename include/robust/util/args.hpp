// Minimal command-line option parsing for the bench and example binaries.
//
// All harnesses accept overrides like `--seed 7 --mappings 2000 --csv` so the
// paper's parameter sweeps can be re-run without recompiling.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace robust {

/// Parses `--key value` and `--flag` style options. Malformed tokens and
/// malformed numeric values throw InvalidArgumentError. Every getter and
/// has() records the key it asked for, so after reading its options a
/// binary can reject the rest: robustd checks unknownOptions(), and every
/// bench and example harness calls rejectUnknownOptions() once it has read
/// all it accepts, so a typo exits 2 instead of running on defaults.
class ArgParser {
 public:
  /// Parses argv; later duplicates override earlier ones.
  ArgParser(int argc, const char* const* argv);

  /// Returns the string value for `key`, or `fallback` if absent.
  [[nodiscard]] std::string getString(const std::string& key,
                                      const std::string& fallback) const;

  /// Returns the value for `key` parsed as double, or `fallback` if absent.
  [[nodiscard]] double getDouble(const std::string& key,
                                 double fallback) const;

  /// Returns the value for `key` parsed as int64, or `fallback` if absent.
  [[nodiscard]] std::int64_t getInt(const std::string& key,
                                    std::int64_t fallback) const;

  /// True when `--key` appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& key) const;

  /// Options given on the command line that no getter or has() has asked
  /// for so far, in sorted order.
  [[nodiscard]] std::vector<std::string> unknownOptions() const;

  /// When unknownOptions() is not empty, names each one on stderr as
  /// "<program>: unknown option --<key>" and exits the process with
  /// status 2; otherwise returns.
  void rejectUnknownOptions(const char* program) const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> queried_;
};

/// The one failure path of the bench and example harnesses. Each harness
/// wraps its main in a function-try-block whose handler returns this:
///
///   int main(int argc, char** argv) try {
///     const ArgParser args(argc, argv);
///     ...
///   } catch (...) {
///     return harnessFailure("fig1_geometry");
///   }
///
/// Call it only while an exception is being handled. It names the
/// exception on stderr as "<program>: <what>" and returns 2 for an
/// InvalidArgumentError (a malformed option token or value, or an input
/// the library rejects), so a bad command line exits 2 like an unknown
/// option instead of aborting; any other exception returns 1.
[[nodiscard]] int harnessFailure(const char* program) noexcept;

}  // namespace robust

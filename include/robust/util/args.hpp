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
/// malformed numeric values throw. Every getter and has() records the key
/// it asked for, so after reading its options a binary can reject the
/// rest with unknownOptions(): robustd does, exiting 2 on a typo; the bench
/// and example harnesses do not check and ignore options they never read.
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

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> queried_;
};

}  // namespace robust

// A minimal JSON reader for validating the artifacts this library writes:
// run reports (obs::writeRunReport) and Chrome trace-event files. It exists
// so tests and the report_check tool can verify schemas without an external
// dependency — it is not a general-purpose JSON library (\uXXXX escapes are
// decoded for the Basic Multilingual Plane only — no surrogate pairs, which
// our writers never emit — and numbers are parsed as double). It also holds
// the one string escaper those writers share.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace robust::obs::json {

/// One parsed JSON value. Object member order is preserved.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool isNull() const noexcept { return kind == Kind::Null; }
  [[nodiscard]] bool isBool() const noexcept { return kind == Kind::Bool; }
  [[nodiscard]] bool isNumber() const noexcept { return kind == Kind::Number; }
  [[nodiscard]] bool isString() const noexcept { return kind == Kind::String; }
  [[nodiscard]] bool isArray() const noexcept { return kind == Kind::Array; }
  [[nodiscard]] bool isObject() const noexcept { return kind == Kind::Object; }

  /// Member of an object by key, or nullptr (also nullptr on non-objects).
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
};

/// Parses one JSON document (the whole input must be consumed). Throws
/// std::runtime_error naming the byte offset on malformed input.
[[nodiscard]] Value parse(std::string_view text);

/// `s` escaped for a JSON string body (no quotes): '"', '\\', \n and \t
/// as two-character escapes, other control bytes as \u00XX.
[[nodiscard]] std::string escape(std::string_view s);

/// Reads and parses a JSON file. Throws std::runtime_error when the file
/// cannot be read or does not parse.
[[nodiscard]] Value parseFile(const std::string& path);

}  // namespace robust::obs::json

#include "robust/util/args.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "robust/util/error.hpp"

namespace robust {

namespace {

/// True when the whole token parses as a number ("-5", "1e-3", "42").
bool isNumberToken(const std::string& token) {
  if (token.empty()) {
    return false;
  }
  char* end = nullptr;
  (void)std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    ROBUST_REQUIRE(token.rfind("--", 0) == 0,
                   "ArgParser: expected --option, got '" + token + "'");
    std::string key = token.substr(2);
    ROBUST_REQUIRE(!key.empty(), "ArgParser: empty option name");
    // "--5" is almost always a mistyped negative value; a loud error beats
    // silently registering a flag named "5".
    ROBUST_REQUIRE(!isNumberToken(key),
                   "ArgParser: '" + token +
                       "' looks like a numeric value, not an option; "
                       "negative values follow their option, e.g. "
                       "'--offset -5'");
    // The next token is this option's value unless it is itself an option.
    // A single leading '-' does NOT make it an option: negative numbers
    // ("-5", "-1e-3") are deliberately accepted as values.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "";  // bare flag
    }
  }
}

std::string ArgParser::getString(const std::string& key,
                                 const std::string& fallback) const {
  queried_.insert(key);
  const auto it = values_.find(key);
  return it != values_.end() ? it->second : fallback;
}

double ArgParser::getDouble(const std::string& key, double fallback) const {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  ROBUST_REQUIRE(!it->second.empty(),
                 "ArgParser: option --" + key +
                     " expects a numeric value but was given as a bare flag");
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  ROBUST_REQUIRE(end != it->second.c_str() && *end == '\0',
                 "ArgParser: option --" + key + " value '" + it->second +
                     "' is not a number");
  return v;
}

std::int64_t ArgParser::getInt(const std::string& key,
                               std::int64_t fallback) const {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  ROBUST_REQUIRE(!it->second.empty(),
                 "ArgParser: option --" + key +
                     " expects an integer value but was given as a bare flag");
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  ROBUST_REQUIRE(end != it->second.c_str() && *end == '\0',
                 "ArgParser: option --" + key + " value '" + it->second +
                     "' is not an integer");
  return v;
}

bool ArgParser::has(const std::string& key) const {
  queried_.insert(key);
  return values_.contains(key);
}

std::vector<std::string> ArgParser::unknownOptions() const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    if (!queried_.contains(key)) {
      unknown.push_back(key);
    }
  }
  return unknown;
}

void ArgParser::rejectUnknownOptions(const char* program) const {
  const std::vector<std::string> unknown = unknownOptions();
  for (const std::string& key : unknown) {
    std::fprintf(stderr, "%s: unknown option --%s\n", program, key.c_str());
  }
  if (!unknown.empty()) {
    std::exit(2);
  }
}

int harnessFailure(const char* program) noexcept {
  try {
    throw;
  } catch (const InvalidArgumentError& e) {
    std::fprintf(stderr, "%s: %s\n", program, e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", program, e.what());
  } catch (...) {
    std::fprintf(stderr, "%s: unknown exception\n", program);
  }
  return 1;
}

}  // namespace robust

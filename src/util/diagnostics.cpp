#include "robust/util/diagnostics.hpp"

#include <cstdio>
#include <utility>

#include "robust/obs/metrics.hpp"

namespace robust::util {

const char* rejectCategoryName(RejectCategory category) noexcept {
  switch (category) {
    case RejectCategory::Format:
      return "format";
    case RejectCategory::Domain:
      return "domain";
    case RejectCategory::Structure:
      return "structure";
    case RejectCategory::Truncated:
      return "truncated";
    case RejectCategory::Other:
      return "other";
  }
  return "other";
}

std::string Diagnostic::format() const {
  std::string out = source;
  if (line > 0) {
    out += ':';
    out += std::to_string(line);
    if (column > 0) {
      out += ':';
      out += std::to_string(column);
    }
  }
  out += ": ";
  out += message;
  return out;
}

ParseError::ParseError(Diagnostic diagnostic)
    : InvalidArgumentError(diagnostic.format()),
      diagnostic_(std::move(diagnostic)) {}

void Diagnostics::fail(RejectCategory category, std::size_t line,
                       std::size_t column, std::string message) const {
  ++counts_.byCategory[static_cast<std::size_t>(category)];
  if (obs::enabled()) [[unlikely]] {
    static const std::array<obs::MetricId, kRejectCategoryCount> kIds = [] {
      std::array<obs::MetricId, kRejectCategoryCount> ids{};
      for (std::size_t c = 0; c < kRejectCategoryCount; ++c) {
        ids[c] = obs::counterId(
            std::string("io.reject.") +
            rejectCategoryName(static_cast<RejectCategory>(c)));
      }
      return ids;
    }();
    obs::addCounter(kIds[static_cast<std::size_t>(category)]);
  }
  throw ParseError(
      Diagnostic{source_, line, column, std::move(message), category});
}

std::string formatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace robust::util

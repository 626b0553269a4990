// Name lookups in an obs::MetricsSnapshot for the tests. The library's
// snapshot offers counter() alone, the one lookup its harnesses use; gauges
// and histograms are found here by a scan of the snapshot's vectors.
#pragma once

#include <cstdint>
#include <string_view>

#include "robust/obs/metrics.hpp"

namespace robust::testing_util {

/// Value of the named gauge, or 0 when never registered.
inline std::int64_t gaugeValue(const obs::MetricsSnapshot& snapshot,
                               std::string_view name) {
  for (const obs::GaugeValue& g : snapshot.gauges) {
    if (g.name == name) {
      return g.value;
    }
  }
  return 0;
}

/// The named histogram, or nullptr when never registered.
inline const obs::HistogramValue* histogramNamed(
    const obs::MetricsSnapshot& snapshot, std::string_view name) {
  for (const obs::HistogramValue& h : snapshot.histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

}  // namespace robust::testing_util

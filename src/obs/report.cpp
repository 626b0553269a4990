#include "robust/obs/report.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "robust/obs/json_lite.hpp"

namespace robust::obs {

namespace {

void writeString(std::ostream& out, std::string_view s) {
  out << '"' << json::escape(s) << '"';
}

/// %.17g — the same rendering the savers use, so values round-trip.
void writeNumber(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

}  // namespace

void writeRunReport(std::ostream& out, const RunReport& report) {
  out << "{\n  \"schema\": ";
  writeString(out, kRunReportSchemaName);
  out << ",\n  \"schema_version\": " << kRunReportSchemaVersion;
  out << ",\n  \"tool\": ";
  writeString(out, report.tool);

  out << ",\n  \"info\": {";
  for (std::size_t i = 0; i < report.info.size(); ++i) {
    out << (i == 0 ? "\n    " : ",\n    ");
    writeString(out, report.info[i].first);
    out << ": ";
    writeString(out, report.info[i].second);
  }
  out << (report.info.empty() ? "}" : "\n  }");

  out << ",\n  \"benchmarks\": [";
  for (std::size_t i = 0; i < report.benchmarks.size(); ++i) {
    const BenchResult& b = report.benchmarks[i];
    out << (i == 0 ? "\n    " : ",\n    ");
    out << "{\"name\": ";
    writeString(out, b.name);
    out << ", \"value\": ";
    writeNumber(out, b.value);
    out << ", \"unit\": ";
    writeString(out, b.unit);
    out << '}';
  }
  out << (report.benchmarks.empty() ? "]" : "\n  ]");

  if (report.includeMetrics) {
    const MetricsSnapshot snapshot = snapshotMetrics();
    out << ",\n  \"metrics\": {\n    \"counters\": {";
    for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
      out << (i == 0 ? "\n      " : ",\n      ");
      writeString(out, snapshot.counters[i].name);
      out << ": " << snapshot.counters[i].value;
    }
    out << (snapshot.counters.empty() ? "}" : "\n    }");

    out << ",\n    \"gauges\": {";
    for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
      out << (i == 0 ? "\n      " : ",\n      ");
      writeString(out, snapshot.gauges[i].name);
      out << ": " << snapshot.gauges[i].value;
    }
    out << (snapshot.gauges.empty() ? "}" : "\n    }");

    out << ",\n    \"histograms\": {";
    for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
      const HistogramValue& h = snapshot.histograms[i];
      out << (i == 0 ? "\n      " : ",\n      ");
      writeString(out, h.name);
      out << ": {\"count\": " << h.count << ", \"sum_nanos\": " << h.sumNanos
          << ", \"buckets\": [";
      // Trim trailing zero buckets: compact and diff-friendly.
      std::size_t last = h.buckets.size();
      while (last > 0 && h.buckets[last - 1] == 0) {
        --last;
      }
      for (std::size_t b = 0; b < last; ++b) {
        out << (b == 0 ? "" : ", ") << h.buckets[b];
      }
      out << "]}";
    }
    out << (snapshot.histograms.empty() ? "}" : "\n    }");
    out << "\n  }";
  }
  for (std::size_t i = 0; i < report.sections.size(); ++i) {
    const auto& [key, json] = report.sections[i];
    for (const char* reserved : {"schema", "schema_version", "tool", "info",
                                 "benchmarks", "metrics"}) {
      if (key == reserved) {
        throw std::invalid_argument(
            "obs: run-report section key '" + key +
            "' collides with a built-in section");
      }
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (report.sections[j].first == key) {
        throw std::invalid_argument("obs: duplicate run-report section key '" +
                                    key + "'");
      }
    }
    out << ",\n  ";
    writeString(out, key);
    out << ": " << json;
  }
  out << "\n}\n";
}

void writeRunReport(const std::string& path, const RunReport& report) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("obs: cannot open run-report file '" + path +
                             "'");
  }
  writeRunReport(out, report);
}

}  // namespace robust::obs

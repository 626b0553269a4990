// perfbench: the repository benchmark. One binary, three workloads:
//
//   perfbench --workload serve|plan|bulk --seed N --seconds S
//             --trace 0|1 [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics of one untraced timed phase;
// --trace 1 prints the per-layer metrics of a traced phase (obs counters
// on, benchmark spans around each layer call) next to an untraced one.
// The last line of stdout is the result object
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}};
// the line before it records the host and the configuration.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "robust/numeric/simd.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  out += '"';
  return out;
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve|plan|bulk --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      config.trace = std::string_view(value) == "1";
    } else if (key == "--workdir") {
      config.workDir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(config.seconds > 0.0)) {
    return usage();
  }
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Outcome (*run)(const RunConfig&) = nullptr;
  std::string shape;
  if (workload == "serve") {
    run = perfbench::runServe;
    shape = "\"connections\": 2, \"client_threads\": 2, \"server_workers\": 2";
  } else if (workload == "plan") {
    run = perfbench::runPlan;
    shape = "\"localsearch_threads\": 2";
  } else if (workload == "bulk") {
    run = perfbench::runBulk;
    shape = "\"api_threads\": 2";
  } else {
    return usage();
  }

  Outcome out;
  try {
    out = run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& why : out.errors) {
    std::fprintf(stderr, "perfbench: %s: FAILED %s\n", workload.c_str(),
                 why.c_str());
  }

  std::string info = "{\"info\": {\"workload\": " + jsonString(workload) +
                     ", \"seed\": " + std::to_string(config.seed) +
                     ", \"seconds\": " + jsonNumber(config.seconds) +
                     ", \"trace\": " + (config.trace ? "1" : "0") +
                     ", \"nproc\": " +
                     std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"simd_target\": " +
                     jsonString(robust::num::simd::toString(
                         robust::num::simd::activeTarget())) +
                     ", \"compiler\": " + jsonString("GCC " __VERSION__) +
                     ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                     ", " + shape;
  for (const auto& [key, value] : out.info) {
    info += ", " + jsonString(key) + ": " + jsonString(value);
  }
  info += "}}";
  std::printf("%s\n", info.c_str());

  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      out.fail(m.name + " is not finite");
      value = 0.0;
    }
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += jsonString(m.name) + ": {\"value\": " + jsonNumber(value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}

// Differential round-trip fuzz driver for the ingestion boundary — the
// CLI twin of tests/test_io_fuzz.cpp, sized for CI's sanitized job (ASan +
// UBSan catch what a release binary survives silently).
//
//   fuzz_roundtrip [--etc N] [--scenarios N] [--mutations N] [--seed S]
//
// Three phases, all deterministic in --seed:
//   1. N randomized ETC matrices + N scenarios round-trip save -> load
//      bit-identically, with bit-identical robustness reports.
//   2. M byte-level mutations of each artifact kind must either load
//      (admitting only finite values) or raise InvalidArgumentError.
//   3. Every truncation prefix of one artifact of each kind is probed.
//
// Exit code 0 = every property held; 1 = at least one violation (printed).
#include <cmath>
#include <cstddef>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "robust/core/instance_file.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/hiperd/scenario_io.hpp"
#include "robust/scheduling/etc_io.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/scheduling/mapping.hpp"
#include "robust/util/args.hpp"
#include "robust/util/diagnostics.hpp"
#include "robust/util/error.hpp"
#include "robust/util/fuzz.hpp"
#include "robust/util/rng.hpp"
#include "robust/util/table.hpp"

namespace {

using namespace robust;

int failures = 0;

void report(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

sched::EtcMatrix randomEtc(std::uint64_t master, std::uint64_t seed) {
  Pcg32 rng = makeStream(master, seed);
  sched::EtcOptions options;
  options.apps = 1 + rng.nextBounded(12);
  options.machines = 1 + rng.nextBounded(8);
  options.meanTaskTime = rng.uniform(0.5, 50.0);
  options.taskHeterogeneity = rng.uniform(0.0, 1.2);
  options.machineHeterogeneity = rng.uniform(0.0, 1.2);
  options.consistency = static_cast<sched::EtcConsistency>(rng.nextBounded(3));
  return sched::generateEtc(options, rng);
}

bool etcEqual(const sched::EtcMatrix& a, const sched::EtcMatrix& b) {
  if (a.apps() != b.apps() || a.machines() != b.machines()) {
    return false;
  }
  for (std::size_t i = 0; i < a.apps(); ++i) {
    for (std::size_t j = 0; j < a.machines(); ++j) {
      if (a(i, j) != b(i, j)) {  // bitwise (no NaN can be present)
        return false;
      }
    }
  }
  return true;
}

bool reportsIdentical(const core::RobustnessReport& a,
                      const core::RobustnessReport& b) {
  if (a.metric != b.metric || a.bindingFeature != b.bindingFeature ||
      a.radii.size() != b.radii.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.radii.size(); ++i) {
    if (a.radii[i].radius != b.radii[i].radius ||
        a.radii[i].feature != b.radii[i].feature) {
      return false;
    }
  }
  return true;
}

/// Phase 2/3 outcome counters for one artifact kind.
struct FuzzCounts {
  int loaded = 0;
  int rejected = 0;
  int wrongException = 0;
};

template <typename LoadFn, typename CheckFn>
void probe(const std::string& text, FuzzCounts& counts, LoadFn load,
           CheckFn check) {
  try {
    std::istringstream is(text);
    if (check(load(is))) {
      ++counts.loaded;
    } else {
      ++counts.wrongException;  // loaded, but with values the policy bans
      report(false, "loader admitted policy-violating values");
    }
  } catch (const InvalidArgumentError&) {
    ++counts.rejected;  // structured rejection: the expected outcome
  } catch (const std::exception& err) {
    ++counts.wrongException;
    report(false, std::string("unexpected exception type: ") + err.what());
  }
}

/// A valid binary instance-file image (the streaming lane's format),
/// random shape, packed through the fail-fast writer.
std::string randomInstanceImage(std::uint64_t master, std::uint64_t seed,
                                std::vector<double>* values = nullptr) {
  Pcg32 rng = makeStream(master, seed ^ 0xb117);
  const std::uint64_t dim = 1 + rng.nextBounded(16);
  const std::uint64_t count = 1 + rng.nextBounded(40);
  std::ostringstream out(std::ios::binary);
  core::InstanceFileWriter writer(out, dim);
  std::vector<double> row(dim);
  for (std::uint64_t i = 0; i < count; ++i) {
    for (double& v : row) {
      v = rng.uniform(-50.0, 50.0);
    }
    writer.append(row);
    if (values != nullptr) {
      values->insert(values->end(), row.begin(), row.end());
    }
  }
  writer.finish();
  return out.str();
}

/// The binary-format analogue of probe(): loadInstanceData over a byte
/// image, admitting only finite values.
void probeImage(const std::string& image, FuzzCounts& counts) {
  try {
    const util::Diagnostics diag("fuzz.rbi");
    const core::InstanceData data = core::loadInstanceData(image, diag);
    bool finite = true;
    for (double v : data.values) {
      finite = finite && std::isfinite(v);
    }
    if (finite) {
      ++counts.loaded;
    } else {
      ++counts.wrongException;
      report(false, "binary loader admitted non-finite values");
    }
  } catch (const InvalidArgumentError&) {
    ++counts.rejected;
  } catch (const std::exception& err) {
    ++counts.wrongException;
    report(false, std::string("unexpected exception type: ") + err.what());
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  const auto etcCases = static_cast<std::uint64_t>(args.getInt("etc", 120));
  const auto scenarioCases =
      static_cast<std::uint64_t>(args.getInt("scenarios", 20));
  const int mutations = static_cast<int>(args.getInt("mutations", 500));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2003));
  args.rejectUnknownOptions("fuzz_roundtrip");

  // ------------------------------------------------ phase 1: round trips
  int etcRoundTrips = 0;
  for (std::uint64_t s = 0; s < etcCases; ++s) {
    const sched::EtcMatrix etc = randomEtc(seed, s);
    std::stringstream stream;
    sched::saveEtcCsv(etc, stream);
    try {
      const sched::EtcMatrix loaded = sched::loadEtcCsv(stream);
      report(etcEqual(etc, loaded),
             "ETC round trip not bit-identical at seed " + std::to_string(s));
      Pcg32 rng = makeStream(seed ^ 0xabcd, s);
      const auto mapping =
          sched::randomMapping(etc.apps(), etc.machines(), rng);
      const auto ra =
          sched::IndependentTaskSystem(etc, mapping, 1.2).compile().evaluate();
      const auto rb = sched::IndependentTaskSystem(loaded, mapping, 1.2)
                          .compile()
                          .evaluate();
      report(reportsIdentical(ra, rb),
             "ETC reports diverge after reload at seed " + std::to_string(s));
      ++etcRoundTrips;
    } catch (const std::exception& err) {
      report(false, std::string("ETC round trip threw: ") + err.what());
    }
  }

  int scenarioRoundTrips = 0;
  std::string scenarioText;
  for (std::uint64_t s = 0; s < scenarioCases; ++s) {
    const auto generated =
        hiperd::generateScenario(hiperd::ScenarioOptions{}, seed + s);
    std::stringstream stream;
    hiperd::saveScenario(generated.scenario, stream);
    scenarioText = stream.str();
    try {
      const hiperd::HiperdScenario loaded = hiperd::loadScenario(stream);
      std::stringstream again;
      hiperd::saveScenario(loaded, again);
      report(again.str() == scenarioText,
             "scenario reserialization not byte-identical at seed " +
                 std::to_string(seed + s));
      Pcg32 rng = makeStream(seed ^ 0x5ce9, s);
      const auto mapping = sched::randomMapping(
          loaded.graph.applicationCount(), loaded.machines, rng);
      report(reportsIdentical(generated.scenario.compile().analyze(mapping),
                              loaded.compile().analyze(mapping)),
             "scenario reports diverge after reload at seed " +
                 std::to_string(seed + s));
      ++scenarioRoundTrips;
    } catch (const std::exception& err) {
      report(false, std::string("scenario round trip threw: ") + err.what());
    }
  }

  int binaryRoundTrips = 0;
  for (std::uint64_t s = 0; s < etcCases; ++s) {
    std::vector<double> expected;
    const std::string image = randomInstanceImage(seed, s, &expected);
    try {
      const util::Diagnostics diag("roundtrip.rbi");
      const core::InstanceData data = core::loadInstanceData(image, diag);
      bool same = data.values.size() == expected.size();
      for (std::size_t i = 0; same && i < expected.size(); ++i) {
        same = data.values[i] == expected[i];  // bitwise: all finite
      }
      report(same, "binary instance round trip not bit-identical at seed " +
                       std::to_string(s));
      ++binaryRoundTrips;
    } catch (const std::exception& err) {
      report(false,
             std::string("binary instance round trip threw: ") + err.what());
    }
  }

  // ------------------------------------------------- phase 2: mutations
  std::stringstream etcStream;
  sched::saveEtcCsv(randomEtc(seed, 7), etcStream);
  const std::string etcText = etcStream.str();

  FuzzCounts etcCounts;
  Pcg32 etcRng = makeStream(seed, 0xe7c);
  for (int i = 0; i < mutations; ++i) {
    probe(util::mutateBytes(etcText, etcRng), etcCounts,
          [](std::istream& is) { return sched::loadEtcCsv(is, "fuzz.csv"); },
          [](const sched::EtcMatrix& m) {
            for (std::size_t r = 0; r < m.apps(); ++r) {
              for (std::size_t c = 0; c < m.machines(); ++c) {
                if (!std::isfinite(m(r, c)) || !(m(r, c) > 0.0)) {
                  return false;
                }
              }
            }
            return true;
          });
  }

  FuzzCounts scenarioCounts;
  Pcg32 scenRng = makeStream(seed, 0x5ce);
  for (int i = 0; i < mutations; ++i) {
    probe(util::mutateBytes(scenarioText, scenRng), scenarioCounts,
          [](std::istream& is) {
            return hiperd::loadScenario(is, "fuzz.scenario");
          },
          [](const hiperd::HiperdScenario& sc) {
            for (double v : sc.lambdaOrig) {
              if (!std::isfinite(v)) {
                return false;
              }
            }
            for (double v : sc.latencyLimits) {
              if (!std::isfinite(v) || !(v > 0.0)) {
                return false;
              }
            }
            for (const auto& row : sc.compute) {
              for (const auto& fn : row) {
                for (double c : fn.coeffs()) {
                  if (!std::isfinite(c)) {
                    return false;
                  }
                }
              }
            }
            return true;
          });
  }

  FuzzCounts binaryCounts;
  const std::string binaryImage = randomInstanceImage(seed, 7);
  Pcg32 binRng = makeStream(seed, 0xb17);
  for (int i = 0; i < mutations; ++i) {
    probeImage(util::mutateBytes(binaryImage, binRng), binaryCounts);
  }

  // ------------------------------------------------ phase 3: truncation
  FuzzCounts truncCounts;
  // Every strict prefix of a binary image must reject (the header pins the
  // exact payload size); a prefix that loads is itself a violation.
  {
    const int loadedBefore = truncCounts.loaded;
    for (std::size_t cut = 0; cut < binaryImage.size(); ++cut) {
      probeImage(binaryImage.substr(0, cut), truncCounts);
    }
    report(truncCounts.loaded == loadedBefore,
           "a strict binary prefix unexpectedly loaded");
  }
  for (std::size_t cut = 0; cut < etcText.size(); ++cut) {
    probe(etcText.substr(0, cut), truncCounts,
          [](std::istream& is) { return sched::loadEtcCsv(is); },
          [](const sched::EtcMatrix&) { return true; });
  }
  for (std::size_t cut = 0; cut < scenarioText.size(); ++cut) {
    probe(scenarioText.substr(0, cut), truncCounts,
          [](std::istream& is) { return hiperd::loadScenario(is); },
          [](const hiperd::HiperdScenario&) { return true; });
  }

  TablePrinter table({"phase", "cases", "loaded", "rejected", "bad"});
  table.addRow({"etc round trip", std::to_string(etcRoundTrips), "-", "-", "-"});
  table.addRow({"scenario round trip", std::to_string(scenarioRoundTrips), "-",
             "-", "-"});
  table.addRow({"etc mutation", std::to_string(mutations),
             std::to_string(etcCounts.loaded),
             std::to_string(etcCounts.rejected),
             std::to_string(etcCounts.wrongException)});
  table.addRow({"scenario mutation", std::to_string(mutations),
             std::to_string(scenarioCounts.loaded),
             std::to_string(scenarioCounts.rejected),
             std::to_string(scenarioCounts.wrongException)});
  table.addRow({"binary round trip", std::to_string(binaryRoundTrips), "-",
             "-", "-"});
  table.addRow({"binary mutation", std::to_string(mutations),
             std::to_string(binaryCounts.loaded),
             std::to_string(binaryCounts.rejected),
             std::to_string(binaryCounts.wrongException)});
  table.addRow({"truncation sweep",
             std::to_string(binaryImage.size() + etcText.size() +
                            scenarioText.size()),
             std::to_string(truncCounts.loaded),
             std::to_string(truncCounts.rejected),
             std::to_string(truncCounts.wrongException)});
  table.print(std::cout);

  if (failures > 0) {
    std::cerr << failures << " fuzz property violation(s)\n";
    return 1;
  }
  std::cout << "all fuzz properties held\n";
  return 0;
} catch (...) {
  return robust::harnessFailure("fuzz_roundtrip");
}

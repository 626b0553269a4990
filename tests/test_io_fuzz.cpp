// Differential round-trip fuzz harness for the ingestion boundary.
//
// Three properties, all deterministic (seeded Pcg32 streams):
//   1. Round-trip: randomized ETC matrices and HiPer-D scenarios survive
//      save -> load bit-identically (the %.17g pin), and the loaded copy
//      produces bit-identical evaluate() reports to the in-memory
//      original — the loader is exactly transparent for valid input.
//   2. Mutation: every byte-damaged artifact either loads (with only
//      finite values — nothing non-finite can reach a CompiledProblem) or
//      raises a structured InvalidArgumentError. No crash, no UB, no other
//      exception type; util::ParseError findings carry the source name.
//   3. Truncation: every prefix of a valid artifact is rejected cleanly
//      (or, for the full artifact, loads identically).
// A fourth artifact kind, the binary instance file of the streaming lane
// (robust/core/instance_file.hpp), runs the same three properties through
// both entry points: the in-memory loader and the mmap-backed
// InstanceFileReader -> analyzeStream path.
#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "robust/core/compiled.hpp"
#include "robust/core/instance_file.hpp"
#include "robust/core/stream.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/hiperd/scenario_io.hpp"
#include "robust/scheduling/etc_io.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/scheduling/mapping.hpp"
#include "robust/util/diagnostics.hpp"
#include "robust/util/error.hpp"
#include "robust/util/fuzz.hpp"
#include "robust/util/rng.hpp"

namespace robust {
namespace {

constexpr std::uint64_t kMasterSeed = 2003;  // the paper's year

// ------------------------------------------------------------ helpers

void expectReportsBitIdentical(const core::RobustnessReport& a,
                               const core::RobustnessReport& b) {
  ASSERT_EQ(a.radii.size(), b.radii.size());
  EXPECT_EQ(a.metric, b.metric);  // bitwise: operator== on doubles
  EXPECT_EQ(a.bindingFeature, b.bindingFeature);
  EXPECT_EQ(a.floored, b.floored);
  for (std::size_t i = 0; i < a.radii.size(); ++i) {
    EXPECT_EQ(a.radii[i].feature, b.radii[i].feature);
    EXPECT_EQ(a.radii[i].radius, b.radii[i].radius);
    EXPECT_EQ(a.radii[i].boundaryLevel, b.radii[i].boundaryLevel);
    EXPECT_EQ(a.radii[i].boundReachable, b.radii[i].boundReachable);
    EXPECT_EQ(a.radii[i].method, b.radii[i].method);
    ASSERT_EQ(a.radii[i].boundaryPoint.size(), b.radii[i].boundaryPoint.size());
    for (std::size_t k = 0; k < a.radii[i].boundaryPoint.size(); ++k) {
      EXPECT_EQ(a.radii[i].boundaryPoint[k], b.radii[i].boundaryPoint[k]);
    }
  }
}

sched::EtcMatrix randomEtc(std::uint64_t seed) {
  Pcg32 rng = makeStream(kMasterSeed, seed);
  sched::EtcOptions options;
  options.apps = 1 + rng.nextBounded(12);
  options.machines = 1 + rng.nextBounded(8);
  options.meanTaskTime = rng.uniform(0.5, 50.0);
  options.taskHeterogeneity = rng.uniform(0.0, 1.2);
  options.machineHeterogeneity = rng.uniform(0.0, 1.2);
  options.consistency = static_cast<sched::EtcConsistency>(rng.nextBounded(3));
  return sched::generateEtc(options, rng);
}

/// Loads mutated bytes; the only acceptable outcomes are a clean load of
/// all-finite values or an InvalidArgumentError. Returns true on load.
template <typename LoadFn, typename CheckFn>
bool loadOrReject(const std::string& text, LoadFn load, CheckFn check) {
  try {
    std::istringstream is(text);
    check(load(is));
    return true;
  } catch (const util::ParseError& err) {
    EXPECT_FALSE(err.diagnostic().source.empty());
    EXPECT_FALSE(err.diagnostic().message.empty());
    return false;
  } catch (const InvalidArgumentError&) {
    // Structural rejections re-attributed from deeper layers.
    return false;
  } catch (const std::exception& err) {
    ADD_FAILURE() << "unexpected exception type: " << err.what();
    return false;
  }
}

// ------------------------------------------------- ETC round-trip (1/2)

TEST(IoFuzz, EtcRoundTripsBitIdenticallyAcross120Instances) {
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const sched::EtcMatrix etc = randomEtc(seed);
    std::stringstream stream;
    sched::saveEtcCsv(etc, stream);
    const sched::EtcMatrix loaded = sched::loadEtcCsv(stream);
    ASSERT_EQ(loaded.apps(), etc.apps()) << "seed " << seed;
    ASSERT_EQ(loaded.machines(), etc.machines()) << "seed " << seed;
    for (std::size_t i = 0; i < etc.apps(); ++i) {
      for (std::size_t j = 0; j < etc.machines(); ++j) {
        ASSERT_EQ(loaded(i, j), etc(i, j)) << "seed " << seed;
      }
    }
  }
}

TEST(IoFuzz, EtcLoadedCopyAnalyzesBatchBitIdentically) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const sched::EtcMatrix etc = randomEtc(seed);
    std::stringstream stream;
    sched::saveEtcCsv(etc, stream);
    const sched::EtcMatrix loaded = sched::loadEtcCsv(stream);

    Pcg32 rng = makeStream(kMasterSeed ^ 0xabcd, seed);
    const auto mapping = sched::randomMapping(etc.apps(), etc.machines(), rng);
    const sched::IndependentTaskSystem original(etc, mapping, 1.2);
    const sched::IndependentTaskSystem reloaded(loaded, mapping, 1.2);

    const core::CompiledProblem a = original.compile();
    const core::CompiledProblem b = reloaded.compile();
    const std::vector<core::AnalysisInstance> instances(3);
    core::EvalWorkspace wa;
    core::EvalWorkspace wb;
    for (const core::AnalysisInstance& instance : instances) {
      expectReportsBitIdentical(a.evaluate(instance, wa),
                                b.evaluate(instance, wb));
    }
  }
}

// --------------------------------------------- scenario round-trip (1/2)

TEST(IoFuzz, ScenarioRoundTripsBitIdenticallyAcross30Instances) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const auto generated =
        hiperd::generateScenario(hiperd::ScenarioOptions{}, seed);
    const hiperd::HiperdScenario& original = generated.scenario;
    std::stringstream stream;
    hiperd::saveScenario(original, stream);
    const hiperd::HiperdScenario loaded = hiperd::loadScenario(stream);

    // Second round trip pins byte-identity of the serialized form itself.
    std::stringstream again;
    hiperd::saveScenario(loaded, again);
    ASSERT_EQ(again.str(), stream.str()) << "seed " << seed;

    // Differential: identical robustness analysis for identical mappings.
    Pcg32 rng = makeStream(kMasterSeed ^ 0x5ce9, seed);
    const auto mapping = sched::randomMapping(
        original.graph.applicationCount(), original.machines, rng);
    expectReportsBitIdentical(original.compile().analyze(mapping),
                              loaded.compile().analyze(mapping));
  }
}

// ------------------------------------------------------- mutation (2)

TEST(IoFuzz, MutatedEtcNeverCrashesAndNeverAdmitsNonFinite) {
  const sched::EtcMatrix etc = randomEtc(7);
  std::stringstream stream;
  sched::saveEtcCsv(etc, stream);
  const std::string valid = stream.str();

  Pcg32 rng = makeStream(kMasterSeed, 0xe7c);
  int loadedCount = 0;
  for (int i = 0; i < 600; ++i) {
    const std::string mutated = util::mutateBytes(valid, rng);
    loadedCount += loadOrReject(
        mutated,
        [](std::istream& is) { return sched::loadEtcCsv(is, "fuzz.csv"); },
        [](const sched::EtcMatrix& m) {
          for (std::size_t r = 0; r < m.apps(); ++r) {
            for (std::size_t c = 0; c < m.machines(); ++c) {
              ASSERT_TRUE(std::isfinite(m(r, c)) && m(r, c) > 0.0)
                  << "loader admitted non-finite/non-positive cell";
            }
          }
        });
  }
  // Sanity on the corpus itself: some mutations must survive (e.g. a digit
  // flip) and most must be rejected — otherwise the mutator is broken.
  EXPECT_GT(loadedCount, 0);
  EXPECT_LT(loadedCount, 600);
}

TEST(IoFuzz, MutatedScenarioNeverCrashesAndNeverAdmitsNonFinite) {
  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, 2003);
  std::stringstream stream;
  hiperd::saveScenario(generated.scenario, stream);
  const std::string valid = stream.str();

  Pcg32 rng = makeStream(kMasterSeed, 0x5ce);
  int loadedCount = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string mutated = util::mutateBytes(valid, rng);
    loadedCount += loadOrReject(
        mutated,
        [](std::istream& is) {
          return hiperd::loadScenario(is, "fuzz.scenario");
        },
        [](const hiperd::HiperdScenario& s) {
          for (double v : s.lambdaOrig) {
            ASSERT_TRUE(std::isfinite(v));
          }
          for (double v : s.latencyLimits) {
            ASSERT_TRUE(std::isfinite(v) && v > 0.0);
          }
          for (const auto& row : s.compute) {
            for (const auto& fn : row) {
              for (double c : fn.coeffs()) {
                ASSERT_TRUE(std::isfinite(c));
              }
            }
          }
          for (const auto& fn : s.comm) {
            for (double c : fn.coeffs()) {
              ASSERT_TRUE(std::isfinite(c));
            }
          }
          // A successfully loaded scenario must be analyzable without any
          // NaN escaping into the compiled report.
          Pcg32 mapRng(1);
          const auto mapping = sched::randomMapping(
              s.graph.applicationCount(), s.machines, mapRng);
          const auto report = s.compile().analyze(mapping);
          ASSERT_FALSE(std::isnan(report.metric));
        });
  }
  EXPECT_LT(loadedCount, 400);
}

// ------------------------------------------------------ truncation (3)

TEST(IoFuzz, EveryEtcPrefixRejectsCleanly) {
  const sched::EtcMatrix etc = randomEtc(11);
  std::stringstream stream;
  sched::saveEtcCsv(etc, stream);
  const std::string valid = stream.str();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    (void)loadOrReject(
        valid.substr(0, cut),
        [](std::istream& is) { return sched::loadEtcCsv(is); },
        [](const sched::EtcMatrix&) {});
  }
}

TEST(IoFuzz, EveryScenarioPrefixRejectsCleanly) {
  hiperd::ScenarioOptions small;
  small.applications = 8;
  small.machines = 3;
  small.targetPaths = 6;
  const auto generated = hiperd::generateScenario(small, 17);
  std::stringstream stream;
  hiperd::saveScenario(generated.scenario, stream);
  const std::string valid = stream.str();
  // Any cut before the final line removes whole required tokens, so the
  // loader MUST throw. Cuts inside the final line may still parse (EOF can
  // complete the last numeric token), so there only "no crash" is asserted.
  const std::size_t lastLineStart = valid.rfind('\n', valid.size() - 2) + 1;
  // Stride 3 keeps the sweep fast while still cutting inside every field
  // kind; the full-resolution sweep runs in the bench driver.
  for (std::size_t cut = 0; cut < valid.size(); cut += 3) {
    const std::string prefix = valid.substr(0, cut);
    if (cut < lastLineStart) {
      std::istringstream is(prefix);
      EXPECT_THROW((void)hiperd::loadScenario(is), InvalidArgumentError)
          << "prefix of length " << cut << " unexpectedly loaded";
    } else {
      (void)loadOrReject(
          prefix,
          [](std::istream& is) { return hiperd::loadScenario(is); },
          [](const hiperd::HiperdScenario&) {});
    }
  }
}

// ------------------------------------- binary instance files (1, 2, 3)

/// A valid instance-file image: a tiny problem's worth of perturbations
/// packed through the streaming writer.
std::string validInstanceImage(std::uint64_t dim, std::uint64_t count) {
  Pcg32 rng = makeStream(kMasterSeed, 0xb1);
  std::ostringstream out(std::ios::binary);
  core::InstanceFileWriter writer(out, dim);
  std::vector<double> row(dim);
  for (std::uint64_t i = 0; i < count; ++i) {
    for (double& v : row) {
      v = rng.uniform(0.5, 1.5);
    }
    writer.append(row);
  }
  writer.finish();
  return out.str();
}

/// A matching problem for driving mutated images through analyzeStream.
core::CompiledProblem tinyStreamProblem(std::size_t dim) {
  Pcg32 rng = makeStream(kMasterSeed, 0xb2);
  core::ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin.assign(dim, 1.0);
  for (std::size_t r = 0; r < 4; ++r) {
    num::Vec weights(dim);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    spec.features.push_back(core::PerformanceFeature{
        "F_" + std::to_string(r),
        core::ImpactFunction::affine(std::move(weights)),
        core::ToleranceBounds::atMost(rng.uniform(2.0, 8.0) *
                                      static_cast<double>(dim))});
  }
  return core::CompiledProblem::compile(std::move(spec));
}

/// Loads a byte image through the in-memory loader; clean loads must hold
/// only finite values. Returns true on load, false on structured reject.
bool loadImageOrReject(const std::string& image) {
  try {
    const util::Diagnostics diag("fuzz.rbi");
    const core::InstanceData data = core::loadInstanceData(image, diag);
    for (double v : data.values) {
      EXPECT_TRUE(std::isfinite(v))
          << "binary loader admitted a non-finite value";
    }
    return true;
  } catch (const util::ParseError& err) {
    EXPECT_FALSE(err.diagnostic().source.empty());
    EXPECT_FALSE(err.diagnostic().message.empty());
    return false;
  } catch (const InvalidArgumentError&) {
    return false;
  } catch (const std::exception& err) {
    ADD_FAILURE() << "unexpected exception type: " << err.what();
    return false;
  }
}

TEST(IoFuzz, MutatedInstanceFileNeverCrashesAndNeverAdmitsNonFinite) {
  const std::string valid = validInstanceImage(6, 20);
  Pcg32 rng = makeStream(kMasterSeed, 0xb17);
  int loadedCount = 0;
  for (int i = 0; i < 600; ++i) {
    loadedCount += loadImageOrReject(util::mutateBytes(valid, rng)) ? 1 : 0;
  }
  // The format is mostly payload, so many single-byte flips only move a
  // finite double; the header and shape damage must all be caught.
  EXPECT_GT(loadedCount, 0);
  EXPECT_LT(loadedCount, 600);
}

TEST(IoFuzz, MutatedInstanceFileThroughMmapReaderNeverCrashes) {
  const std::string valid = validInstanceImage(6, 20);
  const core::CompiledProblem problem = tinyStreamProblem(6);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("robust_io_fuzz_" + std::to_string(::getpid()) + ".rbi"))
          .string();

  Pcg32 rng = makeStream(kMasterSeed, 0xb18);
  for (int i = 0; i < 200; ++i) {
    const std::string mutated = util::mutateBytes(valid, rng);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.is_open());
      out.write(mutated.data(),
                static_cast<std::streamsize>(mutated.size()));
    }
    bool streamed = false;
    try {
      core::StreamOptions options;
      options.shardInstances = 7;
      const core::StreamResult result =
          core::analyzeStream(problem, path, options);
      EXPECT_FALSE(std::isnan(result.metric))
          << "streaming lane emitted NaN from a mutated file";
      streamed = true;
    } catch (const InvalidArgumentError&) {
      // ParseError (malformed file / non-finite payload), dimension
      // mismatch, degenerate rows — all structured rejections.
    } catch (const std::exception& err) {
      ADD_FAILURE() << "unexpected exception type: " << err.what();
    }
    // The two entry points share one validation boundary: a file the
    // streaming lane accepted must also pass the in-memory loader (modulo
    // problem-dependent degenerate-row rejects, which only go the other
    // way).
    if (streamed) {
      EXPECT_TRUE(loadImageOrReject(mutated));
    }
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(IoFuzz, TrailingGarbageAfterThePayloadRejectsWithStructureCategory) {
  const std::string valid = validInstanceImage(5, 9);
  Pcg32 rng = makeStream(kMasterSeed, 0xb19);
  // Any nonzero number of appended bytes — a single NUL, a partial
  // instance, whole garbage instances — must be rejected as a Structure
  // violation naming the trailing byte count, through both entry points.
  // (A file that gained exactly k*dim*8 bytes of garbage would instead be
  // a header/payload mismatch caught the same way: the declared instance
  // count no longer matches the file size.)
  for (const std::size_t extra : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{39},
                                  std::size_t{41}, std::size_t{256}}) {
    std::string grown = valid;
    for (std::size_t i = 0; i < extra; ++i) {
      grown.push_back(static_cast<char>(rng.nextBounded(256)));
    }
    const util::Diagnostics diag("trailing.rbi");
    try {
      (void)core::loadInstanceData(grown, diag);
      ADD_FAILURE() << extra << " trailing bytes unexpectedly loaded";
    } catch (const util::ParseError& err) {
      EXPECT_EQ(err.diagnostic().category, util::RejectCategory::Structure)
          << "extra " << extra;
      EXPECT_NE(err.diagnostic().message.find("trailing bytes"),
                std::string::npos)
          << "extra " << extra << ": " << err.diagnostic().message;
    }
  }
}

TEST(IoFuzz, EveryInstanceFilePrefixRejectsCleanly) {
  const std::string valid = validInstanceImage(5, 9);
  // The header declares the exact payload size, so EVERY strict prefix is
  // rejectable — stronger than the text formats' EOF ambiguity.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const util::Diagnostics diag("prefix.rbi");
    EXPECT_THROW((void)core::loadInstanceData(valid.substr(0, cut), diag),
                 InvalidArgumentError)
        << "prefix of length " << cut << " unexpectedly loaded";
  }
  EXPECT_TRUE(loadImageOrReject(valid));
}

}  // namespace
}  // namespace robust

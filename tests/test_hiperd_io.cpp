// Tests for HiPer-D scenario persistence: exact round trips and rejection
// of malformed or inconsistent input.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "robust/core/input_policy.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/hiperd/scenario_io.hpp"
#include "robust/util/diagnostics.hpp"
#include "robust/util/error.hpp"

namespace robust::hiperd {
namespace {

TEST(ScenarioIo, RoundTripsGeneratedScenarioExactly) {
  const auto generated = generateScenario(ScenarioOptions{}, 2003);
  const HiperdScenario& original = generated.scenario;

  std::stringstream stream;
  saveScenario(original, stream);
  const HiperdScenario loaded = loadScenario(stream);

  // Structure.
  EXPECT_EQ(loaded.graph.sensorCount(), original.graph.sensorCount());
  EXPECT_EQ(loaded.graph.applicationCount(),
            original.graph.applicationCount());
  EXPECT_EQ(loaded.graph.actuatorCount(), original.graph.actuatorCount());
  EXPECT_EQ(loaded.graph.edgeCount(), original.graph.edgeCount());
  EXPECT_EQ(loaded.graph.paths().size(), original.graph.paths().size());
  EXPECT_EQ(loaded.machines, original.machines);
  // Exact values (%.17g round-trips doubles).
  EXPECT_EQ(loaded.lambdaOrig, original.lambdaOrig);
  EXPECT_EQ(loaded.latencyLimits, original.latencyLimits);
  for (std::size_t a = 0; a < original.compute.size(); ++a) {
    for (std::size_t m = 0; m < original.compute[a].size(); ++m) {
      EXPECT_EQ(loaded.compute[a][m].coeffs(),
                original.compute[a][m].coeffs());
    }
  }
  for (std::size_t e = 0; e < original.comm.size(); ++e) {
    EXPECT_EQ(loaded.comm[e].coeffs(), original.comm[e].coeffs());
  }
}

TEST(ScenarioIo, RoundTrippedScenarioAnalyzesIdentically) {
  const auto generated = generateScenario(ScenarioOptions{}, 11);
  std::stringstream stream;
  saveScenario(generated.scenario, stream);
  const HiperdScenario loaded = loadScenario(stream);

  Pcg32 rng(5);
  const auto mapping = sched::randomMapping(
      loaded.graph.applicationCount(), loaded.machines, rng);
  const CompiledScenario a = generated.scenario.compile();
  const CompiledScenario b = loaded.compile();
  EXPECT_DOUBLE_EQ(a.slack(mapping), b.slack(mapping));
  EXPECT_DOUBLE_EQ(a.analyze(mapping).metric, b.analyze(mapping).metric);
}

TEST(ScenarioIo, RejectsNonLinearFunctions) {
  auto generated = generateScenario(ScenarioOptions{}, 3);
  generated.scenario.compute[0][0] = LoadFunction::general(
      [](std::span<const double> l) { return l[0] * l[0]; });
  std::stringstream stream;
  EXPECT_THROW(saveScenario(generated.scenario, stream),
               InvalidArgumentError);
}

TEST(ScenarioIo, RejectsMalformedInput) {
  {
    std::stringstream s("not-a-scenario");
    EXPECT_THROW((void)loadScenario(s), InvalidArgumentError);
  }
  {
    std::stringstream s("hiperd-scenario v2");
    EXPECT_THROW((void)loadScenario(s), InvalidArgumentError);
  }
  {
    std::stringstream s("hiperd-scenario v1\nsensors abc\n");
    EXPECT_THROW((void)loadScenario(s), InvalidArgumentError);
  }
  {
    // Truncated mid-file.
    const auto generated = generateScenario(ScenarioOptions{}, 4);
    std::stringstream full;
    saveScenario(generated.scenario, full);
    const std::string text = full.str();
    std::stringstream truncated(text.substr(0, text.size() / 2));
    EXPECT_THROW((void)loadScenario(truncated), InvalidArgumentError);
  }
}

// The reader tracks the 1-based line and column of every token, so each
// rejection names the exact offending place in the input.
TEST(ScenarioIo, DiagnosticCarriesTokenProvenance) {
  std::stringstream s("hiperd-scenario v9\n");
  try {
    (void)loadScenario(s);
    FAIL() << "expected a throw";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.diagnostic().format(),
              "scenario:1:17: expected 'v1', got 'v9'");
  }
}

TEST(ScenarioIo, NonFiniteRateDiagnosticNamesLineAndColumn) {
  std::stringstream s("hiperd-scenario v1\nsensors 1\nn0 nan\n");
  try {
    (void)loadScenario(s, "fleet.scenario");
    FAIL() << "expected a throw";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.diagnostic().format(),
              "fleet.scenario:3:4: sensor rate 'nan' is not finite");
    EXPECT_EQ(e.diagnostic().line, 3u);
    EXPECT_EQ(e.diagnostic().column, 4u);
  }
}

TEST(ScenarioIo, NegativeRateDiagnosticShowsValue) {
  std::stringstream s("hiperd-scenario v1\nsensors 1\nn0 -2.5\n");
  try {
    (void)loadScenario(s);
    FAIL() << "expected a throw";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(
        e.diagnostic().format(),
        "scenario:3:4: sensor rate '-2.5' is not a finite positive value");
  }
}

TEST(ScenarioIo, TruncationDiagnosticNamesMissingField) {
  std::stringstream s("hiperd-scenario v1\nsensors 2\nn0 1.0\n");
  try {
    (void)loadScenario(s);
    FAIL() << "expected a throw";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(
        e.diagnostic().format(),
        "scenario:4:1: unexpected end of input while reading sensor name");
  }
}

TEST(ScenarioIo, HostileCountIsCappedNotAllocated) {
  // A corrupt header claiming 10^12 sensors must produce a diagnostic, not
  // a giant allocation or a near-endless token loop.
  std::stringstream s("hiperd-scenario v1\nsensors 999999999999\n");
  try {
    (void)loadScenario(s);
    FAIL() << "expected a throw";
  } catch (const util::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("above the policy cap"), std::string::npos) << what;
  }
}

TEST(ScenarioIo, PermissivePolicyStillEnforcesStructure) {
  // Value checks can be relaxed for forensic loads, but a structurally
  // broken file (here: truncated) is rejected under any policy.
  std::stringstream s("hiperd-scenario v1\nsensors 1\nn0 nan\n");
  EXPECT_THROW((void)loadScenario(s, "x", core::InputPolicy::permissive()),
               InvalidArgumentError);
}

TEST(ScenarioIo, RejectsTamperedLimitCount) {
  const auto generated = generateScenario(ScenarioOptions{}, 6);
  std::stringstream stream;
  saveScenario(generated.scenario, stream);
  std::string text = stream.str();
  // Corrupt the latency-limit count: the loader must notice it disagrees
  // with the re-enumerated path count.
  const auto pos = text.find("latency_limits ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("latency_limits 19").size(),
               "latency_limits 18");
  std::stringstream bad(text);
  EXPECT_THROW((void)loadScenario(bad), InvalidArgumentError);
}

}  // namespace
}  // namespace robust::hiperd

// google-benchmark microbenchmarks of the library's kernels: the Eq. 6
// closed form, full-system analyses, the iterative solvers, and the
// instance generators. These stand in for the authors' testbed timings
// (absolute numbers are machine-specific; relative costs are the signal).
//
// `--obs_report=PATH` (handled by the main() below, before google-benchmark
// sees the argument list) additionally writes the results as a
// robust.run_report JSON document — the same schema the ablation harnesses
// emit — so CI can diff timings and obs counters across commits instead of
// scraping console tables.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "robust/obs/metrics.hpp"
#include "robust/obs/report.hpp"

#include "robust/core/compiled.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/experiment.hpp"
#include "robust/numeric/optimize.hpp"
#include "robust/numeric/simd.hpp"
#include "robust/scheduling/experiment.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/incremental.hpp"

namespace {

using namespace robust;

sched::EtcMatrix benchEtc() {
  sched::EtcOptions options;
  Pcg32 rng(1);
  return sched::generateEtc(options, rng);
}

sched::EtcMatrix benchEtcSized(std::size_t apps, std::size_t machines) {
  sched::EtcOptions options;
  options.apps = apps;
  options.machines = machines;
  Pcg32 rng(1);
  return sched::generateEtc(options, rng);
}

void BM_Eq6Analysis(benchmark::State& state) {
  const auto etc = benchEtc();
  Pcg32 rng(2);
  const auto mapping = sched::randomMapping(etc.apps(), etc.machines(), rng);
  const sched::IndependentTaskSystem system(etc, mapping, 1.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.analyze());
  }
}
BENCHMARK(BM_Eq6Analysis);

void BM_GenericAffineAnalysis(benchmark::State& state) {
  const auto etc = benchEtc();
  Pcg32 rng(2);
  const auto mapping = sched::randomMapping(etc.apps(), etc.machines(), rng);
  const sched::IndependentTaskSystem system(etc, mapping, 1.2);
  const auto problem = system.compile();
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate());
  }
}
BENCHMARK(BM_GenericAffineAnalysis);

void BM_KktNewtonQuadratic(benchmark::State& state) {
  num::NearestPointProblem problem;
  problem.g = [](std::span<const double> x) {
    double s = 0.0;
    for (double xi : x) {
      s += xi * xi;
    }
    return s;
  };
  problem.gradient = [](std::span<const double> x) {
    return num::scale(x, 2.0);
  };
  problem.level = 1e6;
  problem.origin = num::Vec(static_cast<std::size_t>(state.range(0)), 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(num::kktNewton(problem));
  }
}
BENCHMARK(BM_KktNewtonQuadratic)->Arg(3)->Arg(10)->Arg(30);

void BM_EtcGeneration(benchmark::State& state) {
  sched::EtcOptions options;
  options.apps = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Pcg32 rng(3);
    benchmark::DoNotOptimize(sched::generateEtc(options, rng));
  }
}
BENCHMARK(BM_EtcGeneration)->Arg(20)->Arg(200);

void BM_MinMinHeuristic(benchmark::State& state) {
  const auto etc = benchEtc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::minMinMapping(etc));
  }
}
BENCHMARK(BM_MinMinHeuristic);

// --- mapping-evaluation engine: from-scratch rebuild vs incremental move ---
//
// BM_FullReanalyze is what every neighborhood probe cost before the
// incremental engine: construct an IndependentTaskSystem and analyze().
// BM_IncrementalMove is the same probe through IncrementalEvaluator.
void BM_FullReanalyze(benchmark::State& state) {
  const auto etc = benchEtcSized(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(1)));
  Pcg32 rng(2);
  auto mapping = sched::randomMapping(etc.apps(), etc.machines(), rng);
  std::size_t app = 0;
  for (auto _ : state) {
    const std::size_t machine =
        (mapping.machineOf(app) + 1) % etc.machines();
    mapping.assign(app, machine);
    benchmark::DoNotOptimize(
        sched::IndependentTaskSystem(etc, mapping, 1.2).analyze());
    app = (app + 1) % etc.apps();
  }
}
BENCHMARK(BM_FullReanalyze)->Args({20, 5})->Args({200, 16})->Args({1000, 64});

void BM_IncrementalMove(benchmark::State& state) {
  const auto etc = benchEtcSized(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(1)));
  Pcg32 rng(2);
  const auto mapping = sched::randomMapping(etc.apps(), etc.machines(), rng);
  sched::IncrementalEvaluator evaluator(etc, mapping, 1.2);
  std::size_t app = 0;
  for (auto _ : state) {
    const std::size_t machine =
        (evaluator.mapping().machineOf(app) + 1) % etc.machines();
    benchmark::DoNotOptimize(evaluator.tryMove(app, machine));
    evaluator.commit();
    app = (app + 1) % etc.apps();
  }
}
BENCHMARK(BM_IncrementalMove)
    ->Args({20, 5})
    ->Args({200, 16})
    ->Args({1000, 64});

// One full best-improvement localSearch round (apps x machines probes) via
// the generic from-scratch objective vs the incremental engine. The >= 10x
// target of the incremental engine is measured here at the default bench
// instance size ({20, 5}).
void BM_LocalSearchRoundGeneric(benchmark::State& state) {
  const auto etc = benchEtcSized(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(1)));
  const auto start = sched::roundRobinMapping(etc);
  const auto objective =
      sched::EtcObjective::negatedRobustness(1.2).generic(etc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::localSearch(etc.apps(), etc.machines(), start, objective, 1));
  }
}
BENCHMARK(BM_LocalSearchRoundGeneric)
    ->Args({20, 5})
    ->Args({200, 16})
    ->Args({1000, 64});

void BM_LocalSearchRoundIncremental(benchmark::State& state) {
  const auto etc = benchEtcSized(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(1)));
  const auto start = sched::roundRobinMapping(etc);
  const auto objective = sched::EtcObjective::negatedRobustness(1.2);
  sched::LocalSearchOptions options;
  options.maxRounds = 1;
  options.threads = static_cast<std::size_t>(state.range(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::localSearch(etc, start, objective, options));
  }
}
BENCHMARK(BM_LocalSearchRoundIncremental)
    ->Args({20, 5, 1})
    ->Args({200, 16, 1})
    ->Args({200, 16, 0})  // threads = 0: ROBUST_THREADS / hardware width
    ->Args({1000, 64, 1});

void BM_HiperdScenarioGeneration(benchmark::State& state) {
  const hiperd::ScenarioOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hiperd::generateScenario(options, 2003));
  }
}
BENCHMARK(BM_HiperdScenarioGeneration);

void BM_HiperdAnalysis(benchmark::State& state) {
  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, 2003);
  Pcg32 rng(4);
  const auto mapping = sched::randomMapping(
      generated.scenario.graph.applicationCount(),
      generated.scenario.machines, rng);
  const hiperd::HiperdSystem system(generated.scenario, mapping);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.analyze());
  }
}
BENCHMARK(BM_HiperdAnalysis);

// --- compile-once analysis engine: legacy per-call derivation vs the
// compiled path. "Legacy" is what per-mapping re-analysis cost before the
// compiled engine: derive and compile the problem afresh, then evaluate.
// "CompiledReanalyze" amortizes every mapping-independent step and reuses a
// caller-owned workspace. The >= 5x HiPer-D target of the compiled
// engine is measured by BM_LegacyAnalyzeHiperd / BM_CompiledReanalyzeHiperd.
void BM_LegacyAnalyzeEtc(benchmark::State& state) {
  const auto etc = benchEtc();
  Pcg32 rng(2);
  const auto mapping = sched::randomMapping(etc.apps(), etc.machines(), rng);
  const sched::IndependentTaskSystem system(etc, mapping, 1.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.compile().evaluate());
  }
}
BENCHMARK(BM_LegacyAnalyzeEtc);

void BM_CompiledReanalyzeEtc(benchmark::State& state) {
  const auto etc = benchEtc();
  Pcg32 rng(2);
  const auto mapping = sched::randomMapping(etc.apps(), etc.machines(), rng);
  const sched::IndependentTaskSystem system(etc, mapping, 1.2);
  const auto compiled = system.compile();
  core::EvalWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiled.evaluate(core::AnalysisInstance{}, workspace));
  }
}
BENCHMARK(BM_CompiledReanalyzeEtc);

std::vector<sched::Mapping> benchHiperdMappings(
    const hiperd::HiperdScenario& scenario, std::size_t count) {
  Pcg32 rng(4);
  std::vector<sched::Mapping> mappings;
  mappings.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    mappings.push_back(sched::randomMapping(
        scenario.graph.applicationCount(), scenario.machines, rng));
  }
  return mappings;
}

void BM_LegacyAnalyzeHiperd(benchmark::State& state) {
  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, 2003);
  const auto mappings = benchHiperdMappings(generated.scenario, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hiperd::HiperdSystem(generated.scenario, mappings[i]).analyze());
    i = (i + 1) % mappings.size();
  }
}
BENCHMARK(BM_LegacyAnalyzeHiperd);

void BM_CompiledReanalyzeHiperd(benchmark::State& state) {
  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, 2003);
  const auto mappings = benchHiperdMappings(generated.scenario, 64);
  const hiperd::CompiledScenario compiled = generated.scenario.compile();
  hiperd::ScenarioWorkspace workspace;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.analyze(mappings[i], workspace));
    i = (i + 1) % mappings.size();
  }
}
BENCHMARK(BM_CompiledReanalyzeHiperd);

void BM_HiperdSlack(benchmark::State& state) {
  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, 2003);
  Pcg32 rng(4);
  const auto mapping = sched::randomMapping(
      generated.scenario.graph.applicationCount(),
      generated.scenario.machines, rng);
  const hiperd::HiperdSystem system(generated.scenario, mapping);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.slack());
  }
}
BENCHMARK(BM_HiperdSlack);

// --- radius micro-kernels and the metric-only lane (PR 5) ---
//
// BM_RadiusKernelScalar / BM_RadiusKernelSimd time the multi-row dot kernel
// (the inner loop of the metric lane's dot pass) with the dispatch target
// pinned to the portable scalar fallback vs AVX2. Both produce bit-identical
// dots (the scalar lanes replay the vector schedule); the ratio is the pure
// vectorization win. On hosts without AVX2 the Simd benchmark silently runs
// the scalar kernel (setTarget falls back), so the two report equal times.
struct KernelBenchData {
  std::vector<double> weights;  ///< row-major rows x dims
  num::Vec x;
  std::vector<double> dots;
};

KernelBenchData kernelBenchData(std::size_t rows, std::size_t dims) {
  Pcg32 rng(5);
  KernelBenchData data;
  data.weights.resize(rows * dims);
  for (double& w : data.weights) {
    w = rng.uniform(0.1, 2.0);
  }
  data.x.resize(dims);
  for (double& v : data.x) {
    v = rng.uniform(0.5, 1.5);
  }
  data.dots.resize(rows);
  return data;
}

void radiusKernelBody(benchmark::State& state, num::simd::Target target) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto dims = static_cast<std::size_t>(state.range(1));
  auto data = kernelBenchData(rows, dims);
  num::simd::setTarget(target);
  for (auto _ : state) {
    num::simd::dotRowsBlocked(data.weights.data(), rows, data.x,
                              data.dots.data());
    benchmark::DoNotOptimize(data.dots.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows * dims));
  num::simd::setTarget(num::simd::avx2Available() ? num::simd::Target::Avx2
                                                  : num::simd::Target::Scalar);
}

void BM_RadiusKernelScalar(benchmark::State& state) {
  radiusKernelBody(state, num::simd::Target::Scalar);
}
BENCHMARK(BM_RadiusKernelScalar)
    ->Args({16, 8})
    ->Args({256, 64})
    ->Args({4096, 512});

void BM_RadiusKernelSimd(benchmark::State& state) {
  radiusKernelBody(state, num::simd::Target::Avx2);
}
BENCHMARK(BM_RadiusKernelSimd)
    ->Args({16, 8})
    ->Args({256, 64})
    ->Args({4096, 512});

// BM_FullEvaluate / BM_MetricOnlyPruned compare the full evaluate() (report
// strings, boundary points, per-row radii) against the metric-only lane on
// the same synthetic rows x dims problem at a non-default origin (so the
// metric lane pays its kernel dot pass instead of the compiled-default
// cache). The tolerance levels are spread so most rows lose to the incumbent
// early and the pruning branch does real work.
core::CompiledProblem metricBenchProblem(std::size_t rows, std::size_t dims) {
  Pcg32 rng(6);
  core::ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin.resize(dims);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(0.5, 1.5);
  }
  spec.features.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    num::Vec weights(dims);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    double atOrigin = 0.0;
    for (std::size_t k = 0; k < dims; ++k) {
      atOrigin += weights[k] * spec.parameter.origin[k];
    }
    spec.features.push_back(core::PerformanceFeature{
        "F_" + std::to_string(r),
        core::ImpactFunction::affine(std::move(weights)),
        core::ToleranceBounds::atMost(atOrigin * rng.uniform(1.05, 4.0))});
  }
  return core::CompiledProblem::compile(std::move(spec));
}

num::Vec perturbedOrigin(const core::CompiledProblem& problem) {
  Pcg32 rng(7);
  num::Vec origin(problem.parameter().origin);
  for (double& v : origin) {
    v *= rng.uniform(0.99, 1.01);
  }
  return origin;
}

void BM_FullEvaluate(benchmark::State& state) {
  const auto problem =
      metricBenchProblem(static_cast<std::size_t>(state.range(0)),
                         static_cast<std::size_t>(state.range(1)));
  const num::Vec origin = perturbedOrigin(problem);
  core::AnalysisInstance instance;
  instance.origin = origin;
  core::EvalWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.evaluate(instance, workspace).metric);
  }
}
BENCHMARK(BM_FullEvaluate)->Args({16, 8})->Args({256, 64})->Args({4096, 512});

void BM_MetricOnlyPruned(benchmark::State& state) {
  const auto problem =
      metricBenchProblem(static_cast<std::size_t>(state.range(0)),
                         static_cast<std::size_t>(state.range(1)));
  const num::Vec origin = perturbedOrigin(problem);
  core::AnalysisInstance instance;
  instance.origin = origin;
  core::MetricWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        problem.evaluateMetric(instance, workspace).metric);
  }
}
BENCHMARK(BM_MetricOnlyPruned)
    ->Args({16, 8})
    ->Args({256, 64})
    ->Args({4096, 512});

// The HiPer-D metric lane against the full compiled analyze() (same mapping
// rotation as BM_CompiledReanalyzeHiperd): the per-mapping cost a search
// objective pays.
void BM_HiperdMetricOnly(benchmark::State& state) {
  const auto generated =
      hiperd::generateScenario(hiperd::ScenarioOptions{}, 2003);
  const auto mappings = benchHiperdMappings(generated.scenario, 64);
  const hiperd::CompiledScenario compiled = generated.scenario.compile();
  hiperd::ScenarioWorkspace workspace;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiled.analyzeMetric(mappings[i], workspace).metric);
    i = (i + 1) % mappings.size();
  }
}
BENCHMARK(BM_HiperdMetricOnly);

// Console reporter that also records every per-iteration run (aggregates
// like mean/stddev are skipped) so main() can emit them as a run report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      results_.push_back(obs::BenchResult{
          run.benchmark_name(), run.GetAdjustedRealTime(),
          benchmark::GetTimeUnitString(run.time_unit)});
    }
    ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const std::vector<obs::BenchResult>& results() const {
    return results_;
  }

 private:
  std::vector<obs::BenchResult> results_;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --obs_report=PATH before google-benchmark validates the flags.
  std::string reportPath;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--obs_report=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      reportPath = argv[i] + std::strlen(kFlag);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!reportPath.empty()) {
    obs::RunReport report;
    report.tool = "perf_kernels";
    report.benchmarks = reporter.results();
    // Metrics ride along only when ROBUST_OBS is on; the report is still
    // valid (empty metrics object) when it is off.
    obs::writeRunReport(reportPath, report);
  }
  return 0;
}

// plan: search for a robust mapping. One op plans one freshly generated
// CVB ETC instance (128 apps x 16 machines, tau = 1.2): MinMin, then
// simulatedAnnealing, localSearch with a 2-thread scan and
// geneticAlgorithm, all on the incremental EtcObjective path, plus one
// annealMapping on a HiPer-D robustness MappingObjective (the generic
// path). It isolates `scheduling`: no `net`, few kernels.
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "robust/hiperd/compiled_scenario.hpp"
#include "robust/hiperd/generator.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using robust::sched::EtcMatrix;
using robust::sched::Mapping;

constexpr double kTau = 1.2;
constexpr std::size_t kApps = 128;
constexpr std::size_t kMachines = 16;
constexpr int kAnnealIterations = 20000;
/// Each localSearch round hands its scan to the 2-thread pool and waits;
/// those wake-ups are what varies most with contention on the host, so the
/// rounds are few.
constexpr int kLocalSearchRounds = 8;
constexpr int kPopulation = 40;
constexpr int kGenerations = 60;
constexpr int kGenericIterations = 3000;
/// The HiPer-D scenario is the paper's Fig. 4 default; the seed drives each
/// op's start mapping and search substreams.
constexpr std::uint64_t kScenarioSeed = 2003;
constexpr std::uint64_t kEtcFamily = 0x706c616e;  // "plan"
constexpr std::uint64_t kSearchFamily = kEtcFamily + 1;

robust::sched::LocalSearchOptions localSearchOptions(std::size_t threads) {
  robust::sched::LocalSearchOptions options;
  options.maxRounds = kLocalSearchRounds;
  options.threads = threads;
  return options;
}

class Plan final : public SequentialWorkload {
 public:
  explicit Plan(const RunConfig& config) : config_(config) {}

  void setup(SpanLog&) override {
    generated_ = std::make_unique<robust::hiperd::GeneratedScenario>(
        robust::hiperd::generateScenario(robust::hiperd::ScenarioOptions{},
                                         kScenarioSeed));
    compiled_ = std::make_unique<robust::hiperd::CompiledScenario>(
        generated_->scenario);
    hiperdObjective_ = robust::hiperd::robustnessObjective(*compiled_);
  }

  void prepare(std::uint64_t index) override {
    auto rng = robust::makeStream(config_.seed, kEtcFamily, index);
    robust::sched::EtcOptions options;
    options.apps = kApps;
    options.machines = kMachines;
    etc_ = std::make_unique<EtcMatrix>(robust::sched::generateEtc(options, rng));
    hiperdStart_ = std::make_unique<Mapping>(robust::sched::randomMapping(
        generated_->scenario.graph.applicationCount(),
        generated_->scenario.machines, rng));
    searchSeed_ = robust::familySeed(config_.seed ^ kSearchFamily, index);
  }

  void op(std::uint64_t, SpanLog& spans) override {
    using namespace robust::sched;
    {
      Span span(spans, "sched.minmin");
      start_ = std::make_unique<Mapping>(minMinMapping(*etc_));
    }
    {
      Span span(spans, "sched.anneal");
      AnnealingOptions options;
      options.iterations = kAnnealIterations;
      options.seed = searchSeed_;
      annealed_ = std::make_unique<Mapping>(
          simulatedAnnealing(*etc_, *start_, objective_, options));
    }
    {
      Span span(spans, "sched.localsearch");
      searched_ = std::make_unique<Mapping>(
          localSearch(*etc_, *start_, objective_, localSearchOptions(kThreads)));
    }
    {
      Span span(spans, "sched.genetic");
      GeneticOptions options;
      options.populationSize = kPopulation;
      options.generations = kGenerations;
      options.seed = searchSeed_;
      evolved_ = std::make_unique<Mapping>(
          geneticAlgorithm(*etc_, *start_, objective_, options));
    }
    {
      Span span(spans, "sched.generic_anneal");
      AnnealingOptions options;
      options.iterations = kGenericIterations;
      options.seed = searchSeed_;
      hiperdFinal_ = std::make_unique<Mapping>(annealMapping(
          hiperdStart_->apps(), hiperdStart_->machines(), *hiperdStart_,
          hiperdObjective_, options));
    }
  }

  bool check(std::uint64_t, std::string& why) override {
    ++checked_;
    const robust::sched::MappingObjective score = objective_.generic(*etc_);
    const double startScore = score(*start_);
    rho_ = 0.0;
    for (const Mapping* final : {annealed_.get(), searched_.get(),
                                 evolved_.get()}) {
      if (score(*final) > startScore) {
        why = "a search ended worse than its MinMin start";
        return false;
      }
      rho_ += robust::sched::IndependentTaskSystem(*etc_, *final, kTau)
                  .analyze()
                  .robustness;
    }
    rho_ /= 3.0;
    if (hiperdObjective_(*hiperdFinal_) > hiperdObjective_(*hiperdStart_)) {
      why = "annealMapping ended worse than its start";
      return false;
    }
    if (checked_ == 2) {
      // This object's first timed op (its first op is its set-up op) is
      // re-run at threads = 1 after its phase.
      sampledEtc_ = std::make_unique<EtcMatrix>(*etc_);
      sampledStart_ = std::make_unique<Mapping>(*start_);
      sampledResult_ = searched_->assignment();
    }
    return true;
  }

  [[nodiscard]] double rho() const override { return rho_; }

  void finalCheck(Outcome& out) override {
    if (!sampledEtc_) {
      return;
    }
    const Mapping serial = robust::sched::localSearch(
        *sampledEtc_, *sampledStart_, objective_, localSearchOptions(1));
    ++out.attempted;
    if (serial.assignment() != sampledResult_) {
      out.fail("localSearch at threads = 1 returned another mapping");
    }
  }

  /// localSearch starts one scan pool per call.
  [[nodiscard]] double poolsPerOp() const override { return 1.0; }

 private:
  RunConfig config_;
  robust::sched::EtcObjective objective_ =
      robust::sched::EtcObjective::negatedRobustness(kTau);
  std::unique_ptr<robust::hiperd::GeneratedScenario> generated_;
  std::unique_ptr<robust::hiperd::CompiledScenario> compiled_;
  robust::sched::MappingObjective hiperdObjective_;

  std::unique_ptr<EtcMatrix> etc_;
  std::unique_ptr<Mapping> hiperdStart_;
  std::uint64_t searchSeed_ = 0;

  std::unique_ptr<Mapping> start_;
  std::unique_ptr<Mapping> annealed_;
  std::unique_ptr<Mapping> searched_;
  std::unique_ptr<Mapping> evolved_;
  std::unique_ptr<Mapping> hiperdFinal_;
  double rho_ = 0.0;

  std::uint64_t checked_ = 0;
  std::unique_ptr<EtcMatrix> sampledEtc_;
  std::unique_ptr<Mapping> sampledStart_;
  std::vector<std::size_t> sampledResult_;
};

}  // namespace

Outcome runPlan(const RunConfig& config) {
  SequentialSpec spec;
  spec.tailQuantile = 0.95;
  spec.rhoOps = 256;
  spec.make = [](const RunConfig& c) { return std::make_unique<Plan>(c); };
  spec.info = {{"plan.shape", "128x16"},
               {"plan.tau", "1.2"},
               {"plan.anneal_iterations", std::to_string(kAnnealIterations)},
               {"plan.localsearch_rounds", std::to_string(kLocalSearchRounds)},
               {"plan.genetic", std::to_string(kPopulation) + "x" +
                                    std::to_string(kGenerations)},
               {"plan.generic_anneal_iterations",
                std::to_string(kGenericIterations)}};
  return runSequential(config, spec);
}

}  // namespace perfbench

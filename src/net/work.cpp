#include "daemon.hpp"

#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "robust/obs/trace.hpp"

namespace robust::net {

using util::RejectCategory;

Completion runWork(const Work& work, ProblemCache& cache,
                   const WireLimits& limits) {
  const std::int64_t startNanos = obs::detail::nowNanos();
  Completion done;
  const auto reject = [&done, &work](RejectCategory category,
                                     std::string message) {
    done.rejected = true;
    done.rejectCategory = category;
    std::vector<std::uint8_t> payload;
    encodeReject(RejectInfo{category, false, std::move(message)}, payload);
    done.frame = buildFrame(FrameType::Reject, work.requestId, payload);
  };
  try {
    if (work.kind == Work::Kind::Register) {
      const std::uint64_t key = fnv1a(work.specBytes);
      ProblemCache::Outcome outcome =
          cache.lookupOrCompile(key, work.specBytes, limits);
      std::vector<std::uint8_t> payload;
      encodeRegisterOk(key, outcome.fromCache, payload);
      done.frame = buildFrame(FrameType::RegisterOk, work.requestId,
                              payload);
      done.install = std::move(outcome.problem);
      done.installKey = key;
      done.registers = 1;
      done.cacheHit = outcome.fromCache ? 1 : 0;
      done.cacheMiss = outcome.fromCache ? 0 : 1;
      done.cacheEvictions = outcome.evictions;
    } else {
      const core::CompiledProblem& problem = *work.problem;
      const std::size_t dim = problem.dimension();
      const util::Diagnostics diag("robustd:analyze");
      for (std::size_t i = 0; i < work.origins.size(); ++i) {
        if (!std::isfinite(work.origins[i])) {
          // 1-based instance/component provenance, like the .rbi loader.
          diag.fail(RejectCategory::Domain, i / dim + 1, i % dim + 1,
                    "origin component " +
                        util::formatValue(work.origins[i]) +
                        " is not finite");
        }
      }
      std::vector<core::AnalysisInstance> instances(work.count);
      for (std::uint32_t i = 0; i < work.count; ++i) {
        instances[i].origin =
            std::span<const double>(work.origins.data() + i * dim, dim);
      }
      // threads = 1: requests are the unit of parallelism here (the pool
      // fans out across tenants). analyzeBatchMetric is bit-identical for
      // every thread count, so this changes nothing the client can see.
      const std::vector<core::MetricResult> metrics =
          problem.analyzeBatchMetric(instances, /*threads=*/1);
      std::vector<WireResult> results(work.count);
      const bool constrained = !problem.constraints().empty();
      for (std::uint32_t i = 0; i < work.count; ++i) {
        results[i].rho = metrics[i].metric;
        results[i].bindingFeature =
            static_cast<std::uint32_t>(metrics[i].bindingFeature);
        results[i].floored = metrics[i].floored;
        results[i].infeasibleOrigin =
            constrained && !problem.originFeasible(instances[i].origin);
      }
      std::vector<std::uint8_t> payload;
      encodeResult(results, payload);
      done.frame = buildFrame(FrameType::Result, work.requestId, payload);
      done.batches = 1;
      done.instances = work.count;
    }
  } catch (const util::ParseError& e) {
    reject(e.diagnostic().category, e.diagnostic().format());
  } catch (const std::exception& e) {
    // Compile-time contract violations (InvalidArgumentError) and
    // anything else the engine throws: the tenant hears a categorized
    // reject; the daemon and every other tenant keep running.
    reject(RejectCategory::Domain, e.what());
  }
  const std::int64_t endNanos = obs::detail::nowNanos();
  done.queueNanos = startNanos - work.enqueueNanos;
  done.execNanos = endNanos - startNanos;
  obs::recordFlight(work.kind == Work::Kind::Register
                        ? "robustd.work.register"
                        : "robustd.work.analyze",
                    work.requestId, startNanos, endNanos - startNanos);
  return done;
}

}  // namespace robust::net

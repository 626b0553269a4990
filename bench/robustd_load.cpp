// robustd_load: multi-tenant load generator and correctness oracle for the
// robustd daemon.
//
// Connects N concurrent tenants to a running daemon (start one with
// `robustd --unix /tmp/robustd.sock`), each registering a deterministic
// spec family seeded from --seed and streaming --batches perturbation
// batches of --instances instances. Every reply is compared BIT-FOR-BIT
// against the offline lane (CompiledProblem::analyzeBatchMetric +
// originFeasible on a locally compiled copy of the same spec): any
// mismatch is a protocol or determinism bug and exits nonzero.
//
// The tenant mix exercises the fairness and containment story:
//   * fair tenants declare their true per-batch demand;
//   * --greedy adds a tenant that misdeclares the maximum demand weight
//     while submitting the same work — the daemon must stay correct for
//     everyone (the fairness charge is by ACTUAL instances, so the lie
//     only dilutes the liar's own priority);
//   * --chaos adds saboteur connections that send garbage magic (expect a
//     fatal categorized reject), analyze against a bogus key (expect a
//     non-fatal Structure reject), and disconnect mid-frame — none of
//     which may disturb any fair tenant's bits.
//
//   robustd_load --unix /tmp/robustd.sock --tenants 4 --batches 8
//                --instances 64 --chaos --greedy
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "robust/core/compiled.hpp"
#include "robust/net/client.hpp"
#include "robust/net/wire.hpp"
#include "robust/util/args.hpp"
#include "robust/util/rng.hpp"

namespace {

using robust::core::AnalysisInstance;
using robust::core::CompiledProblem;
using robust::core::ImpactFunction;
using robust::core::LinearConstraint;
using robust::core::MetricResult;
using robust::core::PerformanceFeature;
using robust::core::ProblemSpec;
using robust::core::ToleranceBounds;

struct Config {
  std::string unixPath;
  std::uint16_t port = 0;
  std::size_t tenants = 4;
  std::size_t batches = 8;
  std::size_t instances = 64;
  std::size_t dim = 24;
  std::size_t features = 8;
  std::uint64_t seed = 42;
  bool chaos = false;
  bool greedy = false;
};

/// Deterministic spec family: tenant t gets spec (t % kSpecFamilies), so
/// several tenants share byte-identical specs and exercise the shared
/// cache; every odd family carries a hard constraint so the
/// infeasible-origin flag is exercised too.
constexpr std::size_t kSpecFamilies = 3;

ProblemSpec makeSpec(const Config& cfg, std::size_t family) {
  auto rng = robust::makeStream(cfg.seed, 1000 + family);
  ProblemSpec spec;
  spec.parameter.name = "pi (load family " + std::to_string(family) + ")";
  spec.parameter.origin.resize(cfg.dim);
  for (double& v : spec.parameter.origin) {
    v = rng.uniform(1.0, 4.0);
  }
  for (std::size_t f = 0; f < cfg.features; ++f) {
    robust::num::Vec weights(cfg.dim);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    const double constant = rng.uniform(-1.0, 1.0);
    double phiOrig = constant;
    for (std::size_t j = 0; j < cfg.dim; ++j) {
      phiOrig += weights[j] * spec.parameter.origin[j];
    }
    const double slack = rng.uniform(2.0, 6.0);
    spec.features.push_back(PerformanceFeature{
        "phi_" + std::to_string(f),
        ImpactFunction::affine(std::move(weights), constant),
        ToleranceBounds::between(phiOrig - slack, phiOrig + slack)});
  }
  if (family % 2 == 1) {
    // A feasible-at-origin budget constraint; perturbed origins near the
    // operating point straddle it, so both flag values appear.
    LinearConstraint budget;
    budget.name = "budget";
    budget.coeffs.assign(cfg.dim, 1.0);
    double load = 0.0;
    for (double v : spec.parameter.origin) {
      load += v;
    }
    budget.bound = load + 0.05 * load;
    spec.constraints.push_back(std::move(budget));
  }
  return spec;
}

std::vector<double> makeBatch(const Config& cfg, std::uint64_t tenant,
                              std::size_t batch, const ProblemSpec& spec) {
  auto rng = robust::makeStream(cfg.seed, tenant * 10000 + batch);
  std::vector<double> origins(cfg.instances * cfg.dim);
  for (std::size_t i = 0; i < cfg.instances; ++i) {
    for (std::size_t j = 0; j < cfg.dim; ++j) {
      origins[i * cfg.dim + j] =
          spec.parameter.origin[j] + rng.uniform(-0.5, 0.5);
    }
  }
  return origins;
}

/// The offline oracle for one batch: exactly the calls the daemon makes.
std::vector<robust::net::WireResult> offlineAnswers(
    const CompiledProblem& problem, const std::vector<double>& origins,
    std::size_t instances, std::size_t dim) {
  std::vector<AnalysisInstance> batch(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    batch[i].origin = std::span<const double>(origins.data() + i * dim, dim);
  }
  const std::vector<MetricResult> metrics =
      problem.analyzeBatchMetric(batch, /*threads=*/1);
  std::vector<robust::net::WireResult> expect(instances);
  const bool constrained = !problem.constraints().empty();
  for (std::size_t i = 0; i < instances; ++i) {
    expect[i].rho = metrics[i].metric;
    expect[i].bindingFeature =
        static_cast<std::uint32_t>(metrics[i].bindingFeature);
    expect[i].floored = metrics[i].floored;
    expect[i].infeasibleOrigin =
        constrained && !problem.originFeasible(batch[i].origin);
  }
  return expect;
}

void connect(const Config& cfg, robust::net::Client& client) {
  if (!cfg.unixPath.empty()) {
    client.connectUnix(cfg.unixPath);
  } else {
    client.connectTcp(cfg.port);
  }
}

/// One tenant's full session. Returns the number of bit-exact mismatches.
std::uint64_t runTenant(const Config& cfg, std::size_t tenant, bool greedy,
                        std::atomic<std::uint64_t>& instancesDone) {
  const std::size_t family = tenant % kSpecFamilies;
  const ProblemSpec spec = makeSpec(cfg, family);
  const CompiledProblem problem =
      CompiledProblem::compile(makeSpec(cfg, family));

  robust::net::Client client;
  connect(cfg, client);
  const std::uint32_t honest =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, cfg.instances));
  client.hello(greedy ? "greedy" : "tenant" + std::to_string(tenant),
               greedy ? 65536 : honest);
  const robust::net::RegisterReply reg = client.registerProblem(spec);

  std::uint64_t mismatches = 0;
  for (std::size_t b = 0; b < cfg.batches; ++b) {
    const std::vector<double> origins = makeBatch(cfg, tenant, b, spec);
    const std::vector<robust::net::WireResult> got = client.analyze(
        reg.key, static_cast<std::uint32_t>(cfg.instances), origins);
    const std::vector<robust::net::WireResult> expect =
        offlineAnswers(problem, origins, cfg.instances, cfg.dim);
    for (std::size_t i = 0; i < cfg.instances; ++i) {
      const bool same =
          std::memcmp(&got[i].rho, &expect[i].rho, sizeof(double)) == 0 &&
          got[i].bindingFeature == expect[i].bindingFeature &&
          got[i].floored == expect[i].floored &&
          got[i].infeasibleOrigin == expect[i].infeasibleOrigin;
      if (!same) {
        ++mismatches;
        std::fprintf(stderr,
                     "MISMATCH tenant %zu batch %zu instance %zu: daemon "
                     "rho=%.17g feature=%u vs offline rho=%.17g feature=%u\n",
                     tenant, b, i, got[i].rho, got[i].bindingFeature,
                     expect[i].rho, expect[i].bindingFeature);
      }
    }
    instancesDone += cfg.instances;
  }
  client.bye();
  return mismatches;
}

/// Saboteur 1: garbage magic. The daemon must answer one FATAL categorized
/// reject and close; anything else counts as a failure.
bool chaosBadMagic(const Config& cfg) {
  robust::net::Client client;
  connect(cfg, client);
  const std::uint8_t garbage[32] = {0xde, 0xad, 0xbe, 0xef};
  client.sendRaw(garbage);
  try {
    auto [header, payload] = client.readFrame();
    if (header.type != robust::net::FrameType::Reject) {
      std::fprintf(stderr, "chaos: bad magic got frame 0x%02x, not REJECT\n",
                   static_cast<unsigned>(header.type));
      return false;
    }
    const robust::util::Diagnostics diag("chaos");
    const robust::net::RejectInfo info =
        robust::net::decodeReject(payload, diag);
    if (!info.fatal) {
      std::fprintf(stderr, "chaos: bad-magic reject was not fatal\n");
      return false;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos: bad magic: %s\n", e.what());
    return false;
  }
  client.closeNow();
  return true;
}

/// Saboteur 2: well-formed session, bogus ANALYZE key (expect a non-fatal
/// Structure reject, session still usable), then a mid-frame disconnect.
bool chaosBogusKeyThenVanish(const Config& cfg) {
  robust::net::Client client;
  connect(cfg, client);
  try {
    client.hello("saboteur", 1);
    std::vector<double> one(cfg.dim, 1.0);
    bool rejected = false;
    try {
      (void)client.analyze(0xabcdef, static_cast<std::uint32_t>(1), one);
    } catch (const robust::net::RejectedError& e) {
      rejected = !e.info().fatal &&
                 e.info().category == robust::util::RejectCategory::Structure;
    }
    if (!rejected) {
      std::fprintf(stderr,
                   "chaos: bogus key did not draw a non-fatal Structure "
                   "reject\n");
      return false;
    }
    // Announce a 1 MiB frame, send 16 bytes of it, vanish.
    std::vector<std::uint8_t> partial;
    robust::net::encodeFrameHeader(
        robust::net::FrameHeader{robust::net::kProtocolVersion,
                                 robust::net::FrameType::Analyze, 1u << 20,
                                 777},
        partial);
    partial.resize(partial.size() + 16, 0);
    client.sendRaw(partial);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos: %s\n", e.what());
    return false;
  }
  client.closeNow();
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  const robust::ArgParser args(argc, argv);
  Config cfg;
  cfg.unixPath = args.getString("unix", "");
  cfg.port = static_cast<std::uint16_t>(args.getInt("port", 0));
  cfg.tenants = static_cast<std::size_t>(args.getInt("tenants", 4));
  cfg.batches = static_cast<std::size_t>(args.getInt("batches", 8));
  cfg.instances = static_cast<std::size_t>(args.getInt("instances", 64));
  cfg.dim = static_cast<std::size_t>(args.getInt("dim", 24));
  cfg.features = static_cast<std::size_t>(args.getInt("features", 8));
  cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
  cfg.chaos = args.has("chaos");
  cfg.greedy = args.has("greedy");
  args.rejectUnknownOptions("robustd_load");
  if (cfg.unixPath.empty() && cfg.port == 0) {
    std::fprintf(stderr,
                 "robustd_load: need --unix PATH or --port N of a running "
                 "robustd\n");
    return 2;
  }

  std::atomic<std::uint64_t> instancesDone{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    threads.emplace_back([&, t] {
      try {
        mismatches += runTenant(cfg, t, /*greedy=*/false, instancesDone);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "tenant %zu: %s\n", t, e.what());
        ++failures;
      }
    });
  }
  if (cfg.greedy) {
    threads.emplace_back([&] {
      try {
        mismatches +=
            runTenant(cfg, cfg.tenants, /*greedy=*/true, instancesDone);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "greedy tenant: %s\n", e.what());
        ++failures;
      }
    });
  }
  if (cfg.chaos) {
    threads.emplace_back([&] {
      if (!chaosBadMagic(cfg)) {
        ++failures;
      }
      if (!chaosBogusKeyThenVanish(cfg)) {
        ++failures;
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  std::printf(
      "robustd_load: %llu instances verified bit-identical, %llu "
      "mismatches, %d tenant failures%s%s\n",
      static_cast<unsigned long long>(instancesDone.load()),
      static_cast<unsigned long long>(mismatches.load()), failures.load(),
      cfg.greedy ? ", greedy tenant ran" : "",
      cfg.chaos ? ", chaos injected" : "");
  return (mismatches.load() == 0 && failures.load() == 0) ? 0 : 1;
} catch (...) {
  return robust::harnessFailure("robustd_load");
}

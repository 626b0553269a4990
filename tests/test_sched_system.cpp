// Tests for mappings, their metrics, and the Section 3.1 robustness
// derivation: Eq. 6 closed form, Eq. 7 metric, the critical point C*
// (observations 1-2), and agreement with the generic FePIA analyzer.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "robust/core/validation.hpp"
#include "robust/scheduling/independent_system.hpp"
#include "robust/util/error.hpp"

namespace robust::sched {
namespace {

EtcMatrix quickEtc() {
  // 4 apps x 2 machines with easy numbers.
  EtcMatrix etc(4, 2);
  etc(0, 0) = 4.0;  etc(0, 1) = 8.0;
  etc(1, 0) = 3.0;  etc(1, 1) = 5.0;
  etc(2, 0) = 6.0;  etc(2, 1) = 2.0;
  etc(3, 0) = 5.0;  etc(3, 1) = 4.0;
  return etc;
}

// -------------------------------------------------------------- mapping

TEST(Mapping, BasicAccessors) {
  const Mapping m({0, 1, 0}, 2);
  EXPECT_EQ(m.apps(), 3u);
  EXPECT_EQ(m.machines(), 2u);
  EXPECT_EQ(m.machineOf(1), 1u);
  const auto counts = m.countPerMachine();
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(Mapping, Validation) {
  EXPECT_THROW(Mapping({0, 2}, 2), InvalidArgumentError);  // machine 2 of 2
  EXPECT_THROW(Mapping({}, 2), InvalidArgumentError);
  EXPECT_THROW(Mapping({0}, 0), InvalidArgumentError);
  Mapping m({0}, 2);
  EXPECT_THROW(m.assign(5, 0), InvalidArgumentError);
  EXPECT_THROW(m.assign(0, 9), InvalidArgumentError);
  m.assign(0, 1);
  EXPECT_EQ(m.machineOf(0), 1u);
}

TEST(Mapping, RandomMappingIsValidAndDeterministic) {
  Pcg32 a(5);
  Pcg32 b(5);
  const Mapping m1 = randomMapping(20, 5, a);
  const Mapping m2 = randomMapping(20, 5, b);
  EXPECT_EQ(m1.assignment(), m2.assignment());
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_LT(m1.machineOf(i), 5u);
  }
}

TEST(Metrics, FinishingTimesMakespanAndLbi) {
  const EtcMatrix etc = quickEtc();
  const Mapping m({0, 0, 1, 1}, 2);
  const auto finish = finishingTimes(etc, m);
  EXPECT_DOUBLE_EQ(finish[0], 7.0);
  EXPECT_DOUBLE_EQ(finish[1], 6.0);
  EXPECT_DOUBLE_EQ(makespan(etc, m), 7.0);
  EXPECT_NEAR(loadBalanceIndex(etc, m), 6.0 / 7.0, 1e-12);
}

TEST(Metrics, EmptyMachineZeroesLbi) {
  const EtcMatrix etc = quickEtc();
  const Mapping m({0, 0, 0, 0}, 2);
  EXPECT_DOUBLE_EQ(loadBalanceIndex(etc, m), 0.0);
}

TEST(Metrics, DimensionMismatchThrows) {
  const EtcMatrix etc = quickEtc();
  const Mapping m({0, 0}, 2);  // wrong app count
  EXPECT_THROW((void)finishingTimes(etc, m), InvalidArgumentError);
}

// ------------------------------------------------------------- Eq. 6 / 7

TEST(IndependentSystem, RadiiMatchHandComputation) {
  const EtcMatrix etc = quickEtc();
  const Mapping m({0, 0, 1, 1}, 2);
  const IndependentTaskSystem system(etc, m, 1.2);
  // M_orig = 7, tau M = 8.4.
  // r(F_0) = (8.4 - 7) / sqrt(2), r(F_1) = (8.4 - 6) / sqrt(2).
  const auto analysis = system.analyze();
  EXPECT_NEAR(analysis.radii[0], 1.4 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(analysis.radii[1], 2.4 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(analysis.robustness, 1.4 / std::sqrt(2.0), 1e-12);
  EXPECT_EQ(analysis.bindingMachine, 0u);
  EXPECT_DOUBLE_EQ(analysis.predictedMakespan, 7.0);
}

TEST(IndependentSystem, EmptyMachineHasInfiniteRadius) {
  const EtcMatrix etc = quickEtc();
  const Mapping m({0, 0, 0, 0}, 2);
  const IndependentTaskSystem system(etc, m, 1.5);
  const auto analysis = system.analyze();
  EXPECT_TRUE(std::isinf(analysis.radii[1]));
  EXPECT_EQ(analysis.bindingMachine, 0u);
  EXPECT_TRUE(std::isfinite(analysis.robustness));
}

TEST(IndependentSystem, TauOneMeansZeroRobustnessForBindingMachine) {
  const EtcMatrix etc = quickEtc();
  const Mapping m({0, 0, 1, 1}, 2);
  const IndependentTaskSystem system(etc, m, 1.0);
  EXPECT_NEAR(system.analyze().robustness, 0.0, 1e-12);
}

TEST(IndependentSystem, TauBelowOneRejected) {
  const EtcMatrix etc = quickEtc();
  EXPECT_THROW(IndependentTaskSystem(etc, Mapping({0, 0, 1, 1}, 2), 0.9),
               InvalidArgumentError);
}

TEST(IndependentSystem, RobustnessScalesAffinelyInTau) {
  // From Eq. 6: r_j(tau) = (tau M - F_j)/sqrt(n_j) is affine in tau, and on
  // the binding machine r = ((tau - 1) M + (M - F_j*)) / sqrt(n_j*).
  const EtcMatrix etc = quickEtc();
  const Mapping m({0, 1, 0, 1}, 2);
  const double r12 = IndependentTaskSystem(etc, m, 1.2).analyze().robustness;
  const double r14 = IndependentTaskSystem(etc, m, 1.4).analyze().robustness;
  const double r16 = IndependentTaskSystem(etc, m, 1.6).analyze().robustness;
  EXPECT_NEAR(r14 - r12, r16 - r14, 1e-9);  // equal increments
  EXPECT_GT(r14, r12);
}

TEST(IndependentSystem, EstimatedTimesPickMappedMachines) {
  const EtcMatrix etc = quickEtc();
  const Mapping m({1, 0, 1, 0}, 2);
  const IndependentTaskSystem system(etc, m, 1.2);
  const auto c = system.estimatedTimes();
  EXPECT_DOUBLE_EQ(c[0], 8.0);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
  EXPECT_DOUBLE_EQ(c[2], 2.0);
  EXPECT_DOUBLE_EQ(c[3], 5.0);
}

// ------------------------------------------------------- critical point

TEST(IndependentSystem, CriticalPointObservations) {
  const EtcMatrix etc = quickEtc();
  const Mapping m({0, 0, 1, 1}, 2);
  const IndependentTaskSystem system(etc, m, 1.2);
  const auto analysis = system.analyze();
  const auto cOrig = system.estimatedTimes();
  const auto cStar = system.criticalPoint();

  // Observation 1: only applications on the binding machine change.
  for (std::size_t i = 0; i < 4; ++i) {
    if (m.machineOf(i) == analysis.bindingMachine) {
      EXPECT_GT(cStar[i], cOrig[i]);
    } else {
      EXPECT_DOUBLE_EQ(cStar[i], cOrig[i]);
    }
  }
  // Observation 2: those applications share the same error.
  double sharedError = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < 4; ++i) {
    if (m.machineOf(i) == analysis.bindingMachine) {
      const double err = cStar[i] - cOrig[i];
      if (std::isnan(sharedError)) {
        sharedError = err;
      } else {
        EXPECT_NEAR(err, sharedError, 1e-12);
      }
    }
  }
  // The distance to C* is exactly the metric, and F_j* hits tau * M there.
  EXPECT_NEAR(num::distance2(cStar, cOrig), analysis.robustness, 1e-12);
  double fBinding = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    if (m.machineOf(i) == analysis.bindingMachine) {
      fBinding += cStar[i];
    }
  }
  EXPECT_NEAR(fBinding, 1.2 * analysis.predictedMakespan, 1e-12);
}

// ------------------------------------------- agreement with the core

class Eq6VsGenericAnalyzer : public ::testing::TestWithParam<int> {};

TEST_P(Eq6VsGenericAnalyzer, ClosedFormMatchesFePiaAnalyzer) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()));
  EtcOptions options;
  options.apps = 6 + rng.nextBounded(20);
  options.machines = 2 + rng.nextBounded(6);
  const EtcMatrix etc = generateEtc(options, rng);
  const Mapping mapping = randomMapping(options.apps, options.machines, rng);
  const double tau = 1.05 + 0.5 * rng.nextDouble();

  const IndependentTaskSystem system(etc, mapping, tau);
  const auto direct = system.analyze();
  const auto generic = system.compile().evaluate();
  EXPECT_NEAR(direct.robustness, generic.metric,
              1e-9 * std::max(1.0, direct.robustness));

  // And the per-machine radii agree feature by feature.
  std::size_t featureIndex = 0;
  const auto counts = mapping.countPerMachine();
  for (std::size_t j = 0; j < options.machines; ++j) {
    if (counts[j] == 0) {
      continue;
    }
    EXPECT_NEAR(direct.radii[j], generic.radii[featureIndex].radius, 1e-9)
        << "machine " << j;
    ++featureIndex;
  }
  EXPECT_EQ(featureIndex, generic.radii.size());
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, Eq6VsGenericAnalyzer,
                         ::testing::Range(0, 10));

// The metric's guarantee holds empirically (sampling oracle).
TEST(IndependentSystem, GuaranteeValidatedBySampling) {
  Pcg32 rng(31);
  EtcOptions options;
  const EtcMatrix etc = generateEtc(options, rng);
  const Mapping mapping = randomMapping(options.apps, options.machines, rng);
  const IndependentTaskSystem system(etc, mapping, 1.2);
  const double rho = system.analyze().robustness;
  const auto validation = core::validateRadius(system.compile(), rho);
  EXPECT_EQ(validation.violationsInside, 0);
}

}  // namespace
}  // namespace robust::sched

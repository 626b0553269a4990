// Unit tests for robust_util: RNG determinism and stream independence,
// statistics, table/CSV output, argument parsing, the thread pool and the
// shared shard loop.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "robust/core/compiled.hpp"
#include "robust/core/instance_file.hpp"
#include "robust/core/stream.hpp"
#include "robust/curve/curve.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/scheduling/etc.hpp"
#include "robust/scheduling/heuristics.hpp"
#include "robust/util/args.hpp"
#include "robust/util/diagnostics.hpp"
#include "robust/util/error.hpp"
#include "robust/util/mmap_file.hpp"
#include "robust/util/rng.hpp"
#include "robust/util/stats.hpp"
#include "robust/util/table.hpp"
#include "robust/util/timer.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust {
namespace {

// ---------------------------------------------------------------- RNG

TEST(Rng, SplitMix64IsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, SplitMix64KnownVector) {
  // Reference values from the canonical splitmix64 implementation (seed 0).
  SplitMix64 g(0);
  EXPECT_EQ(g.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(g.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(g.next(), 0x06c45d188009454fULL);
}

TEST(Rng, Pcg32IsDeterministic) {
  Pcg32 a(42, 54);
  Pcg32 b(42, 54);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, Pcg32ReferenceSequence) {
  // First outputs of PCG32 with the reference demo seeding
  // (seed 42, stream 54), from the pcg-random.org sample output.
  Pcg32 g(42, 54);
  EXPECT_EQ(g.next(), 0xa15c02b7u);
  EXPECT_EQ(g.next(), 0x7b47f409u);
  EXPECT_EQ(g.next(), 0xba1d3330u);
}

TEST(Rng, StreamsDiffer) {
  Pcg32 a(7, 1);
  Pcg32 b(7, 2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    equal += a.next() == b.next();
  }
  EXPECT_LT(equal, 5);  // occasional collisions only
}

TEST(Rng, NextDoubleInUnitInterval) {
  Pcg32 g(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = g.nextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextDoubleOpenNeverZero) {
  Pcg32 g(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(g.nextDoubleOpen(), 0.0);
  }
}

TEST(Rng, BoundedStaysInRange) {
  Pcg32 g(9);
  for (std::uint32_t bound : {1u, 2u, 3u, 7u, 100u}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(g.nextBounded(bound), bound);
    }
  }
}

TEST(Rng, BoundedCoversAllValues) {
  Pcg32 g(10);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(g.nextBounded(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, MakeStreamIndependence) {
  Pcg32 a = makeStream(1234, 0);
  Pcg32 b = makeStream(1234, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    equal += a.next() == b.next();
  }
  EXPECT_LT(equal, 5);
  // Same (seed, id) reproduces the same stream.
  Pcg32 c = makeStream(1234, 0);
  Pcg32 d = makeStream(1234, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(c.next(), d.next());
  }
}

TEST(Rng, AdvanceEqualsSequentialSteps) {
  // advance(k) must land on exactly the state k next() calls reach, for
  // k = 0 (no-op), 1, and assorted larger strides.
  for (const std::uint64_t k : {0ULL, 1ULL, 2ULL, 63ULL, 1024ULL, 99999ULL}) {
    Pcg32 jumped(42, 54);
    Pcg32 stepped(42, 54);
    jumped.advance(k);
    for (std::uint64_t i = 0; i < k; ++i) {
      (void)stepped.next();
    }
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(jumped.next(), stepped.next()) << "stride " << k;
    }
  }
}

TEST(Rng, AdvanceComposes) {
  // advance(a) then advance(b) == advance(a + b).
  Pcg32 split(7, 3);
  Pcg32 whole(7, 3);
  split.advance(1000);
  split.advance(234);
  whole.advance(1234);
  EXPECT_EQ(split.next(), whole.next());
}

TEST(Rng, AdvanceReferenceVectors) {
  // Pinned outputs so the jump-ahead polynomial can never silently drift.
  Pcg32 a(42, 54);
  a.advance(10000);
  EXPECT_EQ(a.next(), 0x4190678bu);
  Pcg32 b(2003, 7);
  b.advance(1);
  EXPECT_EQ(b.next(), 0x5e402056u);
  Pcg32 c(2003, 7);
  c.advance(0);
  EXPECT_EQ(c.next(), 0x0303604au);
}

TEST(Rng, FamilySeedReferenceVectors) {
  // The family -> seed derivation is part of the substream contract:
  // committed curve bits depend on it, so the hop values are pinned.
  EXPECT_EQ(familySeed(1234, 0), 0x780fd7d374bb1b2bULL);
  EXPECT_EQ(familySeed(1234, 1), 0x3be8f3d932e0c145ULL);
  Pcg32 s = makeStream(1234, 5, 17);
  EXPECT_EQ(s.next(), 0x43c08d75u);
  EXPECT_EQ(s.next(), 0x57212d01u);
  EXPECT_EQ(s.next(), 0xe23b0cbfu);
}

TEST(Rng, FamilyStreamsAreIndependentAndSchedulingFree) {
  // Same (seed, family, id) always reproduces the same stream — the
  // derivation is a pure function, never a draw from shared state — and
  // different families give unrelated id-indexed tables.
  Pcg32 a = makeStream(99, 2, 41);
  Pcg32 b = makeStream(99, 2, 41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  EXPECT_EQ(makeStream(99, 2, 41).next(),
            makeStream(familySeed(99, 2), 41).next());
  Pcg32 c = makeStream(99, 2, 7);
  Pcg32 d = makeStream(99, 3, 7);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    equal += c.next() == d.next();
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRange) {
  Pcg32 g(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = g.uniform(5.0, 9.0);
    EXPECT_GE(x, 5.0);
    EXPECT_LT(x, 9.0);
  }
}

// ---------------------------------------------------------------- stats

TEST(Stats, SummaryBasics) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(s.heterogeneity(), std::sqrt(2.5) / 3.0, 1e-12);
}

TEST(Stats, SummaryEvenCountMedian) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(summarize(xs).median, 2.5);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  const std::vector<double> xs = {1, 1, 1};
  const std::vector<double> ys = {2, 3, 4};
  EXPECT_TRUE(std::isnan(pearson(xs, ys)));
}

TEST(Stats, PearsonSizeMismatchThrows) {
  const std::vector<double> xs = {1, 2};
  const std::vector<double> ys = {1};
  EXPECT_THROW((void)pearson(xs, ys), InvalidArgumentError);
}

TEST(Stats, FitLineExact) {
  const std::vector<double> xs = {0, 1, 2, 3};
  const std::vector<double> ys = {1, 3, 5, 7};  // y = 2x + 1
  const LinearFit fit = fitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, FitLineNoisy) {
  Pcg32 rng(5);
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    xs.push_back(x);
    ys.push_back(3.0 * x - 2.0 + 0.01 * (rng.nextDouble() - 0.5));
  }
  const LinearFit fit = fitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_NEAR(fit.intercept, -2.0, 0.05);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(Stats, HistogramCountsEverything) {
  const std::vector<double> xs = {0.0, 0.1, 0.5, 0.9, 1.0};
  const Histogram h = makeHistogram(xs, 4);
  std::size_t total = 0;
  for (auto c : h.counts) {
    total += c;
  }
  EXPECT_EQ(total, xs.size());
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 1.0);
}

TEST(Stats, HistogramDegenerateRange) {
  const std::vector<double> xs = {2.0, 2.0, 2.0};
  const Histogram h = makeHistogram(xs, 3);
  EXPECT_EQ(h.counts[0], 3u);
}

TEST(Stats, QuantileEndpointsAndMedian) {
  const std::vector<double> xs = {3.0, 1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Stats, QuantileValidation) {
  EXPECT_THROW((void)quantile({}, 0.5), InvalidArgumentError);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW((void)quantile(xs, 1.5), InvalidArgumentError);
}

TEST(Stats, HeterogeneityZeroMeanIsNaN) {
  // A zero-mean sample has no meaningful coefficient of variation; the old
  // behavior silently returned 0.0, masking the degenerate case.
  const std::vector<double> xs = {-1.0, 1.0};
  EXPECT_TRUE(std::isnan(summarize(xs).heterogeneity()));
  const std::vector<double> zeros = {0.0, 0.0, 0.0};
  EXPECT_TRUE(std::isnan(summarize(zeros).heterogeneity()));
  EXPECT_TRUE(std::isnan(Summary{}.heterogeneity()));
}

TEST(Stats, HistogramThrowsOnNonFiniteByDefault) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> withNan = {1.0, nan, 3.0};
  const std::vector<double> withInf = {1.0, inf, 3.0};
  const std::vector<double> withNegInf = {-inf, 1.0};
  EXPECT_THROW((void)makeHistogram(withNan, 4), InvalidArgumentError);
  EXPECT_THROW((void)makeHistogram(withInf, 4), InvalidArgumentError);
  EXPECT_THROW((void)makeHistogram(withNegInf, 4), InvalidArgumentError);
  try {
    (void)makeHistogram(withNan, 4);
    FAIL() << "expected a throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("sample 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("nan"), std::string::npos);
  }
}

TEST(Stats, HistogramSkipPolicyDropsNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {0.0, nan, 0.5, inf, 1.0, -inf};
  const Histogram h = makeHistogram(xs, 2, NonFinitePolicy::Skip);
  EXPECT_EQ(h.counts[0] + h.counts[1], 3u);
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 1.0);
  // All-non-finite input degrades to an empty, zeroed histogram.
  const std::vector<double> allBad = {nan, inf, -inf};
  const Histogram empty = makeHistogram(allBad, 3, NonFinitePolicy::Skip);
  for (auto c : empty.counts) {
    EXPECT_EQ(c, 0u);
  }
}

TEST(Stats, QuantileThrowsOnNonFiniteByDefault) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> withNan = {2.0, nan, 1.0};
  const std::vector<double> withInf = {2.0, -inf, 1.0};
  EXPECT_THROW((void)quantile(withNan, 0.5), InvalidArgumentError);
  EXPECT_THROW((void)quantile(withInf, 0.5), InvalidArgumentError);
}

TEST(Stats, QuantileSkipPolicyUsesFiniteSubset) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {3.0, nan, 1.0, inf, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0, NonFinitePolicy::Skip), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0, NonFinitePolicy::Skip), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5, NonFinitePolicy::Skip), 2.5);
  // Skipping everything leaves no sample to interpolate: structured throw.
  const std::vector<double> allBad = {nan, nan};
  EXPECT_THROW((void)quantile(allBad, 0.5, NonFinitePolicy::Skip),
               InvalidArgumentError);
}

// ---------------------------------------------------------------- table

TEST(Table, PrintsAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "22"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), InvalidArgumentError);
}

TEST(Csv, QuotesSpecialCells) {
  std::ostringstream oss;
  CsvWriter csv(oss);
  csv.writeRow({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(oss.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(FormatDouble, Reasonable) {
  EXPECT_EQ(formatDouble(1.0), "1");
  EXPECT_EQ(formatDouble(0.5), "0.5");
  EXPECT_EQ(formatDouble(123456.0, 3), "1.23e+05");
}

// ---------------------------------------------------------------- args

TEST(Args, ParsesValuesAndFlags) {
  const char* argv[] = {"prog", "--seed", "7", "--csv", "--name", "x"};
  const ArgParser args(6, argv);
  EXPECT_EQ(args.getInt("seed", 0), 7);
  EXPECT_TRUE(args.has("csv"));
  EXPECT_EQ(args.getString("name", ""), "x");
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.getInt("missing", 9), 9);
  EXPECT_DOUBLE_EQ(args.getDouble("missing", 1.5), 1.5);
}

TEST(Args, RejectsMalformed) {
  const char* argv1[] = {"prog", "positional"};
  EXPECT_THROW(ArgParser(2, argv1), InvalidArgumentError);
  const char* argv2[] = {"prog", "--num", "abc"};
  const ArgParser args(3, argv2);
  EXPECT_THROW((void)args.getDouble("num", 0.0), InvalidArgumentError);
  EXPECT_THROW((void)args.getInt("num", 0), InvalidArgumentError);
}

TEST(Args, UnknownOptionsAreTheOnesNeverQueried) {
  // A misspelled "--wokers" must be reportable, not silently ignored.
  const char* argv[] = {"prog", "--workers", "4", "--wokers", "4", "--quiet"};
  const ArgParser args(6, argv);
  EXPECT_EQ(args.getInt("workers", 0), 4);
  EXPECT_EQ(args.unknownOptions(),
            (std::vector<std::string>{"quiet", "wokers"}));
  // has() counts as a query, present or not; absent keys are never unknown.
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.unknownOptions(), std::vector<std::string>{"wokers"});
}

TEST(Args, RejectUnknownOptionsNamesEachAndExitsTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"prog", "--seed", "4", "--bogus", "1", "--quiet"};
  const ArgParser args(6, argv);
  EXPECT_EQ(args.getInt("seed", 0), 4);
  EXPECT_EXIT(args.rejectUnknownOptions("harness"),
              ::testing::ExitedWithCode(2),
              "harness: unknown option --bogus\n"
              "harness: unknown option --quiet");
  EXPECT_TRUE(args.has("bogus"));
  EXPECT_TRUE(args.has("quiet"));
  args.rejectUnknownOptions("harness");  // all read: returns
}

TEST(Args, HarnessFailureExitsTwoOnInvalidArgument) {
  const auto failWith = [](auto thrown) {
    try {
      throw thrown;
    } catch (...) {
      return harnessFailure("harness");
    }
  };
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(failWith(InvalidArgumentError("bad value")), 2);
  EXPECT_EQ(failWith(std::runtime_error("io")), 1);
  EXPECT_EQ(failWith(7), 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "harness: bad value\nharness: io\nharness: unknown exception\n");
}

TEST(Args, LaterDuplicateWins) {
  const char* argv[] = {"prog", "--k", "1", "--k", "2"};
  const ArgParser args(5, argv);
  EXPECT_EQ(args.getInt("k", 0), 2);
}

TEST(Args, NegativeNumbersAreValuesNotOptions) {
  // A single leading '-' marks a value, not an option: this is documented
  // behavior, not an accident of the "--" prefix test.
  const char* argv[] = {"prog", "--offset", "-5", "--rate", "-1.5e-3"};
  const ArgParser args(5, argv);
  EXPECT_EQ(args.getInt("offset", 0), -5);
  EXPECT_DOUBLE_EQ(args.getDouble("rate", 0.0), -1.5e-3);
}

TEST(Args, DoubleDashNumberIsALoudError) {
  // "--5" would silently become a flag named "5"; it must throw with a
  // diagnostic pointing at the negative-value spelling instead.
  const char* argv[] = {"prog", "--offset", "--5"};
  try {
    const ArgParser args(3, argv);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("--5"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("negative values"),
              std::string::npos);
  }
}

TEST(Args, BareFlagNumericLookupNamesTheMissingValue) {
  const char* argv[] = {"prog", "--count"};
  const ArgParser args(2, argv);
  EXPECT_TRUE(args.has("count"));
  EXPECT_EQ(args.getString("count", "fallback"), "");
  for (const auto& fetch : {std::function<void()>(
                                [&] { (void)args.getInt("count", 0); }),
                            std::function<void()>(
                                [&] { (void)args.getDouble("count", 0.0); })}) {
    try {
      fetch();
      FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--count"), std::string::npos);
      EXPECT_NE(what.find("bare flag"), std::string::npos);
    }
  }
}

TEST(Args, NotANumberDiagnosticEchoesTheValue) {
  const char* argv[] = {"prog", "--num", "abc"};
  const ArgParser args(3, argv);
  try {
    (void)args.getInt("num", 0);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("'abc'"), std::string::npos);
  }
}

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEveryTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallelFor(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 4);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyAndSingle) {
  int calls = 0;
  parallelFor(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(3, 4, [&](std::size_t i) { EXPECT_EQ(i, 3u); ++calls; }, 1);
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SurvivesAThrowingTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("poisoned task"); });
  try {
    pool.wait();
    FAIL() << "wait() must rethrow the task's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "poisoned task");
  }
  // The pool is still alive: later submissions run and wait() is clean.
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, FirstExceptionWinsAndInFlightStaysConsistent) {
  ThreadPool pool(1);  // single worker => deterministic task order
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::logic_error("second"); });
  pool.submit([&ran] { ran.fetch_add(1); });
  try {
    pool.wait();
    FAIL() << "expected the first exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // inFlight_ reached zero despite two throwing tasks (no deadlock above),
  // the non-throwing task still ran, and the second exception was dropped,
  // so a follow-up wait() returns normally.
  EXPECT_EQ(ran.load(), 1);
  pool.wait();
}

TEST(ThreadPool, DestructionDiscardsAnUncollectedException) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("never collected"); });
    pool.submit([&ran] { ran.fetch_add(1); });
  }  // destructor must neither terminate nor throw
  EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelFor, RethrowsTheBodyExceptionAfterCompletion) {
  std::atomic<int> visited{0};
  try {
    parallelFor(
        0, 64,
        [&](std::size_t i) {
          visited.fetch_add(1);
          if (i == 13) {
            throw std::runtime_error("body failed at 13");
          }
        },
        4);
    FAIL() << "expected the body's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "body failed at 13");
  }
  // The throw abandons the rest of its own chunk ([0,16) loses i=14,15)
  // while every other chunk still runs to completion before the rethrow.
  EXPECT_EQ(visited.load(), 62);
}

TEST(ThreadPool, ShutdownDrainsUnstartedTasks) {
  // One worker pinned on a slow first task guarantees the remaining tasks
  // are still queued when the destructor runs: they must all execute.
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  {
    ThreadPool pool(1);
    pool.submit([&release] {
      while (!release.load()) {
      }
    });
    for (int i = 0; i < 30; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    release.store(true);
  }  // destructor joins after draining the queue
  EXPECT_EQ(ran.load(), 30);
}

TEST(ThreadPool, ParseThreadCountRejectsHostileValues) {
  EXPECT_EQ(parseThreadCount("4"), 4u);
  EXPECT_EQ(parseThreadCount("1"), 1u);
  EXPECT_EQ(parseThreadCount("1024"), 1024u);
  // Hostile or malformed: all ignored (0), never oversubscribed.
  EXPECT_EQ(parseThreadCount(nullptr), 0u);
  EXPECT_EQ(parseThreadCount(""), 0u);
  EXPECT_EQ(parseThreadCount("0"), 0u);
  EXPECT_EQ(parseThreadCount("-3"), 0u);
  EXPECT_EQ(parseThreadCount("1025"), 0u);
  EXPECT_EQ(parseThreadCount("99999999999999999999"), 0u);
  EXPECT_EQ(parseThreadCount("1e9"), 0u);
  EXPECT_EQ(parseThreadCount("8 "), 0u);
  EXPECT_EQ(parseThreadCount(" 8"), 0u);
  EXPECT_EQ(parseThreadCount("abc"), 0u);
  EXPECT_EQ(parseThreadCount("12abc"), 0u);
  EXPECT_EQ(parseThreadCount("+4"), 0u);
}

TEST(ThreadPool, DefaultThreadCountIsPositiveAndCached) {
  const std::size_t first = defaultThreadCount();
  EXPECT_GE(first, 1u);
  EXPECT_LE(first, 1024u);
  EXPECT_EQ(defaultThreadCount(), first);
}

// ---------------------------------------------------------- shard loop

/// A small affine problem for the stream, curve and metric lanes.
core::CompiledProblem shardProblem() {
  Pcg32 rng(11);
  core::ProblemSpec spec;
  spec.parameter.name = "pi";
  spec.parameter.origin.assign(6, 1.0);
  for (int r = 0; r < 12; ++r) {
    num::Vec weights(6);
    for (double& w : weights) {
      w = rng.uniform(0.1, 2.0);
    }
    double atOrigin = 0.0;
    for (const double w : weights) {
      atOrigin += w;
    }
    spec.features.push_back(core::PerformanceFeature{
        "F_" + std::to_string(r),
        core::ImpactFunction::affine(std::move(weights)),
        core::ToleranceBounds::atMost(atOrigin * rng.uniform(1.05, 3.0))});
  }
  return core::CompiledProblem::compile(std::move(spec));
}

std::vector<double> shardValues(std::size_t instances) {
  std::vector<double> values(instances * 6);
  Pcg32 rng(12);
  for (double& v : values) {
    v = rng.uniform(0.9, 1.1);
  }
  return values;
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Runs `fn` on its own thread and aborts the process if it has not
/// returned within `limit`: a deadlocked executor cannot be unwound, and a
/// hang must fail with this test's name rather than at the ctest timeout.
template <class Fn>
void finishesWithin(std::chrono::seconds limit, Fn fn) {
  auto done = std::async(std::launch::async, std::move(fn));
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "shard loop did not finish within %llds\n",
                 static_cast<long long>(limit.count()));
    std::abort();
  }
  done.get();
}

TEST(ForEachShard, RunsEveryShardOnceWithDistinctParticipants) {
  constexpr std::size_t kShards = 40;
  std::vector<std::atomic<int>> hits(kShards);
  std::vector<std::atomic<int>> busy(shardParticipants(kShards, 3));
  std::atomic<bool> shared{false};
  forEachShard(kShards, 3, [&](std::size_t s, std::size_t participant) {
    if (busy.at(participant).fetch_add(1) != 0) {
      shared = true;
    }
    hits[s].fetch_add(1);
    busy[participant].fetch_sub(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  EXPECT_FALSE(shared.load());
  EXPECT_EQ(shardParticipants(kShards, 3), 3u);
  EXPECT_EQ(shardParticipants(2, 3), 2u);
  EXPECT_EQ(shardParticipants(0, 3), 0u);
}

TEST(ForEachShard, LowestFailingShardIsRethrownWhateverTheTiming) {
  // Shards 2 and 5 throw; in every round the other one is delayed, so the
  // higher index fails first in time on half the rounds.
  for (int round = 0; round < 8; ++round) {
    const std::size_t late = round % 2 == 0 ? 2 : 5;
    std::atomic<int> ran{0};
    try {
      forEachShard(8, 4, [&](std::size_t s, std::size_t) {
        ran.fetch_add(1);
        if (s != 2 && s != 5) {
          return;
        }
        if (s == late) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        throw std::runtime_error("shard " + std::to_string(s));
      });
      FAIL() << "expected a shard exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 2") << "round " << round;
    }
    EXPECT_EQ(ran.load(), 8) << "every shard runs before the rethrow";
  }
}

TEST(ForEachShard, NestedCallsOnASaturatedPoolFinishWithSerialBits) {
  const core::CompiledProblem problem = shardProblem();
  const std::vector<double> values = shardValues(300);
  core::StreamOptions streamSerial;
  streamSerial.shardInstances = 16;
  streamSerial.threads = 1;
  curve::CurveOptions curveSerial;
  curveSerial.samples = 600;
  curveSerial.shardSamples = 64;
  curveSerial.threads = 1;
  curveSerial.useCache = false;
  const core::StreamResult streamRef =
      core::analyzeStreamValues(problem, values, streamSerial);
  const curve::CurveResult curveRef = curve::computeCurve(problem, curveSerial);

  // Grow the pool a little, then give the outer loop one participant per
  // pool thread plus the caller, held at a barrier until all are inside:
  // every nested call then finds the pool busy and must run its own shards.
  forEachShard(4, 4, [](std::size_t, std::size_t) {});
  const std::size_t participants = sharedPoolThreads() + 1;
  std::atomic<std::size_t> arrived{0};
  std::atomic<int> mismatches{0};
  finishesWithin(std::chrono::seconds(60), [&] {
    forEachShard(2 * participants, participants,
                 [&](std::size_t s, std::size_t) {
      if (s < participants) {
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (arrived.load() < participants &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
      if (s % 2 == 0) {
        core::StreamOptions options = streamSerial;
        options.threads = 2;
        const core::StreamResult got =
            core::analyzeStreamValues(problem, values, options);
        if (!sameBits(got.metric, streamRef.metric) ||
            got.argminInstance != streamRef.argminInstance ||
            got.bindingFeature != streamRef.bindingFeature) {
          mismatches.fetch_add(1);
        }
      } else {
        curve::CurveOptions options = curveSerial;
        options.threads = 2;
        const curve::CurveResult got = curve::computeCurve(problem, options);
        for (std::size_t i = 0; i < got.radii.size(); ++i) {
          if (!sameBits(got.radii[i], curveRef.radii[i])) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ForEachShard, SteadyStateStartsNoThreads) {
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);
  const core::CompiledProblem problem = shardProblem();
  const std::vector<double> values = shardValues(200);
  std::vector<core::AnalysisInstance> instances(200);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    instances[i].origin = std::span<const double>(values).subspan(i * 6, 6);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("robust_util_shards_" + std::to_string(::getpid()) + ".rbi"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    core::InstanceFileWriter writer(out, 6);
    writer.appendBatch(values);
    writer.finish();
  }
  core::StreamOptions stream;
  stream.shardInstances = 16;
  stream.threads = 2;
  curve::CurveOptions curveOptions;
  curveOptions.samples = 400;
  curveOptions.shardSamples = 64;
  curveOptions.threads = 2;
  curveOptions.useCache = false;  // a cache hit would skip the pool
  sched::EtcOptions etcOptions;
  etcOptions.apps = 24;
  etcOptions.machines = 4;
  Pcg32 rng(5);
  const sched::EtcMatrix etc = sched::generateEtc(etcOptions, rng);
  const sched::Mapping start =
      sched::randomMapping(etc.apps(), etc.machines(), rng);
  sched::LocalSearchOptions search;
  search.threads = 2;
  const auto everyLane = [&] {
    (void)core::analyzeStream(problem, path, stream);
    (void)curve::computeCurve(problem, curveOptions);
    (void)problem.analyzeBatchMetric(instances, 2);
    (void)sched::localSearch(etc, start,
                             sched::EtcObjective::negatedRobustness(1.2),
                             search);
  };
  everyLane();  // warm-up: may start the pool's threads
  const std::uint64_t spawned =
      obs::snapshotMetrics().counter("util.pool_spawns");
  for (int i = 0; i < 5; ++i) {
    everyLane();
  }
  EXPECT_EQ(obs::snapshotMetrics().counter("util.pool_spawns"), spawned);
  EXPECT_GE(sharedPoolThreads(), 1u);
  obs::setEnabled(wasEnabled);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- timer

TEST(Stopwatch, MonotoneAndResettable) {
  Stopwatch watch;
  const double t0 = watch.seconds();
  EXPECT_GE(t0, 0.0);
  // Burn a little CPU so time visibly advances.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + static_cast<double>(i);
  }
  const double t1 = watch.seconds();
  EXPECT_GE(t1, t0);
  EXPECT_NEAR(watch.micros(), watch.seconds() * 1e6,
              watch.seconds() * 1e6 * 0.5 + 10.0);
  watch.reset();
  EXPECT_LE(watch.seconds(), t1);
}

TEST(Stopwatch, NanosIsMonotoneNonNegativeAndConsistent) {
  Stopwatch watch;
  // Successive integer readings never go backwards (steady clock, integer
  // ticks — no floating-point rounding in between).
  std::int64_t previous = watch.nanos();
  EXPECT_GE(previous, 0);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t now = watch.nanos();
    EXPECT_GE(now, previous);
    previous = now;
  }
  // nanos() and seconds() describe the same elapsed interval.
  const std::int64_t ns = watch.nanos();
  const double s = watch.seconds();
  EXPECT_LE(static_cast<double>(ns) * 1e-9, s + 1e-6);
  watch.reset();
  EXPECT_LE(watch.nanos(), ns);
}

// ---------------------------------------------------------------- errors

TEST(Errors, RequireMacroThrowsWithLocation) {
  try {
    ROBUST_REQUIRE(false, "something bad");
    FAIL() << "should have thrown";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("something bad"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
  }
}

TEST(Errors, ConvergenceErrorCarriesResidual) {
  const ConvergenceError e("stalled", 0.25);
  EXPECT_DOUBLE_EQ(e.residual(), 0.25);
  EXPECT_STREQ(e.what(), "stalled");
}

// ---------------------------------------------------------------- diagnostics

TEST(Diagnostics, FailTalliesTheCategoryBeforeThrowing) {
  util::Diagnostics diag("input.txt");
  EXPECT_EQ(diag.counts().total(), 0u);
  try {
    diag.fail(util::RejectCategory::Domain, 3, 7, "value out of range");
    FAIL() << "expected a throw";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.diagnostic().category, util::RejectCategory::Domain);
    EXPECT_EQ(e.diagnostic().line, 3u);
    EXPECT_EQ(e.diagnostic().column, 7u);
  }
  EXPECT_EQ(diag.counts()[util::RejectCategory::Domain], 1u);
  EXPECT_EQ(diag.counts()[util::RejectCategory::Format], 0u);
  EXPECT_EQ(diag.counts().total(), 1u);
}

TEST(Diagnostics, LegacyOverloadsCountAsOther) {
  util::Diagnostics diag("input.txt");
  EXPECT_THROW(diag.failInput("truncated"), util::ParseError);
  EXPECT_THROW(diag.failLine(4, "bad line"), util::ParseError);
  EXPECT_EQ(diag.counts()[util::RejectCategory::Other], 2u);
  EXPECT_EQ(diag.counts().total(), 2u);
}

TEST(Diagnostics, CountsAccumulateAcrossCategories) {
  util::Diagnostics diag("input.txt");
  for (const auto category :
       {util::RejectCategory::Format, util::RejectCategory::Format,
        util::RejectCategory::Structure, util::RejectCategory::Truncated}) {
    EXPECT_THROW(diag.fail(category, 1, 1, "x"), util::ParseError);
  }
  EXPECT_EQ(diag.counts()[util::RejectCategory::Format], 2u);
  EXPECT_EQ(diag.counts()[util::RejectCategory::Structure], 1u);
  EXPECT_EQ(diag.counts()[util::RejectCategory::Truncated], 1u);
  EXPECT_EQ(diag.counts().total(), 4u);
}

// ---------------------------------------------------------------- MmapFile

/// A writable temp path, removed when the guard dies.
class MmapTempFile {
 public:
  explicit MmapTempFile(const std::string& tag, const std::string& bytes) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("robust_util_mmap_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter++)))
                .string();
    std::ofstream out(path_, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~MmapTempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Runs `body` once on the mmap lane and once on the pread fallback lane;
/// both must hand back identical bytes.
template <typename Body>
void onBothLanes(const Body& body) {
  util::MmapFile::setForceFallback(false);
  body("mmap");
  util::MmapFile::setForceFallback(true);
  body("pread");
  util::MmapFile::setForceFallback(false);
}

TEST(MmapFile, ZeroLengthFile) {
  MmapTempFile file("empty", "");
  onBothLanes([&](const char* lane) {
    SCOPED_TRACE(lane);
    util::MmapFile f(file.path());
    EXPECT_TRUE(f.isOpen());
    EXPECT_EQ(f.size(), 0u);
    util::MmapFile::View view;
    f.view(0, 0, view);  // empty window of an empty file is legal
    EXPECT_EQ(view.size(), 0u);
    EXPECT_THROW(f.view(0, 1, view), InvalidArgumentError);
  });
}

TEST(MmapFile, PageBoundaryWindows) {
  const long pageLong = ::sysconf(_SC_PAGESIZE);
  ASSERT_GT(pageLong, 0);
  const std::size_t page = static_cast<std::size_t>(pageLong);
  // Two pages plus a ragged tail so windows can straddle every boundary.
  std::string bytes(2 * page + 37, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131 + 17) & 0xff);
  }
  MmapTempFile file("pages", bytes);
  onBothLanes([&](const char* lane) {
    SCOPED_TRACE(lane);
    util::MmapFile f(file.path());
    ASSERT_EQ(f.size(), bytes.size());
    util::MmapFile::View view;
    const struct {
      std::size_t offset;
      std::size_t length;
    } windows[] = {
        {0, page},                // exactly the first page
        {page, page},             // page-aligned interior page
        {page - 1, 2},            // straddles the first boundary
        {2 * page, 37},           // the ragged tail
        {page / 2, page},         // unaligned straddle
        {bytes.size() - 1, 1},    // last byte
        {0, bytes.size()},        // whole file
    };
    for (const auto& w : windows) {
      f.view(w.offset, w.length, view);
      ASSERT_EQ(view.size(), w.length);
      EXPECT_EQ(std::memcmp(view.data(), bytes.data() + w.offset, w.length),
                0)
          << "window at " << w.offset << "+" << w.length;
    }
    // One past the end must be rejected, exactly at the end is fine.
    EXPECT_THROW(f.view(bytes.size(), 1, view), InvalidArgumentError);
    f.view(bytes.size(), 0, view);
    EXPECT_EQ(view.size(), 0u);
  });
}

TEST(MmapFile, ViewReuseAcrossLanesKeepsBytesIdentical) {
  std::string bytes(4096 * 3, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 7 + 3) & 0xff);
  }
  MmapTempFile file("reuse", bytes);
  util::MmapFile f(file.path());
  util::MmapFile::View view;  // reused across lane switches and windows
  for (const bool fallback : {false, true, false}) {
    util::MmapFile::setForceFallback(fallback);
    for (std::size_t offset = 0; offset + 512 <= bytes.size();
         offset += 1536) {
      f.view(offset, 512, view);
      ASSERT_EQ(view.size(), 512u);
      EXPECT_EQ(std::memcmp(view.data(), bytes.data() + offset, 512), 0)
          << (fallback ? "pread" : "mmap") << " at " << offset;
    }
  }
  util::MmapFile::setForceFallback(false);
}

TEST(MmapFile, MissingFileThrows) {
  EXPECT_THROW(
      util::MmapFile("/nonexistent/robust_util_mmap_missing"),
      std::runtime_error);
}

TEST(Diagnostics, CategoryNamesAreStableCounterKeys) {
  EXPECT_STREQ(util::rejectCategoryName(util::RejectCategory::Format),
               "format");
  EXPECT_STREQ(util::rejectCategoryName(util::RejectCategory::Domain),
               "domain");
  EXPECT_STREQ(util::rejectCategoryName(util::RejectCategory::Structure),
               "structure");
  EXPECT_STREQ(util::rejectCategoryName(util::RejectCategory::Truncated),
               "truncated");
  EXPECT_STREQ(util::rejectCategoryName(util::RejectCategory::Other),
               "other");
}

}  // namespace
}  // namespace robust

// Unit tests for mbq/common: rng, bits, signals, tables, angles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "mbq/common/bits.h"
#include "mbq/common/error.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/common/signal.h"
#include "mbq/common/table.h"
#include "mbq/common/types.h"

namespace mbq {
namespace {

TEST(Types, WrapAngle) {
  EXPECT_NEAR(wrap_angle(0.0), 0.0, 1e-15);
  EXPECT_NEAR(wrap_angle(kPi), kPi, 1e-15);
  EXPECT_NEAR(wrap_angle(-kPi), kPi, 1e-12);  // (-pi, pi] convention
  EXPECT_NEAR(wrap_angle(3 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_angle(2 * kPi + 0.25), 0.25, 1e-12);
  EXPECT_NEAR(wrap_angle(-2 * kPi - 0.25), -0.25, 1e-12);
}

TEST(Types, PiMultiple) {
  EXPECT_TRUE(is_pi_multiple(0.0));
  EXPECT_TRUE(is_pi_multiple(kPi));
  EXPECT_TRUE(is_pi_multiple(-3 * kPi));
  EXPECT_FALSE(is_pi_multiple(kPi / 2));
  EXPECT_FALSE(is_pi_multiple(0.1));
}

TEST(Types, AnglesEqualMod2Pi) {
  EXPECT_TRUE(angles_equal_mod_2pi(0.3, 0.3 + kTwoPi));
  EXPECT_TRUE(angles_equal_mod_2pi(-kPi, kPi));
  EXPECT_FALSE(angles_equal_mod_2pi(0.0, kPi));
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const real u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 200000;
  real sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const real x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, SplitIndependent) {
  Rng rng(5);
  Rng child = rng.split();
  // Parent and child should not produce identical streams.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (rng.next() == child.next());
  EXPECT_LT(same, 4);
}

TEST(Bits, Parity) {
  EXPECT_EQ(parity64(0), 0);
  EXPECT_EQ(parity64(1), 1);
  EXPECT_EQ(parity64(0b1011), 1);
  EXPECT_EQ(parity64(0b1111), 0);
}

TEST(Bits, GetSetFlip) {
  EXPECT_EQ(get_bit(0b100, 2), 1);
  EXPECT_EQ(get_bit(0b100, 1), 0);
  EXPECT_EQ(set_bit(0b100, 0, 1), 0b101u);
  EXPECT_EQ(set_bit(0b101, 0, 0), 0b100u);
  EXPECT_EQ(flip_bit(0b100, 2), 0u);
}

TEST(Bits, InsertRemove) {
  EXPECT_EQ(insert_zero_bit(0b101, 1), 0b1001u);
  EXPECT_EQ(insert_zero_bit(0b11, 0), 0b110u);
  EXPECT_EQ(remove_bit(0b1001, 1), 0b101u);
  // remove is a left inverse of insert.
  for (std::uint64_t x = 0; x < 64; ++x)
    for (int b = 0; b < 5; ++b)
      EXPECT_EQ(remove_bit(insert_zero_bit(x, b), b), x);
}

TEST(Bits, BitstringRoundTrip) {
  const std::uint64_t x = 0b110010;
  EXPECT_EQ(bitstring(x, 6), "010011");  // qubit 0 first
  EXPECT_EQ(parse_bitstring(bitstring(x, 6)), x);
  EXPECT_EQ(index_of(bits_of(x, 6)), x);
}

TEST(Bits, ParseRejectsGarbage) {
  EXPECT_THROW(parse_bitstring("01x"), Error);
}

TEST(Signal, XorCancels) {
  SignalExpr a(3);
  SignalExpr b(3);
  EXPECT_TRUE((a ^ b).empty());
}

TEST(Signal, MergeSorted) {
  SignalExpr s{5, 1, 3};
  EXPECT_EQ(s.variables(), (std::vector<signal_t>{1, 3, 5}));
  s ^= SignalExpr{3, 7};
  EXPECT_EQ(s.variables(), (std::vector<signal_t>{1, 5, 7}));
}

TEST(Signal, Evaluate) {
  SignalExpr s{0, 2};
  EXPECT_EQ(s.evaluate({1, 0, 0}), 1);
  EXPECT_EQ(s.evaluate({1, 0, 1}), 0);
  EXPECT_THROW(s.evaluate({1}), Error);  // s2 not yet measured
}

TEST(Signal, Str) {
  EXPECT_EQ(SignalExpr{}.str(), "0");
  EXPECT_EQ((SignalExpr{2, 0}).str(), "s0^s2");
}

TEST(Signal, RejectsNegative) { EXPECT_THROW(SignalExpr(-1), Error); }

TEST(Table, MarkdownShape) {
  Table t({"a", "b"});
  t.row().add(1).add("x");
  t.row().add(2).add("y");
  const std::string md = t.markdown();
  EXPECT_NE(md.find("| a"), std::string::npos);
  EXPECT_NE(md.find("| 2"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.cell(1, 1), "y");
}

TEST(Table, IncompleteRowThrows) {
  Table t({"a", "b"});
  t.row().add(1);
  EXPECT_THROW(t.markdown(), Error);
}

TEST(Table, CsvQuoting) {
  Table t({"a"});
  t.row().add(std::string("x,\"y\""));
  EXPECT_EQ(t.csv(), "a\n\"x,\"\"y\"\"\"\n");
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  auto sorted = w;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
  // With 8! arrangements, two shuffles almost surely differ.
  auto w2 = v;
  rng.shuffle(w2);
  EXPECT_TRUE(w != v || w2 != v);
}

/// The size of the team running the caller (1 outside any team).
int team_size() {
#ifdef MBQ_HAS_OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

/// Restores the startup thread budget when a test exits.
struct BudgetGuard {
  ~BudgetGuard() { set_num_threads(0); }
};

TEST(Parallel, SumMatchesSerial) {
  const std::int64_t n = 100000;
  const real par = parallel_sum(n, [](std::int64_t i) {
    return 1.0 / ((i + 1.0) * (i + 1.0));
  });
  real ser = 0.0;
  for (std::int64_t i = 0; i < n; ++i) ser += 1.0 / ((i + 1.0) * (i + 1.0));
  EXPECT_NEAR(par, ser, 1e-9);
  EXPECT_GE(num_threads(), 1);
}

// parallel_sum's bits depend only on n: fixed chunks, each summed
// serially, partials added in ascending order — at every thread count
// and inside a team.
TEST(Parallel, SumIsBitIdenticalAtEveryThreadCount) {
  BudgetGuard guard;
  const auto f = [](std::int64_t i) { return std::sin(0.37 * i) / (i + 1.0); };
  const std::int64_t n = 5 * kParallelGrain + 123;
  set_num_threads(1);
  const real want = parallel_sum(n, f);
  for (const int threads : {2, 3, 4, 8}) {
    set_num_threads(threads);
    EXPECT_EQ(parallel_sum(n, f), want) << "threads=" << threads;
  }
  std::vector<real> in_team(4);
  parallel_for_grain(4, 1, [&](std::int64_t i) {
    in_team[static_cast<std::size_t>(i)] = parallel_sum(n, f);
  });
  for (const real v : in_team) EXPECT_EQ(v, want);
  // Below one chunk it is the plain serial loop.
  real serial = 0.0;
  for (std::int64_t i = 0; i < kParallelGrain - 1; ++i) serial += f(i);
  EXPECT_EQ(parallel_sum(kParallelGrain - 1, f), serial);
}

// The budget caps a loop that asks for more threads than it holds, on
// every thread of the process.
TEST(Parallel, ThreadRequestsAreCappedByTheBudget) {
  BudgetGuard guard;
  set_num_threads(1);
  const auto widest_team = [] {
    std::vector<int> seen(8, 0);
    parallel_for_threads(8, 4, [&](std::int64_t i) {
      seen[static_cast<std::size_t>(i)] = team_size();
    });
    return *std::max_element(seen.begin(), seen.end());
  };
  EXPECT_EQ(widest_team(), 1);
  int on_other_thread = 0;
  std::thread([&] { on_other_thread = widest_team(); }).join();
  EXPECT_EQ(on_other_thread, 1);
}

// No helper opens a team of more than one thread inside an active team,
// even where the OpenMP runtime would allow nesting: each item of an
// item-level loop runs its chunked loops on one thread.
TEST(Parallel, NoTeamOpensInsideAnActiveTeam) {
  BudgetGuard guard;
  set_num_threads(4);
#ifdef MBQ_HAS_OPENMP
  const int saved_levels = omp_get_max_active_levels();
  omp_set_max_active_levels(2);
#endif
  constexpr std::size_t kItems = 4;
  std::vector<int> outer(kItems, 0);
  std::vector<std::vector<int>> chunked(kItems), grained(kItems);
  parallel_for_grain(kItems, 1, [&](std::int64_t i) {
    const auto item = static_cast<std::size_t>(i);
    outer[item] = team_size();
    chunked[item].assign(8, 0);
    parallel_for_threads(8, 4, [&](std::int64_t c) {
      chunked[item][static_cast<std::size_t>(c)] = team_size();
    });
    grained[item].assign(static_cast<std::size_t>(kParallelGrain), 0);
    parallel_for(kParallelGrain, [&](std::int64_t j) {
      grained[item][static_cast<std::size_t>(j)] = team_size();
    });
  });
#ifdef MBQ_HAS_OPENMP
  omp_set_max_active_levels(saved_levels);
#endif
  for (std::size_t item = 0; item < kItems; ++item) {
    if (has_openmp()) {
      EXPECT_GT(outer[item], 1) << "the items ran serially";
    }
    for (const int t : chunked[item]) EXPECT_EQ(t, 1) << "item " << item;
    for (const int t : grained[item]) ASSERT_EQ(t, 1) << "item " << item;
  }
}

TEST(Parallel, ForCoversAllIndices) {
  const std::int64_t n = 50000;
  std::vector<std::int64_t> hit(n, 0);
  parallel_for(n, [&](std::int64_t i) { hit[i] = i + 1; });
  for (std::int64_t i = 0; i < n; ++i) ASSERT_EQ(hit[i], i + 1);
}

// Regression: the restore-default value used to be captured lazily on
// the FIRST set_num_threads call, so a process whose first call was
// already an override (set_num_threads(2)) could record the overridden
// max as "the default" on some OpenMP runtimes.  The default is now
// captured at static-initialization time, before any override can run,
// and stays invariant however many overrides happen.
TEST(Parallel, SetNumThreadsRestoresTheStartupDefault) {
  const int startup_default = default_num_threads();
  EXPECT_GE(startup_default, 1);

  // Overrides must not contaminate the recorded default.
  set_num_threads(2);
  EXPECT_EQ(default_num_threads(), startup_default);
  if (has_openmp()) {
    EXPECT_EQ(num_threads(), 2);
  }

  set_num_threads(3);
  EXPECT_EQ(default_num_threads(), startup_default);

  // n <= 0 restores the startup default, not the last override.
  set_num_threads(0);
  EXPECT_EQ(num_threads(), startup_default);
  set_num_threads(-5);
  EXPECT_EQ(num_threads(), startup_default);
}

TEST(Error, RequireMessage) {
  try {
    MBQ_REQUIRE(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace mbq

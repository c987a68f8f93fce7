// Tests of the benchmark's own measurement rules (perf.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "perf.h"

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(perf::percentile(v, 50), 50);
  EXPECT_EQ(perf::percentile(v, 90), 90);
  EXPECT_EQ(perf::percentile(v, 99), 99);
  EXPECT_EQ(perf::percentile(v, 100), 100);
  EXPECT_EQ(perf::percentile(one_to(3), 50), 2);
  EXPECT_EQ(perf::percentile({}, 50), 0);
}

TEST(Percentile, TailHasTenSamplesBeyondIt) {
  EXPECT_EQ(perf::tail_percentile(0), 50);
  EXPECT_EQ(perf::tail_percentile(99), 50);
  EXPECT_EQ(perf::tail_percentile(100), 90);
  EXPECT_EQ(perf::tail_percentile(999), 90);
  EXPECT_EQ(perf::tail_percentile(1000), 99);
  EXPECT_EQ(perf::tail_percentile(9999), 99);
  EXPECT_EQ(perf::tail_percentile(10000), 99.9);
  EXPECT_EQ(perf::tail_percentile(100000), 99.99);
  // The rule's promise, checked against the samples themselves.
  for (int n : {100, 250, 1000, 4321, 10000}) {
    const std::vector<double> v = one_to(n);
    const perf::Summary s = perf::summarize(v);
    int beyond = 0;
    for (double x : v) beyond += x > s.tail;
    EXPECT_GE(beyond, 10) << n;
  }
  EXPECT_EQ(perf::percentile_label(99), "p99");
  EXPECT_EQ(perf::percentile_label(99.9), "p99.9");
}

perf::Span span(int id, int parent, double a, double b) {
  perf::Span s;
  s.name = "x.y";
  s.id = id;
  s.parent = parent;
  s.start_ms = a;
  s.end_ms = b;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // root [0,10] with overlapping children A [1,4] and B [3,6]; A has a
  // grandchild [2,3]; C [9,12] sticks out past the root and is clipped.
  std::vector<perf::Span> s = {span(0, -1, 0, 10), span(1, 0, 1, 4),
                               span(2, 0, 3, 6), span(3, 1, 2, 3),
                               span(4, 0, 9, 12)};
  s[1].name = "a.call";
  s[2].name = "b.call";
  s[3].name = "a.inner";
  s[4].name = "c.call";
  const std::vector<double> self = perf::self_times_ms(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);  // [1,6] and [9,10] covered
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
  const auto layers = perf::layer_self_ms(s);
  EXPECT_DOUBLE_EQ(layers.at("a"), 3.0);
  EXPECT_DOUBLE_EQ(layers.at("b"), 3.0);
  EXPECT_DOUBLE_EQ(layers.at("x"), 4.0);
  EXPECT_EQ(perf::layer_of("mbqc.shot"), "mbqc");
}

TEST(SelfTime, TracerNestsScopesAndCrossThreadParents) {
  perf::Tracer tr(true);
  int root_id = -1;
  {
    auto root = tr.span("api.sample", 7);
    root_id = root.id();
    { auto inner = tr.span("core.compile", 7); }
    std::thread t([&] { auto shot = tr.span("mbqc.shot", 7, root_id); });
    t.join();
  }
  const std::vector<perf::Span> s = tr.spans();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, root_id);
  EXPECT_EQ(s[2].parent, root_id);
  EXPECT_NE(s[2].thread, s[0].thread);
  for (const perf::Span& x : s) {
    EXPECT_EQ(x.request, 7u);
    EXPECT_LE(x.start_ms, x.end_ms);
  }
  const std::vector<double> self = perf::self_times_ms(s);
  EXPECT_GE(self[0], 0.0);

  perf::Tracer off(false);
  { auto quiet = off.span("api.sample"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(OpenLoop, StallIsChargedToRequestsQueuedBehindIt) {
  // One connection, a request due every 10 ms; request 0 stalls 150 ms.
  auto send = [](int, std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(i == 0 ? 150 : 1));
    return true;
  };
  const perf::OpenLoopResult r = perf::run_open_loop(5, 100.0, 1, send);
  ASSERT_EQ(r.latency_ms.size(), 5u);
  EXPECT_GE(r.latency_ms[0], 150.0);
  // Request 1 was due at 10 ms but could not start before 150 ms.
  EXPECT_GE(r.latency_ms[1], 135.0);
  // Request 4 was due at 40 ms and waited for 0..3.
  EXPECT_GE(r.latency_ms[4], 105.0);
  for (char ok : r.ok) EXPECT_TRUE(ok);
  // The generator itself stayed on schedule; the wait is the system's.
  EXPECT_LT(perf::percentile(r.late_ms, 100), 100.0);

  // With enough connections nothing queues behind the stall.
  const perf::OpenLoopResult wide = perf::run_open_loop(5, 100.0, 5, send);
  EXPECT_LT(wide.latency_ms[1], 100.0);
  EXPECT_GE(wide.latency_ms[0], 150.0);
}

TEST(OpenLoop, BacklogAndFailuresAreReported) {
  // 20 requests at 1000/s over one connection that needs 5 ms each: the
  // window closes long before the queue drains.
  auto slow = [](int, std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return i % 2 == 0;
  };
  const perf::OpenLoopResult r = perf::run_open_loop(20, 1000.0, 1, slow);
  EXPECT_GE(r.backlog_at_end, 10u);
  EXPECT_FALSE(r.ok[1]);
  EXPECT_TRUE(r.ok[2]);
}

TEST(ClosedLoop, BlockRatesCountEveryGapOnce) {
  // A completion every 10 ms from t = 5 ms: 100/s in every full block.
  std::vector<double> done;
  for (int i = 0; i < 350; ++i) done.push_back(0.005 + 0.01 * i);
  EXPECT_NEAR(perf::median_block_rate(done, 3.5, 1.0), 100.0, 1e-6);
  // A stall over [1, 1.9) shows in its own block's rate (10 completions
  // over 1 s), not in the median of the three blocks.
  std::vector<double> stalled;
  for (double t : done)
    if (t < 1.0 || t >= 1.9) stalled.push_back(t);
  EXPECT_NEAR(perf::median_block_rate(stalled, 3.5, 1.0), 100.0, 1e-6);
  EXPECT_NEAR(perf::median_block_rate(stalled, 2.0, 1.0), 10.0, 1e-6);
  // Shorter than a block: the whole-window rate.
  EXPECT_DOUBLE_EQ(perf::median_block_rate({0.1}, 0.5, 1.0), 2.0);

  // Two senders of 20 ms requests for 0.5 s; odd requests fail.
  auto send = [](int, std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return i % 2 == 0;
  };
  const perf::ClosedLoopResult r = perf::run_closed_loop(0.5, 2, 1000, send);
  EXPECT_GE(r.sent, 20u);
  EXPECT_LE(r.sent, 52u);
  EXPECT_GE(r.failed, r.sent / 2 - 1);
  EXPECT_TRUE(std::is_sorted(r.done_s.begin(), r.done_s.end()));
  for (double t : r.done_s) EXPECT_LE(t, 0.5);
  EXPECT_EQ(perf::run_closed_loop(0.5, 2, 3, send).sent, 3u);
}

TEST(MetricNames, Grammar) {
  for (const char* ok : {"setup_s", "lo.latency_ms_p50", "f32.shots_per_s",
                         "sim.prep_cz_ns", "large-n", "9lives"})
    EXPECT_TRUE(perf::valid_metric_name(ok)) << ok;
  for (const char* bad : {"", "a b", "x/y", ".lead", "-lead", "p99%",
                          "caf\xc3\xa9", "tab\t"})
    EXPECT_FALSE(perf::valid_metric_name(bad)) << bad;
  EXPECT_TRUE(perf::valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(perf::valid_metric_name(std::string(65, 'a')));
}

TEST(Checks, CorruptedStreamsAndWrongExpectationsFail) {
  const std::vector<std::uint64_t> stream = {3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<std::uint64_t> corrupted = stream;
  corrupted[5] ^= 1;  // one flipped bit in one outcome
  EXPECT_EQ(perf::digest(stream), perf::digest(stream));
  EXPECT_NE(perf::digest(stream), perf::digest(corrupted));

  // Costs of a fair coin between 0 and 2: mean 1, std error ~ 1/sqrt(n).
  std::vector<double> costs;
  for (int i = 0; i < 400; ++i) costs.push_back(i % 2 == 0 ? 0.0 : 2.0);
  EXPECT_TRUE(perf::check_mean(costs, 1.0).ok);
  EXPECT_TRUE(perf::check_mean(costs, 1.2).ok);   // 4 std errors
  EXPECT_FALSE(perf::check_mean(costs, 1.3).ok);  // 6 std errors
  EXPECT_FALSE(perf::check_mean(costs, 2.0).ok);
  EXPECT_FALSE(perf::check_mean({1.0}, 1.0).ok);  // too few samples
  EXPECT_TRUE(perf::check_mean({1.5, 1.5, 1.5}, 1.5).ok);
  EXPECT_FALSE(perf::check_mean({1.5, 1.5, 1.5}, 1.5 + 1e-6).ok);

  const double v = 0.1 + 0.2;
  EXPECT_TRUE(perf::bit_equal({v, 1.0}, {v, 1.0}));
  EXPECT_FALSE(perf::bit_equal({v}, {std::nextafter(v, 1.0)}));
  EXPECT_FALSE(perf::bit_equal({v}, {v, v}));
  EXPECT_NE(perf::digest_bits({v}), perf::digest_bits({std::nextafter(v, 1.0)}));

  perf::Checks c;
  EXPECT_TRUE(c.expect(true, "fine"));
  EXPECT_FALSE(c.expect(perf::digest(stream) == perf::digest(corrupted),
                        "digest differs"));
  EXPECT_EQ(c.attempted(), 2u);
  EXPECT_EQ(c.failed(), 1u);
  ASSERT_EQ(c.failures().size(), 1u);
  EXPECT_EQ(c.failures()[0], "digest differs");
}

}  // namespace

// Batched/async angle evaluation: expectation_batch and sample_batch
// must be BIT-identical to the serial per-point loop at every thread
// count (the determinism contract in session.h), the async path must
// agree with the serial one, and the batch objective must drive the
// optimizers' batch paths to exactly the scalar-path result.

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "mbq/api/api.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/graph/generators.h"
#include "mbq/opt/grid.h"
#include "mbq/opt/nelder_mead.h"
#include "mbq/opt/spsa.h"

namespace mbq::api {
namespace {

using qaoa::Angles;

/// Restores the build-default thread count when the test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_num_threads(0); }
};

std::vector<Angles> random_points(int count, int p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Angles> points;
  points.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) points.push_back(Angles::random(p, rng));
  return points;
}

TEST(ExpectationBatch, BitIdenticalToSerialLoopAtEveryThreadCount) {
  ThreadCountGuard guard;
  // statevector at n = 14 folds <C> over 2^14 entries with parallel_sum,
  // which a lone expectation() runs on the whole budget and a batch item
  // runs on one thread.
  Rng graph_rng(14);
  const struct {
    Workload workload;
    const char* backend;
  } inputs[] = {
      {Workload::maxcut(cycle_graph(4)), "mbqc"},
      {Workload::maxcut(random_regular_graph(14, 3, graph_rng)),
       "statevector"},
  };
  const std::vector<Angles> points = random_points(32, 1, 71);

  for (const auto& [w, backend] : inputs) {
    // The serial reference: one expectation() call per point, in order.
    std::vector<real> serial;
    {
      Session session(w, backend, {.seed = 21});
      for (const Angles& a : points) serial.push_back(session.expectation(a));
    }

    for (int threads : {1, 2, 8}) {
      set_num_threads(threads);
      Session session(w, backend, {.seed = 21});
      const std::vector<real> batch = session.expectation_batch(points);
      ASSERT_EQ(batch.size(), points.size());
      for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(batch[i], serial[i])
            << backend << " threads=" << threads << " i=" << i;
    }
    set_num_threads(0);
  }
}

TEST(ExpectationBatch, MixedDepthsAndBackendsMatchSerial) {
  ThreadCountGuard guard;
  for (const char* backend : {"statevector", "mbqc-classical", "router"}) {
    const Workload w = Workload::maxcut(path_graph(4));
    const std::vector<Angles> points = random_points(12, 2, 5);
    std::vector<real> serial;
    {
      Session session(w, backend, {.seed = 3});
      for (const Angles& a : points) serial.push_back(session.expectation(a));
    }
    set_num_threads(4);
    Session session(w, backend, {.seed = 3});
    const std::vector<real> batch = session.expectation_batch(points);
    for (std::size_t i = 0; i < points.size(); ++i)
      EXPECT_EQ(batch[i], serial[i]) << backend << " i=" << i;
  }
}

TEST(ExpectationBatch, InterleavesWithSerialCallsDeterministically) {
  // A batch advances the per-session evaluation counter by its size, so
  // serial calls after a batch continue the same stream sequence.
  const Workload w = Workload::maxcut(cycle_graph(4));
  const std::vector<Angles> points = random_points(6, 1, 13);

  Session all_serial(w, "mbqc", {.seed = 9});
  std::vector<real> expected;
  for (const Angles& a : points) expected.push_back(all_serial.expectation(a));

  Session mixed(w, "mbqc", {.seed = 9});
  const std::vector<real> head =
      mixed.expectation_batch(std::span(points).subspan(0, 4));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(head[i], expected[i]);
  EXPECT_EQ(mixed.expectation(points[4]), expected[4]);
  EXPECT_EQ(mixed.expectation(points[5]), expected[5]);
}

TEST(ExpectationBatch, DuplicatePointsShareOnePrepare) {
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.3}, {0.2});
  const Angles b({0.7}, {-0.1});
  const std::vector<Angles> points = {a, b, a, a, b};
  // The cache bookkeeping asserted below is the IN-PROCESS contract; a
  // sharded expectation_batch documentedly leaves the cache untouched,
  // so pin num_processes (MBQ_NUM_PROCESSES=2 runs this suite too).
  Session session(w, "statevector", {.num_processes = 1});
  const std::vector<real> values = session.expectation_batch(points);
  EXPECT_EQ(session.cache_misses(), 2u);  // a, b prepared once each
  EXPECT_EQ(session.cache_hits(), 3u);    // the three duplicates
  EXPECT_EQ(values[0], values[2]);
  EXPECT_EQ(values[0], values[3]);
  EXPECT_EQ(values[1], values[4]);
}

TEST(ExpectationBatch, EmptyBatchIsANoOp) {
  Session session(Workload::maxcut(cycle_graph(3)), "statevector");
  EXPECT_TRUE(session.expectation_batch({}).empty());
  EXPECT_TRUE(session.sample_batch({}, 8).empty());
  EXPECT_EQ(session.cache_entries(), 0u);
}

TEST(ExpectationBatch, UnsupportedPointThrowsLikeSerialLoop) {
  const Workload w = Workload::maxcut(cycle_graph(4));
  // In-process cache bookkeeping assertions: pin num_processes.
  Session session(w, "clifford", {.num_processes = 1});
  const std::vector<Angles> points = {Angles({kPi / 2}, {kPi / 4}),
                                      Angles({0.37}, {0.21})};
  EXPECT_THROW(session.expectation_batch(points), Error);
  // Points before the failure are cached and counted, as in the serial
  // loop; the rejected point never touches the cache.
  EXPECT_EQ(session.cache_entries(), 1u);
  EXPECT_EQ(session.cache_misses(), 1u);
  session.expectation(points[0]);
  EXPECT_EQ(session.cache_hits(), 1u);
}

TEST(SampleBatch, BitIdenticalToSerialCallsAtEveryThreadCount) {
  ThreadCountGuard guard;
  const Workload w = Workload::maxcut(cycle_graph(4));
  const std::vector<Angles> points = random_points(4, 1, 77);
  const int shots = 16;

  std::vector<SampleResult> serial;
  {
    Session session(w, "mbqc", {.seed = 55});
    for (const Angles& a : points) serial.push_back(session.sample(a, shots));
  }

  for (int threads : {1, 2, 8}) {
    set_num_threads(threads);
    Session session(w, "mbqc", {.seed = 55});
    const std::vector<SampleResult> batch = session.sample_batch(points, shots);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(batch[i].shots.size(), serial[i].shots.size());
      for (std::size_t s = 0; s < batch[i].shots.size(); ++s) {
        EXPECT_EQ(batch[i].shots[s].x, serial[i].shots[s].x)
            << "threads=" << threads << " point=" << i << " shot=" << s;
        EXPECT_EQ(batch[i].shots[s].cost, serial[i].shots[s].cost);
      }
    }
  }
}

TEST(SampleBatch, AdvancesTheSampleCallCounter) {
  const Workload w = Workload::maxcut(cycle_graph(4));
  const std::vector<Angles> points = random_points(3, 1, 31);

  Session serial(w, "mbqc", {.seed = 8});
  for (const Angles& a : points) serial.sample(a, 8);
  const SampleResult after_serial = serial.sample(points[0], 8);

  Session batched(w, "mbqc", {.seed = 8});
  batched.sample_batch(points, 8);
  const SampleResult after_batch = batched.sample(points[0], 8);
  for (std::size_t s = 0; s < after_serial.shots.size(); ++s)
    EXPECT_EQ(after_batch.shots[s].x, after_serial.shots[s].x);
}

TEST(ExpectationAsync, InterleavingWithBatchesKeepsSerialEquivalence) {
  // Session's stream bookkeeping (expectation_calls_) advances on the
  // CALLING thread before any entry point returns — expectation_async
  // assigns its stream index at submission, not when the future
  // resolves.  Point k in SUBMISSION order therefore always draws
  // stream kExpectationStreamBase + k, whatever mix of async, batch and
  // scalar calls carried it and however the futures are interleaved.
  // This had no coverage: a bookkeeping scheme that touched the counter
  // inside the future would pass the all-async and all-batch tests and
  // still break this one.
  const Workload w = Workload::maxcut(cycle_graph(4));
  const std::vector<Angles> points = random_points(8, 1, 23);

  Session all_serial(w, "mbqc", {.seed = 77});
  std::vector<real> expected;
  for (const Angles& a : points) expected.push_back(all_serial.expectation(a));

  Session mixed(w, "mbqc", {.seed = 77});
  // Submission order 0..7: async, batch of 4, async, scalar, batch of 1
  // — with both futures left pending across the calls that follow them.
  auto f0 = mixed.expectation_async(points[0]);
  const std::vector<real> mid =
      mixed.expectation_batch(std::span(points).subspan(1, 4));
  auto f5 = mixed.expectation_async(points[5]);
  const real v6 = mixed.expectation(points[6]);
  const std::vector<real> tail =
      mixed.expectation_batch(std::span(points).subspan(7, 1));

  EXPECT_EQ(f0.get(), expected[0]);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(mid[i], expected[1 + i]) << i;
  EXPECT_EQ(f5.get(), expected[5]);
  EXPECT_EQ(v6, expected[6]);
  EXPECT_EQ(tail[0], expected[7]);
}

TEST(ExpectationAsync, AgreesWithSerialAndOverlaps) {
  const Workload w = Workload::maxcut(cycle_graph(4));
  const std::vector<Angles> points = random_points(5, 1, 41);

  std::vector<real> serial;
  {
    Session session(w, "mbqc", {.seed = 17});
    for (const Angles& a : points) serial.push_back(session.expectation(a));
  }

  Session session(w, "mbqc", {.seed = 17});
  std::vector<std::future<real>> pending;
  pending.reserve(points.size());
  for (const Angles& a : points) pending.push_back(session.expectation_async(a));
  for (std::size_t i = 0; i < pending.size(); ++i)
    EXPECT_EQ(pending[i].get(), serial[i]) << i;
}

TEST(BatchObjective, DrivesOptimizersToTheScalarPathResult) {
  const Workload w = Workload::maxcut(cycle_graph(4));

  opt::NelderMeadOptions nm;
  nm.max_evaluations = 200;
  Session scalar_session(w, "statevector");
  Rng rng1(5);
  const opt::OptResult scalar =
      opt::nelder_mead(scalar_session.objective(), {0.3, 0.2}, nm, rng1);

  Session batch_session(w, "statevector");
  Rng rng2(5);
  const opt::OptResult batch =
      opt::nelder_mead(batch_session.batch_objective(), {0.3, 0.2}, nm, rng2);

  EXPECT_EQ(batch.value, scalar.value);
  EXPECT_EQ(batch.evaluations, scalar.evaluations);
  ASSERT_EQ(batch.x.size(), scalar.x.size());
  for (std::size_t d = 0; d < batch.x.size(); ++d)
    EXPECT_EQ(batch.x[d], scalar.x[d]);

  // Grid search through the same batch objective: identical optimum.
  Session g1(w, "statevector");
  Session g2(w, "statevector");
  const opt::OptResult grid_scalar =
      opt::grid_search(g1.objective(), {{0, 1, 6}, {0, 1, 6}});
  const opt::OptResult grid_batch =
      opt::grid_search(g2.batch_objective(), {{0, 1, 6}, {0, 1, 6}}, 7);
  EXPECT_EQ(grid_batch.value, grid_scalar.value);
  EXPECT_EQ(grid_batch.x, grid_scalar.x);
  EXPECT_EQ(grid_batch.evaluations, grid_scalar.evaluations);
}

TEST(Router, BatchRoutesPerPointWithinOneBatch) {
  // One batch holding a Clifford point and a generic point: the router
  // must route them to different adapters and still return values
  // identical to the per-point serial loop.
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles clifford_point({kPi / 2}, {kPi / 4});
  const Angles generic_point({0.37}, {0.21});
  const std::vector<Angles> points = {clifford_point, generic_point};

  std::vector<real> serial;
  {
    Session session(w, "router", {.seed = 2});
    for (const Angles& a : points) serial.push_back(session.expectation(a));
  }
  Session session(w, "router", {.seed = 2});
  const std::vector<real> batch = session.expectation_batch(points);
  EXPECT_EQ(batch[0], serial[0]);
  EXPECT_EQ(batch[1], serial[1]);

  RouterBackend router;
  EXPECT_EQ(router.route(w, clifford_point).backend_name, "clifford");
  EXPECT_EQ(router.route(w, generic_point).backend_name, "zx");
}

}  // namespace
}  // namespace mbq::api

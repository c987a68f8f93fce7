// Compiled pattern executor: exhaustive forced-branch equivalence with
// the enumeration wrapper and the interpreted reference on every pattern
// shape the repo generates, bit-identical sampled outcome streams, the
// forced-run/noise foot-gun, and arena-reuse determinism.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc_counter.h"
#include "mbq/api/api.h"
#include "mbq/common/bits.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/core/compiler.h"
#include "mbq/graph/generators.h"
#include "mbq/mbqc/compiled.h"
#include "mbq/mbqc/runner.h"
#include "mbq/qaoa/qaoa.h"

// This binary links alloc_counter.cpp, whose global operator new counts
// every allocation: the zero-steady-state-allocation contracts of the
// shot and expectation loops are tested invariants, not comments.

namespace mbq::mbqc {
namespace {

using test::allocation_count;

struct Shape {
  std::string name;
  Pattern pattern;
};

Pattern j_pattern(real alpha) {
  Pattern p;
  p.add_prep(0);
  p.add_prep(1);
  p.add_entangle(0, 1);
  const signal_t m = p.add_measure(0, MeasBasis::XY, -alpha);
  p.add_correct_x(1, SignalExpr(m));
  p.set_outputs({1});
  return p;
}

Pattern zz_gadget(real theta) {
  Pattern p;
  p.add_prep(0);
  p.add_prep(1);
  p.add_prep(2);
  p.add_entangle(0, 2);
  p.add_entangle(1, 2);
  const signal_t m = p.add_measure(2, MeasBasis::YZ, theta);
  p.add_correct_z(0, SignalExpr(m));
  p.add_correct_z(1, SignalExpr(m));
  p.set_outputs({0, 1});
  return p;
}

/// One compiled QAOA pattern per graph generator family (p = 1 keeps the
/// measurement count within exhaustive-enumeration range), plus the
/// hand-built gadget shapes the runner tests use.
std::vector<Shape> shape_patterns() {
  Rng rng(7);
  const qaoa::Angles a = qaoa::Angles::random(1, rng);
  std::vector<Shape> shapes;
  auto add_qaoa = [&](const std::string& name, const Graph& g) {
    const auto cost = qaoa::CostHamiltonian::maxcut(g);
    shapes.push_back({name, core::compile_qaoa(cost, a).pattern});
  };
  add_qaoa("path4", path_graph(4));
  add_qaoa("cycle4", cycle_graph(4));
  add_qaoa("complete3", complete_graph(3));
  add_qaoa("star4", star_graph(4));
  add_qaoa("grid2x2", grid_graph(2, 2));
  add_qaoa("bipartite22", complete_bipartite_graph(2, 2));
  add_qaoa("gnm44", random_gnm_graph(4, 4, rng));
  shapes.push_back({"j", j_pattern(0.71)});
  shapes.push_back({"zz", zz_gadget(0.77)});
  return shapes;
}

void expect_same_result(const RunResult& want, const RunResult& got,
                        const std::string& context) {
  ASSERT_EQ(want.outcomes, got.outcomes) << context;
  EXPECT_EQ(want.peak_live, got.peak_live) << context;
  ASSERT_EQ(want.output_state.size(), got.output_state.size()) << context;
  for (std::size_t i = 0; i < want.output_state.size(); ++i)
    ASSERT_LT(std::abs(want.output_state[i] - got.output_state[i]), 1e-12)
        << context << " amplitude " << i;
  EXPECT_EQ(want.pending_x, got.pending_x) << context;
  EXPECT_EQ(want.pending_z, got.pending_z) << context;
}

TEST(CompiledPattern, ForcedBranchEquivalenceAcrossShapes) {
  for (const Shape& shape : shape_patterns()) {
    const Pattern& p = shape.pattern;
    const int m = p.num_measurements();
    ASSERT_LE(m, 12) << shape.name << " outgrew exhaustive enumeration";
    const auto branches = run_all_branches(p, 12);
    ASSERT_EQ(branches.size(), std::size_t{1} << m) << shape.name;

    PatternExecutor executor(std::make_shared<const CompiledPattern>(p));
    Rng unused(0);
    for (std::uint64_t b = 0; b < branches.size(); ++b) {
      // Exercise a few full comparisons per shape and spot-check the
      // rest on outcomes (the state comparison is the expensive part).
      const RunResult forced = executor.run_forced(b);
      ASSERT_EQ(branches[b].outcomes, forced.outcomes)
          << shape.name << " branch " << b;
      if (b % 17 != 0) continue;
      expect_same_result(branches[b], forced,
                         shape.name + " branch " + std::to_string(b));
      // Differential against the interpreted reference.
      RunOptions opt;
      opt.forced.resize(m);
      for (int i = 0; i < m; ++i) opt.forced[i] = get_bit(b, i);
      expect_same_result(run_interpreted(p, unused, opt), forced,
                         shape.name + " vs interpreter, branch " +
                             std::to_string(b));
    }
  }
}

TEST(CompiledPattern, SampledStreamsBitIdenticalToInterpreter) {
  Rng setup(11);
  const Graph g = random_gnm_graph(5, 6, setup);
  const auto cost = qaoa::CostHamiltonian::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(2, setup);
  const Pattern p = core::compile_qaoa(cost, a).pattern;

  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    Rng interpreted_rng(seed);
    Rng compiled_rng(seed);
    PatternExecutor executor(std::make_shared<const CompiledPattern>(p));
    for (int rep = 0; rep < 16; ++rep) {
      const RunResult want = run_interpreted(p, interpreted_rng);
      const RunResult got = executor.run(compiled_rng);
      ASSERT_EQ(want.outcomes, got.outcomes)
          << "seed " << seed << " rep " << rep;
      ASSERT_EQ(want.output_state, got.output_state)
          << "seed " << seed << " rep " << rep;
      EXPECT_EQ(want.peak_live, got.peak_live);
    }
  }
}

TEST(CompiledPattern, SampledStreamsBitIdenticalWithNoise) {
  const Pattern p = zz_gadget(1.23);
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    Rng interpreted_rng(seed);
    Rng compiled_rng(seed);
    RunOptions opt;
    opt.entangler_noise = 0.35;
    ExecOptions exec;
    exec.entangler_noise = 0.35;
    PatternExecutor executor(std::make_shared<const CompiledPattern>(p), exec);
    for (int rep = 0; rep < 64; ++rep) {
      const RunResult want = run_interpreted(p, interpreted_rng, opt);
      const RunResult got = executor.run(compiled_rng);
      ASSERT_EQ(want.outcomes, got.outcomes)
          << "seed " << seed << " rep " << rep;
      ASSERT_EQ(want.output_state, got.output_state)
          << "seed " << seed << " rep " << rep;
    }
  }
}

TEST(CompiledPattern, SessionSamplingInvariantAcrossThreadCounts) {
  Rng setup(5);
  const Graph g = random_gnm_graph(6, 8, setup);
  const api::Workload workload = api::Workload::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(2, setup);

  for (const std::string backend : {"mbqc", "mbqc-classical"}) {
    std::vector<std::vector<std::uint64_t>> per_thread_count;
    for (const int threads : {1, 2, 8}) {
      set_num_threads(threads);
      api::Session session(workload, backend, {.seed = 99});
      const api::SampleResult r = session.sample(a, 96);
      std::vector<std::uint64_t> xs;
      xs.reserve(r.shots.size());
      for (const api::Shot& s : r.shots) xs.push_back(s.x);
      per_thread_count.push_back(std::move(xs));
    }
    set_num_threads(0);
    ASSERT_EQ(per_thread_count[0], per_thread_count[1]) << backend;
    ASSERT_EQ(per_thread_count[0], per_thread_count[2]) << backend;
  }
}

TEST(CompiledPattern, ForcedRunsRejectEntanglerNoise) {
  const Pattern p = j_pattern(0.3);
  ExecOptions noisy;
  noisy.entangler_noise = 0.1;
  PatternExecutor executor(std::make_shared<const CompiledPattern>(p), noisy);
  // Sampling with noise is fine...
  Rng rng(1);
  EXPECT_NO_THROW(executor.run(rng));
  // ...forcing a branch under noise is the foot-gun and must throw.
  EXPECT_THROW(executor.run_forced(std::uint64_t{0}), Error);
  EXPECT_THROW(executor.run_forced(std::vector<int>{0}), Error);

  // Same guard on the enumeration wrapper's base options.
  RunOptions base;
  base.entangler_noise = 0.1;
  EXPECT_THROW(run_all_branches(p, 12, base), Error);
  RunOptions forced_base;
  forced_base.forced = {0};
  EXPECT_THROW(run_all_branches(p, 12, forced_base), Error);
  // run() keeps the historical check for the combined options.
  RunOptions both;
  both.forced = {0};
  both.entangler_noise = 0.1;
  EXPECT_THROW(run(p, rng, both), Error);
}

TEST(CompiledPattern, ForcedSizeAndRangeChecked) {
  const Pattern p = j_pattern(0.4);
  PatternExecutor executor(std::make_shared<const CompiledPattern>(p));
  EXPECT_THROW(executor.run_forced(std::vector<int>{0, 1}), Error);
  EXPECT_THROW(executor.run_forced(std::vector<int>{2}), Error);
  EXPECT_NO_THROW(executor.run_forced(std::vector<int>{1}));
}

TEST(CompiledPattern, RunSampleMatchesGatheredReadout) {
  Rng setup(21);
  const Graph g = random_gnm_graph(5, 7, setup);
  const auto cost = qaoa::CostHamiltonian::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(2, setup);
  const Pattern p = core::compile_qaoa(cost, a).pattern;
  auto compiled = std::make_shared<const CompiledPattern>(p);

  // run_sample must be bit-identical to run() followed by the cumulative
  // walk over the gathered output_state (the readout MbqcBackend used to
  // perform on the copy).
  PatternExecutor reference(compiled);
  PatternExecutor sampled(compiled);
  Rng r1(7), r2(7);
  for (int rep = 0; rep < 64; ++rep) {
    const RunResult want = reference.run(r1);
    real u = r1.uniform();
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < want.output_state.size(); ++i) {
      u -= std::norm(want.output_state[i]);
      if (u <= 0.0) {
        x = i;
        break;
      }
      if (i + 1 == want.output_state.size()) x = i;
    }
    const PatternExecutor::SampledShot got = sampled.run_sample(r2);
    ASSERT_EQ(x, got.x) << "rep " << rep;
    ASSERT_EQ(want.outcomes, sampled.last_outcomes()) << "rep " << rep;
    EXPECT_EQ(want.peak_live, got.peak_live);
  }
}

TEST(CompiledPattern, ArenaReuseIsDeterministic) {
  Rng setup(3);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(5));
  const qaoa::Angles a = qaoa::Angles::random(1, setup);
  const Pattern p = core::compile_qaoa(cost, a).pattern;
  auto compiled = std::make_shared<const CompiledPattern>(p);

  // The same executor re-run from an equal seed replays the identical
  // trajectory: reset-in-place leaks no state between runs.
  PatternExecutor reused(compiled);
  Rng r1(17), r2(17);
  std::vector<RunResult> first, second;
  for (int i = 0; i < 8; ++i) first.push_back(reused.run(r1));
  for (int i = 0; i < 8; ++i) second.push_back(reused.run(r2));
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(first[i].outcomes, second[i].outcomes) << i;
    ASSERT_EQ(first[i].output_state, second[i].output_state) << i;
    ASSERT_EQ(first[i].peak_live, second[i].peak_live) << i;
  }
  // And matches a fresh executor per run.
  Rng r3(17);
  for (int i = 0; i < 8; ++i) {
    PatternExecutor fresh(compiled);
    const RunResult got = fresh.run(r3);
    ASSERT_EQ(first[i].outcomes, got.outcomes) << i;
    ASSERT_EQ(first[i].output_state, got.output_state) << i;
  }
}

TEST(CompiledPattern, InputStatesAndPendingByproducts) {
  // Input wires keep their caller-facing ids (the executor renames wires
  // to dense slots internally), and skipped corrections report pending
  // byproducts keyed by the ORIGINAL wire ids.
  Pattern p;
  p.add_input(5);
  p.add_prep(9);
  p.add_entangle(5, 9);
  const signal_t m = p.add_measure(5, MeasBasis::XY, -0.33);
  p.add_correct_x(9, SignalExpr(m));
  p.set_outputs({9});

  RunOptions opt;
  opt.apply_corrections = false;
  opt.input_states[5] = {cplx{0.6, 0.0}, cplx{0.0, 0.8}};
  opt.forced = {1};
  Rng unused(2);
  const RunResult want = run_interpreted(p, unused, opt);

  ExecOptions exec;
  exec.apply_corrections = false;
  exec.input_states = opt.input_states;
  PatternExecutor executor(std::make_shared<const CompiledPattern>(p), exec);
  const RunResult got = executor.run_forced(std::uint64_t{1});
  ASSERT_EQ(want.outcomes, got.outcomes);
  ASSERT_EQ(want.output_state, got.output_state);
  EXPECT_EQ(got.pending_x.at(9), 1);
  EXPECT_EQ(want.pending_x, got.pending_x);
  EXPECT_EQ(want.pending_z, got.pending_z);
}

TEST(CompiledPattern, LoweringStatistics) {
  const Pattern p = zz_gadget(0.5);
  const CompiledPattern compiled(p);
  EXPECT_EQ(compiled.num_measurements(), 1);
  EXPECT_EQ(compiled.num_slots(), 3);
  // Fusion merges the gadget block (N;E;E;M -> one op) and the terminal
  // correction pair: 8 source commands lower to 4 tape ops.
  EXPECT_LE(compiled.num_ops(), static_cast<int>(p.commands().size()));
  EXPECT_EQ(compiled.num_ops(), 4);
  EXPECT_EQ(compiled.output_wires(), p.outputs());
  // Invalid patterns are rejected at compile time, not per run.
  Pattern bad;
  bad.add_entangle(0, 1);  // wires never prepared
  bad.set_outputs({});
  EXPECT_THROW(CompiledPattern{bad}, Error);
}

TEST(CompiledPattern, SteadyStateShotLoopAllocatesNothing) {
  // The executor's documented contract: once the arena, the outcome
  // buffer and the cached readout gather table have reached their
  // steady-state capacity, run_sample performs ZERO heap allocations
  // per shot.  This regression test is what caught the per-call
  // state_in_order/sample_in_order table builds.
  Rng rng(31);
  const qaoa::Angles angles = qaoa::Angles::random(2, rng);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(8));
  const auto compiled = std::make_shared<const CompiledPattern>(
      core::compile_qaoa(cost, angles).pattern);
  PatternExecutor exec(compiled);
  for (int shot = 0; shot < 5; ++shot) exec.run_sample(rng);  // warm up
  const std::uint64_t before = allocation_count();
  std::uint64_t sink = 0;
  for (int shot = 0; shot < 50; ++shot) sink ^= exec.run_sample(rng).x;
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "sink " << sink;
}

TEST(CompiledPattern, SteadyStateShotLoopAllocatesNothingWithThreads) {
  // Same contract with a two-thread budget: threads must not cost the
  // shot loop its zero-allocation property.
  struct ThreadGuard {
    int saved = num_threads();
    ~ThreadGuard() { set_num_threads(saved); }
  } guard;
  set_num_threads(2);
  Rng rng(31);
  const qaoa::Angles angles = qaoa::Angles::random(2, rng);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(6));
  const auto compiled = std::make_shared<const CompiledPattern>(
      core::compile_qaoa(cost, angles).pattern);
  PatternExecutor exec(compiled);
  for (int shot = 0; shot < 5; ++shot) exec.run_sample(rng);  // warm up
  const std::uint64_t before = allocation_count();
  std::uint64_t sink = 0;
  for (int shot = 0; shot < 50; ++shot) sink ^= exec.run_sample(rng).x;
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "sink " << sink;
}

TEST(CompiledPattern, SteadyStateExpectationLoopAllocatesNothing) {
  // MbqcBackend::expectation folds <C> straight from the executor's
  // arena through the cached gather table.  Once the arena, the outcome
  // buffer, the table, the chunk-partial slots and the workload's cost
  // table exist, an evaluation performs ZERO heap allocations: at f64
  // and f32, at 1 and 4 threads, and with the register above the chunk
  // cutoff (C14: 2^14-amplitude gadgets, a 15-wire peak).
  struct ThreadGuard {
    int saved = num_threads();
    ~ThreadGuard() { set_num_threads(saved); }
  } guard;
  Rng rng(41);
  const qaoa::Angles angles = qaoa::Angles::random(1, rng);
  const auto backend = api::BackendRegistry::instance().create("mbqc");
  for (const Precision prec : {Precision::F64, Precision::F32}) {
    api::Workload w = api::Workload::maxcut(cycle_graph(14));
    w.with_precision(prec);
    const auto prep = backend->prepare(w, angles);
    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      for (int i = 0; i < 2; ++i)
        backend->expectation(w, angles, rng, prep.get());  // warm up
      const std::uint64_t before = allocation_count();
      real sink = 0.0;
      for (int i = 0; i < 3; ++i)
        sink += backend->expectation(w, angles, rng, prep.get());
      EXPECT_EQ(allocation_count() - before, 0u)
          << precision_name(prec) << " threads " << threads << " sink "
          << sink;
    }
  }
}

TEST(CompiledPattern, ChunkedThreadedSweepsAllocateNothingInSteadyState) {
  // The chunked drivers themselves: a 15-wire register (2^15 amps, above
  // the chunk cutoff) driven through in-place sweeps and re-folds with
  // two kernel threads.  The chunk-partial slots grow on first use —
  // warmed up before the counted region — after which a steady-state
  // pass performs ZERO heap allocations.  (OpenMP-runtime internals use
  // malloc, not operator new, and are deliberately outside this
  // counter; the contract here is about OUR per-sweep buffers.)
  struct ThreadGuard {
    int saved = num_threads();
    ~ThreadGuard() { set_num_threads(saved); }
  } guard;
  set_num_threads(2);
  DynamicStatevector dsv;
  for (int w = 0; w < 15; ++w) dsv.add_wire(w);
  const std::uint64_t masks[2] = {0b11, (std::uint64_t{1} << 14) | 0b100};
  auto sweep = [&] {
    dsv.apply_cz_masks(masks, 2);
    dsv.apply_rz(4, 0.37);
    dsv.apply_pauli_masks(std::uint64_t{1} << 3, std::uint64_t{1} << 9,
                          false);
    dsv.normalize();  // full chunked fold + scale
  };
  sweep();
  sweep();  // warm up the chunk-partial slots
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 8; ++i) sweep();
  EXPECT_EQ(allocation_count() - before, 0u);
}

}  // namespace
}  // namespace mbq::mbqc

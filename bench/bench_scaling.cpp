// E13 — HPC scaling microbenchmarks (Google Benchmark): statevector gate
// kernels, fast QAOA layers, pattern execution, and the stabilizer
// backend, as functions of problem size.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "mbq/api/api.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/core/compiler.h"
#include "mbq/graph/generators.h"
#include "mbq/mbqc/clifford_runner.h"
#include "mbq/mbqc/compiled.h"
#include "mbq/mbqc/runner.h"
#include "mbq/qaoa/qaoa.h"
#include "mbq/sim/collapse_kernels.h"
#include "mbq/stab/tableau.h"

namespace {

using namespace mbq;

void BM_Statevector1QGate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Statevector sv = Statevector::all_plus(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_h(q);
    q = (q + 1) % n;
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * (1LL << n));
}
BENCHMARK(BM_Statevector1QGate)->DenseRange(10, 22, 4);

void BM_StatevectorCz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Statevector sv = Statevector::all_plus(n);
  int q = 0;
  for (auto _ : state) {
    sv.apply_cz(q, (q + 1) % n);
    q = (q + 1) % n;
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * (1LL << n));
}
BENCHMARK(BM_StatevectorCz)->DenseRange(10, 22, 4);

void BM_QaoaLayerFastPath(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Graph g = random_regular_graph(n, 3, rng);
  const auto cost = qaoa::CostHamiltonian::maxcut(g);
  const auto table = cost.cost_table();
  Statevector sv = Statevector::all_plus(n);
  for (auto _ : state) {
    sv.apply_phase_of_cost(0.4, table);
    sv.apply_mixer_layer(0.3);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() * (1LL << n));
}
BENCHMARK(BM_QaoaLayerFastPath)->DenseRange(10, 18, 4);

void BM_PatternCompile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const Graph g = random_regular_graph(n, 3, rng);
  const auto cost = qaoa::CostHamiltonian::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(4, rng);
  for (auto _ : state) {
    auto cp = core::compile_qaoa(cost, a);
    benchmark::DoNotOptimize(cp.pattern.num_wires());
  }
}
BENCHMARK(BM_PatternCompile)->DenseRange(8, 60, 26);

// Interpreted vs compiled execution of the same p=2 MaxCut pattern:
// items/sec IS shots/sec, so the compiled speedup reads directly off the
// two rows.  The interpreted row pays per-shot validation, command-list
// walking and basis construction; the compiled row replays the lowered
// op tape on one reused arena whose fused gadget/teleport kernels never
// materialize the doubled register.  (Outcome streams are bit-identical
// — test_compiled_pattern asserts it; the table below only times it.)
void BM_PatternRunInterpreted(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const Graph g = cycle_graph(n);
  const auto cost = qaoa::CostHamiltonian::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(2, rng);
  const auto cp = core::compile_qaoa(cost, a);
  Rng run_rng(4);
  for (auto _ : state) {
    auto r = mbqc::run_interpreted(cp.pattern, run_rng);
    benchmark::DoNotOptimize(r.output_state.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternRunInterpreted)->Arg(6)->Arg(10)->Arg(12)->Arg(14);

void BM_PatternRunCompiled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const Graph g = cycle_graph(n);
  const auto cost = qaoa::CostHamiltonian::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(2, rng);
  const auto cp = core::compile_qaoa(cost, a);
  mbqc::PatternExecutor executor(
      std::make_shared<const mbqc::CompiledPattern>(cp.pattern));
  Rng run_rng(4);
  for (auto _ : state) {
    auto r = executor.run(run_rng);
    benchmark::DoNotOptimize(r.output_state.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternRunCompiled)->Arg(6)->Arg(10)->Arg(12)->Arg(14);

// The shots/sec-vs-n perf wall for the runtime-dispatched collapse
// kernels: identical p=2 cycle-graph MaxCut sampling, once forced onto
// the scalar reference kernels and once on the best vector flavor this
// host can run (the auto-dispatch choice).  items/sec IS shots/sec and
// the time column is ms/shot — the ROADMAP tracking numbers at n = 14
// and 16 read straight off the two rows.  Every row first replays a
// short differential leg and SkipWithError's on any bitwise divergence,
// so the wall can never report a speedup the kernel contract would not
// back with identical outcome streams.  Run
//   --benchmark_filter=PatternSample
//       --benchmark_out=BENCH_simd_kernels.json
// to produce the artifact CI uploads from both matrix legs.
SimdIsa best_vector_isa() {
  const auto isas = supported_simd_isas();
  for (SimdIsa want : {SimdIsa::Avx512, SimdIsa::Avx2, SimdIsa::Neon})
    for (SimdIsa have : isas)
      if (have == want) return want;
  return SimdIsa::Scalar;
}

void pattern_sample_isa(benchmark::State& state, SimdIsa isa) {
  const SimdIsa orig = active_simd_isa();
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(n));
  const qaoa::Angles a = qaoa::Angles::random(2, rng);
  const auto compiled = std::make_shared<const mbqc::CompiledPattern>(
      core::compile_qaoa(cost, a).pattern);

  auto stream = [&](SimdIsa leg) {
    force_simd_isa(leg);
    mbqc::PatternExecutor exec(compiled);
    Rng leg_rng(17);
    std::vector<std::uint64_t> xs;
    for (int shot = 0; shot < 8; ++shot)
      xs.push_back(exec.run_sample(leg_rng).x);
    return xs;
  };
  const bool identical = stream(SimdIsa::Scalar) == stream(isa);
  if (!identical) {
    force_simd_isa(orig);
    state.SkipWithError("scalar vs vector sampled streams diverged");
    return;
  }

  force_simd_isa(isa);
  mbqc::PatternExecutor exec(compiled);
  Rng run_rng(4);
  for (auto _ : state) {
    auto s = exec.run_sample(run_rng);
    benchmark::DoNotOptimize(s.x);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(isa_name(isa));
  force_simd_isa(orig);
}

void BM_PatternSampleScalar(benchmark::State& state) {
  pattern_sample_isa(state, SimdIsa::Scalar);
}
BENCHMARK(BM_PatternSampleScalar)
    ->Arg(10)->Arg(12)->Arg(14)->Arg(16)
    ->Repetitions(3)->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

void BM_PatternSampleSimd(benchmark::State& state) {
  pattern_sample_isa(state, best_vector_isa());
}
BENCHMARK(BM_PatternSampleSimd)
    ->Arg(10)->Arg(12)->Arg(14)->Arg(16)
    ->Repetitions(3)->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

// The large-n wall: the same shots/sec-vs-n table pushed to n = 18..24
// (peak register 2^19..2^25 amplitudes — every sweep above the 2^14
// chunk cutoff runs the chunked drivers), with a threaded row and an
// f32-storage row next to the single-threaded f64 baseline.  Every row
// first replays a short differential leg against the scalar
// single-threaded kernels AT ITS OWN precision and SkipWithError's on
// any divergence — f64 rows must be bit-identical to scalar/1-thread,
// f32 rows must be bit-identical to the scalar/1-thread f32 leg (f32 is
// deterministic within its precision; it is NOT comparable to f64).
//
// Threading on a 1-vCPU box is within noise by construction — the
// honest signal there is the n-scaling SLOPE of the blocked drivers
// (ms/shot growing ~2x per +1 wire instead of the >2x DRAM-bound
// slope), not the threaded/single ratio.  Run
//   --benchmark_filter='LargeNSample.*/(18|20|22|24)'
// for the full wall (minutes at n = 24), or restrict to /(18|20) for a
// bounded CI pass.
void large_n_sample(benchmark::State& state, SimdIsa isa, int threads,
                    Precision prec) {
  const SimdIsa orig = active_simd_isa();
  const int orig_threads = num_threads();
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(n));
  const qaoa::Angles a = qaoa::Angles::random(2, rng);
  const auto compiled = std::make_shared<const mbqc::CompiledPattern>(
      core::compile_qaoa(cost, a).pattern);
  mbqc::ExecOptions opts;
  opts.precision = prec;

  auto stream = [&](SimdIsa leg, int t) {
    force_simd_isa(leg);
    set_num_threads(t);
    mbqc::PatternExecutor exec(compiled, opts);
    Rng leg_rng(17);
    std::vector<std::uint64_t> xs;
    for (int shot = 0; shot < 2; ++shot)
      xs.push_back(exec.run_sample(leg_rng).x);
    return xs;
  };
  const bool identical = stream(SimdIsa::Scalar, 1) == stream(isa, threads);
  if (!identical) {
    force_simd_isa(orig);
    set_num_threads(orig_threads);
    state.SkipWithError(
        "sampled streams diverged from the scalar single-threaded leg");
    return;
  }

  force_simd_isa(isa);
  set_num_threads(threads);
  mbqc::PatternExecutor exec(compiled, opts);
  Rng run_rng(4);
  for (auto _ : state) {
    auto s = exec.run_sample(run_rng);
    benchmark::DoNotOptimize(s.x);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["kernel_threads"] = threads;
  state.SetLabel(std::string(isa_name(isa)) + "/" + precision_name(prec));
  force_simd_isa(orig);
  set_num_threads(orig_threads);
}

void BM_LargeNSampleSimd(benchmark::State& state) {
  large_n_sample(state, best_vector_isa(), 1, Precision::F64);
}
BENCHMARK(BM_LargeNSampleSimd)
    ->Arg(18)->Arg(20)->Arg(22)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_LargeNSampleThreaded(benchmark::State& state) {
  large_n_sample(state, best_vector_isa(), 2, Precision::F64);
}
BENCHMARK(BM_LargeNSampleThreaded)
    ->Arg(18)->Arg(20)->Arg(22)->Arg(24)
    ->UseRealTime()  // the threaded row burns CPU on >1 thread
    ->Unit(benchmark::kMillisecond);

void BM_LargeNSampleF32(benchmark::State& state) {
  large_n_sample(state, best_vector_isa(), 1, Precision::F32);
}
BENCHMARK(BM_LargeNSampleF32)
    ->Arg(18)->Arg(20)->Arg(22)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_PatternRunClifford(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = cycle_graph(n);
  const auto cost = qaoa::CostHamiltonian::maxcut(g);
  const qaoa::Angles a({kPi / 2}, {kPi / 4});
  const auto cp = core::compile_qaoa(cost, a);
  Rng rng(5);
  for (auto _ : state) {
    auto r = mbqc::run_clifford(cp.pattern, rng);
    benchmark::DoNotOptimize(r.outcomes.data());
  }
}
BENCHMARK(BM_PatternRunClifford)->DenseRange(16, 60, 22);

// Process-sharded Session sampling: shots/sec at 1 vs N worker
// processes on the p=2 MaxCut workload (items/sec IS shots/sec).  The
// 1-process row is the in-process path; rows with processes >= 2 fan
// contiguous shot slices out to mbq_worker children that split the
// process's thread budget between them (outcome streams are
// bit-identical across ALL rows — test_shard asserts it; this table
// only times the fan-out).  Speedup tracks the physical core count: on
// a 1-core box the sharded rows only measure protocol overhead.  Run
// with
//   --benchmark_filter=SessionSampleProcesses
//       --benchmark_out=BENCH_shard_scaling.json
// to produce the shard-scaling artifact CI uploads.
void BM_SessionSampleProcesses(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int processes = static_cast<int>(state.range(1));
  Rng rng(3);
  const Graph g = cycle_graph(n);
  const api::Workload w = api::Workload::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(2, rng);

  api::SessionOptions options;
  options.seed = 9;
  options.num_processes = processes;
  api::Session session(w, "mbqc", options);
  const int shots = 32;
  // Warm up outside the timed loop: compile/cache the pattern and (for
  // sharded rows) spawn the worker pool.
  session.sample(a, shots);
  if (processes > 1 && session.shard_workers() != processes)
    state.SkipWithError("worker pool did not spawn (mbq_worker missing?)");

  for (auto _ : state) {
    const api::SampleResult r = session.sample(a, shots);
    benchmark::DoNotOptimize(r.shots.data());
  }
  state.SetItemsProcessed(state.iterations() * shots);
  state.counters["processes"] = processes;
  state.counters["threads_inproc"] = num_threads();
}
BENCHMARK(BM_SessionSampleProcesses)
    ->Args({12, 1})
    ->Args({12, 2})
    ->Args({12, 4})
    ->Args({14, 1})
    ->Args({14, 2})
    ->Args({14, 4})
    // Wall clock, not parent CPU: the sharded rows burn their cycles in
    // the worker processes, which process CPU time never sees.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GraphStateTableau(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = cycle_graph(n);
  for (auto _ : state) {
    Tableau t = Tableau::graph_state(g);
    benchmark::DoNotOptimize(&t);
  }
}
BENCHMARK(BM_GraphStateTableau)->DenseRange(128, 1024, 448);

}  // namespace

// Older libbenchmark JSON reporters (e.g. the distro 1.6 era) drop
// AddCustomContext keys from --benchmark_out files.  Patch them into
// the emitted JSON's "context" object directly so the build-type stamp
// is present regardless of library vintage.  Best-effort: a missing or
// unparseable file is left alone.
static std::string benchmark_out_path(int argc, char** argv) {
  const std::string key = "--benchmark_out=";
  std::string path;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind(key, 0) == 0)
      path = std::string(argv[i] + key.size());
  return path;
}

static void stamp_json_context(const std::string& path) {
  if (path.empty()) return;
  std::ifstream in(path);
  if (!in) return;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  in.close();
  if (text.find("\"mbq_build_type\"") != std::string::npos) return;
  const std::string anchor = "\"context\": {";
  const std::size_t at = text.find(anchor);
  if (at == std::string::npos) return;
  std::string inject = "\n    \"mbq_build_type\": \"";
#ifdef NDEBUG
  inject += "release\",";
#else
  inject += "debug\",\n    \"debug_build\": true,";
#endif
  text.insert(at + anchor.size(), inject);
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

// Custom main instead of BENCHMARK_MAIN(): refuse to let unoptimized
// numbers masquerade as a perf wall.  An assertions-on (non-NDEBUG)
// build prints a loud warning and stamps "debug_build": true into the
// JSON context, so an artifact from the wrong build type is
// self-identifying (the committed BENCH_simd_kernels.json must come
// from a Release build — check its context block).
int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(
      stderr,
      "\n*** WARNING: bench_scaling was built WITHOUT NDEBUG (Debug/"
      "assertions build).\n*** Every number below is unrepresentative of "
      "the optimized library.\n*** Rebuild with -DCMAKE_BUILD_TYPE=Release "
      "before citing or committing results.\n\n");
  benchmark::AddCustomContext("debug_build", "true");
#endif
  // The stock "library_build_type" context describes the BENCHMARK
  // library's build (a distro libbenchmark is often a debug build); this
  // key describes ours, which is the one the numbers depend on.
#ifdef NDEBUG
  benchmark::AddCustomContext("mbq_build_type", "release");
#else
  benchmark::AddCustomContext("mbq_build_type", "debug");
#endif
  // Initialize() consumes recognized flags, so grab the out path first.
  const std::string out_path = benchmark_out_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  stamp_json_context(out_path);
  return 0;
}

// mbq_perf — the measuring program of the MBQC-QAOA stack benchmark.
//
//   mbq_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --worker <path to mbq_worker> --report <file> [--spans <file>]
//
// perfbench/run.py builds this program against the library's own CMake
// build and runs it once per workload; README.md in this directory
// describes the workloads, every metric and the hazards the set-up
// steers around.  With --trace 0 it measures the end-to-end metrics
// through the public API; with --trace 1 it replays the same inputs
// through each layer's public functions, records a span around every
// call, and derives the per-layer metrics.  Every run also checks its
// outputs; the tally goes into the report and a failure makes run.py
// exit non-zero.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mbq/api/registry.h"
#include "mbq/api/session.h"
#include "mbq/api/workload.h"
#include "mbq/bench/generators.h"
#include "mbq/common/cpu.h"
#include "mbq/common/error.h"
#include "mbq/common/json.h"
#include "mbq/common/parallel.h"
#include "mbq/core/compiler.h"
#include "mbq/mbqc/compiled.h"
#include "mbq/opt/nelder_mead.h"
#include "mbq/serve/client.h"
#include "mbq/serve/daemon.h"
#include "mbq/serve/frames.h"
#include "mbq/shard/protocol.h"
#include "mbq/sim/collapse_kernels.h"
#include "mbq/sim/collapse_threaded.h"
#include "mbq/sim/dynamic_statevector.h"
#include "perf.h"

#ifndef MBQ_PERF_BUILD_TYPE
#define MBQ_PERF_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mbq;
using perf::Clock;
using perf::Tracer;

// --- fixed workload parameters (see README.md for why each is what it is) --

constexpr int kP = 2;  // QAOA depth of every instance

// setup_s is the median of several set-ups per run: at least
// kSetupMinRepeats, and more (up to kSetupMaxRepeats) while they have
// taken less than kSetupMinSeconds in all, so a cheap set-up is not a
// single noisy sample.
constexpr int kSetupMinRepeats = 3;
constexpr int kSetupMaxRepeats = 9;
constexpr double kSetupMinSeconds = 1.0;

// Throughputs are the median rate over consecutive blocks of at least
// this many seconds, so a short stall of the host does not move them.
constexpr double kBlockSeconds = 1.0;

// Traced runs replay this many calls per instance of a sampling workload.
constexpr int kTraceRounds = 3;

// mbqc-sample: one n=16 instance per family, sampled in a closed loop.
const std::vector<std::string> kSampleFamilies = {"regular", "sk", "grid",
                                                  "er"};
constexpr int kSampleN = 16;
constexpr int kSampleShots = 16;  // per Session::sample call

// large-n: a few shots of one regular n=20 instance per call.
constexpr int kLargeN = 20;
constexpr int kLargeShots = 4;

// variational: Nelder-Mead over SK n=14 with a fixed evaluation budget.
constexpr int kVarN = 14;
constexpr int kVarBudget = 100;
constexpr double kVarTolerance = 1e-9;  // final value vs statevector

// served: a 2-worker mbqd fleet, every instance below the chunk cutoff.
const std::vector<std::string> kServedFamilies = {"regular", "sk", "grid"};
const std::vector<int> kServedSizes = {8, 10, 12};
constexpr int kServedWorkers = 2;
constexpr int kServedShots = 32;       // kSample requests
constexpr int kServedPoints = 8;       // kExpectation requests
// Offered rates, set once at about 1/3 and 2/3 of the fleet's capacity
// (70-85 requests/s of this mix with nproc connections saturating it)
// at the commit that introduced the benchmark, on a 4-vCPU x86-64 KVM
// guest.
constexpr double kLoRate = 23.0;  // requests/s
constexpr double kHiRate = 45.0;
// max_rps ladder: kHiRate * kLadderStep^k, k = 0..kLadderRungs-1.  A rung
// passes when its p99 stays within kP99LimitMs and its backlog does not
// grow; rung 0 is judged by the hi phase itself.
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 16;
constexpr double kP99LimitMs = 250.0;
constexpr double kRungSeconds = 1.5;

constexpr std::uint64_t kExpectationStreamBase = 1ULL << 63;

// --- small helpers -----------------------------------------------------------

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t session_seed(std::uint64_t seed) {
  return Rng(seed).stream(0x5e55).next();
}

/// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double vm_hwm_mib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::vector<std::uint64_t> outcomes_of(const api::SampleResult& r) {
  std::vector<std::uint64_t> xs;
  xs.reserve(r.shots.size());
  for (const api::Shot& s : r.shots) xs.push_back(s.x);
  return xs;
}

/// Runs f(reps) times (at least `min_reps`, until `min_ms` have passed)
/// and returns the median wall time of one call, in ms.
template <class F>
double time_median_ms(F&& f, int min_reps = 3, double min_ms = 50.0) {
  std::vector<double> t;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(t.size()) < min_reps ||
         ms_between(start, Clock::now()) < min_ms) {
    const Clock::time_point t0 = Clock::now();
    f();
    t.push_back(ms_between(t0, Clock::now()));
    if (t.size() >= 2000) break;
  }
  return perf::median(t);
}

// --- report ------------------------------------------------------------------

struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;
  perf::Checks checks;

  void set(const std::string& name, double value, const std::string& unit) {
    if (!perf::valid_metric_name(name))
      throw std::runtime_error("invalid metric name '" + name + "'");
    metrics[name] = {value, unit};
  }
  /// A line for the reader: what was measured, with its base counts.
  static void note(const std::string& line) {
    std::cout << "  " << line << "\n";
  }
  /// A timing summary: `<name>_p50`, the highest percentile the sample
  /// count supports (`<name>_p90`, `_p99`, ...) and the count `<name>_n`.
  void timing(const std::string& name, const std::vector<double>& ms) {
    const perf::Summary s = perf::summarize(ms);
    const std::string tail = name + "_" + perf::percentile_label(s.tail_q);
    set(name + "_p50", s.p50, "ms");
    set(tail, s.tail, "ms");
    set(name + "_n", static_cast<double>(s.n), "count");
    std::ostringstream line;
    line << name << "_p50 " << s.p50 << " ms, " << tail << " " << s.tail
         << " ms (n=" << s.n << ")";
    note(line.str());
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write report " + path);
    out << "{\n  \"context\": {";
    for (std::size_t i = 0; i < context.size(); ++i)
      out << (i ? ", " : "") << "\"" << json::json_escape(context[i].first)
          << "\": \"" << json::json_escape(context[i].second) << "\"";
    out << "},\n  \"attempted\": " << checks.attempted()
        << ",\n  \"failed\": " << checks.failed() << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < checks.failures().size(); ++i)
      out << (i ? ", " : "") << "\"" << json::json_escape(checks.failures()[i])
          << "\"";
    out << "],\n  \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
      out << (first ? "\n" : ",\n") << "    \"" << name
          << "\": {\"value\": " << json::json_double(m.value)
          << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    out << "\n  }\n}\n";
  }
};

std::string cache_size(int index) {
  std::string s = read_first_line("/sys/devices/system/cpu/cpu0/cache/index" +
                                  std::to_string(index) + "/size");
  return s.empty() ? "unknown" : s;
}

void stamp_context(Report& r) {
  std::string model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("model name", 0) == 0) {
        model = line.substr(line.find(':') + 2);
        break;
      }
  }
  r.context = {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", model},
      {"l2_per_core", cache_size(2)},
      {"l3", cache_size(3)},
      {"isa", isa_name(active_simd_isa())},
      {"isa_f32", isa_name(active_simd_isa_f32())},
      {"omp_threads", std::to_string(num_threads())},
      {"kernel_threads", std::to_string(thr::kernel_threads())},
      {"build_type", MBQ_PERF_BUILD_TYPE},
  };
}

// --- instances ---------------------------------------------------------------

struct Instance {
  std::string family;
  int n = 0;
  api::WorkloadSpec spec;  // raw spec, f64 (the exact reference runs it)
  api::Workload workload;  // at the workload's precision, memos filled
  qaoa::Angles angles = qaoa::Angles::linear_ramp(kP);
};

/// Generates, lowers and tabulates one instance.  The Workload memos are
/// filled here, by one serial call each, before any Session fans out.
Instance make_instance(const std::string& family, int n, std::uint64_t seed,
                       Precision precision, Tracer& tr) {
  api::WorkloadSpec spec;
  {
    auto s = tr.span("bench.generate");
    spec = bench::make_instance(bench::family_from_name(family), n, 0, seed);
  }
  api::Workload w = api::Workload::from_spec(spec);
  w.with_precision(precision);
  {
    auto s = tr.span("speccomp.lower");
    w.lowered();
  }
  {
    auto s = tr.span("qaoa.cost_table");
    w.cost_table();
  }
  return Instance{family, n, std::move(spec), std::move(w),
                  qaoa::Angles::linear_ramp(kP)};
}

/// Exact <C> from the statevector backend (always f64).
double exact_expectation(const Instance& in, const qaoa::Angles& a) {
  api::Session ref(api::Workload::from_spec(in.spec), "statevector");
  return ref.expectation(a);
}

mbqc::ExecOptions exec_options(const api::Workload& w) {
  mbqc::ExecOptions o;
  o.precision = w.precision();
  return o;
}

/// Mean of each layer-named span's duration, in ms.
double mean_span_ms(const std::vector<perf::Span>& spans,
                    const std::string& name) {
  std::vector<double> d;
  for (const perf::Span& s : spans)
    if (s.name == name) d.push_back(s.end_ms - s.start_ms);
  return perf::mean(d);
}

/// Median of several set-ups (see kSetupMinRepeats), keeping the last
/// state.
template <class State, class F>
State timed_setups(Report& rep, F&& setup) {
  std::vector<double> secs;
  double total = 0.0;
  State state;
  while (static_cast<int>(secs.size()) < kSetupMinRepeats ||
         (total < kSetupMinSeconds &&
          static_cast<int>(secs.size()) < kSetupMaxRepeats)) {
    state = State{};  // tear the previous one down outside the timing
    const Clock::time_point t0 = Clock::now();
    state = setup(static_cast<int>(secs.size()));
    secs.push_back(seconds_since(t0));
    total += secs.back();
  }
  rep.set("setup_s", perf::median(secs), "s");
  std::ostringstream line;
  line << "setup_s " << perf::median(secs) << " s (median of " << secs.size()
       << "; first " << secs.front() << " s)";
  rep.note(line.str());
  return state;
}

/// Completed work over a timed window, for a throughput that is the
/// median rate over blocks of at least kBlockSeconds.
class RateMeter {
 public:
  RateMeter() : start_(Clock::now()), block_start_(start_) {}

  void add(double units) {
    units_ += units;
    block_units_ += units;
    const Clock::time_point now = Clock::now();
    const double block_s =
        std::chrono::duration<double>(now - block_start_).count();
    if (block_s >= kBlockSeconds) {
      rates_.push_back(block_units_ / block_s);
      block_units_ = 0.0;
      block_start_ = now;
    }
  }
  double seconds() const { return seconds_since(start_); }
  double units() const noexcept { return units_; }
  /// Median block rate; the whole-window rate when no block closed.
  double rate() const {
    return rates_.empty() ? units_ / seconds() : perf::median(rates_);
  }
  std::size_t blocks() const noexcept { return rates_.size(); }

 private:
  Clock::time_point start_, block_start_;
  double units_ = 0.0, block_units_ = 0.0;
  std::vector<double> rates_;
};

/// Sets the throughput metric from a meter, with a note of its base.
void report_rate(Report& rep, const std::string& name, const RateMeter& m,
                 const std::string& what) {
  rep.set(name, m.rate(), "1/s");
  std::ostringstream line;
  line << name << " " << m.rate() << " 1/s (median of " << m.blocks()
       << " blocks of >= " << kBlockSeconds << " s; " << m.units() << " "
       << what << " in " << m.seconds() << " s)";
  rep.note(line.str());
}

// --- replay through the layers' public functions ----------------------------
// Each function mirrors, call for call, what the library does on that
// path, with a span around every layer boundary.  With a disabled tracer
// the same code is the untraced baseline of the overhead measurement.

struct Prepared {
  core::CompiledPattern compiled;
  std::shared_ptr<const mbqc::CompiledPattern> executable;
};

/// MbqcBackend::prepare: pattern compile, then tape lowering.
Prepared replay_prepare(const api::Workload& w, const qaoa::Angles& a,
                        Tracer& tr, std::uint64_t req) {
  auto s = tr.span("api.prepare", req);
  Prepared p;
  {
    auto c = tr.span("core.compile", req);
    p.compiled = w.compile_pattern(a, true);
  }
  {
    auto l = tr.span("mbqc.lower", req);
    p.executable =
        std::make_shared<const mbqc::CompiledPattern>(p.compiled.pattern);
  }
  return p;
}

/// Session::sample's shot loop (a prepare-cache hit): shots fanned out
/// on common/parallel, shot s of call k on Rng(seed).stream(k).stream(s).
std::vector<std::uint64_t> replay_shots(const api::Workload& w,
                                        const Prepared& p, std::uint64_t seed,
                                        std::uint64_t call, int shots,
                                        bool fan_out, Tracer& tr,
                                        std::uint64_t req) {
  std::vector<std::uint64_t> xs(static_cast<std::size_t>(shots));
  auto s = tr.span("api.sample", req);
  const int parent = s.id();
  const Rng base = Rng(seed).stream(call);
  const mbqc::ExecOptions eo = exec_options(w);
  auto one = [&](std::int64_t i) {
    auto shot = tr.span("mbqc.shot", req, parent);
    Rng r = base.stream(static_cast<std::uint64_t>(i));
    xs[static_cast<std::size_t>(i)] =
        mbqc::thread_local_executor(p.executable, eo).run_sample(r).x;
  };
  if (fan_out)
    parallel_for_grain(shots, 1, one);
  else
    for (int i = 0; i < shots; ++i) one(i);
  return xs;
}

/// MbqcBackend::expectation: one adaptive run plus the 2^n cost fold.
double replay_expectation(const api::Workload& w, const Prepared& p,
                          std::uint64_t seed, std::uint64_t stream, Tracer& tr,
                          std::uint64_t req) {
  auto s = tr.span("api.expectation", req);
  Rng rng = Rng(seed).stream(stream);
  mbqc::RunResult r;
  {
    auto run = tr.span("mbqc.run", req);
    r = mbqc::thread_local_executor(p.executable, exec_options(w)).run(rng);
  }
  auto fold = tr.span("qaoa.cost_fold", req);
  double acc = 0.0;
  for (std::uint64_t x = 0; x < r.output_state.size(); ++x)
    acc += std::norm(r.output_state[x]) * w.cost().evaluate(x);
  return acc;
}

/// Wall time of the traced run's three passes over the same ops.
struct PassTimes {
  double lib_ms = 0.0;       // through the library's public API, untraced
  double untraced_ms = 0.0;  // replayed through the layers, tracer off
  double traced_ms = 0.0;    // replayed through the layers, tracer on
};

/// Runs every op three ways — lib(i) through the library, replay(i,
/// tracer) with the tracer off and on — rotating their order from op to
/// op, so drift in the host's speed and cache warmth fall on all three
/// alike.
template <class Lib, class Replay>
PassTimes run_passes(int ops, Tracer& tr, Lib&& lib, Replay&& replay) {
  Tracer off(false);
  PassTimes t;
  for (int i = 0; i < ops; ++i)
    for (int k = 0; k < 3; ++k) {
      const int pass = (i + k) % 3;
      const Clock::time_point t0 = Clock::now();
      if (pass == 0)
        lib(i);
      else
        replay(i, pass == 1 ? off : tr);
      (pass == 0 ? t.lib_ms : pass == 1 ? t.untraced_ms : t.traced_ms) +=
          ms_between(t0, Clock::now());
    }
  return t;
}

/// Per-layer self time per op (spans under "op" roots), coverage and
/// overhead.  `width` is how many threads the library spread each op
/// over, so the spans of a replay can cover at most lib_ms * width.
void report_trace(Report& rep, const Tracer& tr, const PassTimes& t,
                  double width, int ops) {
  const double e2e_thread_ms = t.lib_ms * width;
  const std::vector<perf::Span> spans = tr.spans();
  // Keep only spans under an "op" root.
  std::vector<int> root(spans.size(), -1);
  std::vector<perf::Span> op_spans;
  std::vector<int> remap(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perf::Span& s = spans[i];
    root[i] = s.parent < 0 ? static_cast<int>(i)
                           : root[static_cast<std::size_t>(s.parent)];
    if (spans[static_cast<std::size_t>(root[i])].name != "op") continue;
    perf::Span c = s;
    c.id = static_cast<int>(op_spans.size());
    c.parent = s.parent < 0 ? -1 : remap[static_cast<std::size_t>(s.parent)];
    remap[i] = c.id;
    op_spans.push_back(std::move(c));
  }
  const std::map<std::string, double> self = perf::layer_self_ms(op_spans);
  double covered = 0.0;
  for (const char* layer : {"api", "core", "mbqc", "qaoa", "shard", "serve"}) {
    const auto it = self.find(layer);
    const double v = it == self.end() ? 0.0 : it->second;
    covered += v;
    rep.set(std::string(layer) + ".self_ms", v / ops, "ms");
  }
  const double coverage = e2e_thread_ms > 0 ? covered / e2e_thread_ms : 0.0;
  rep.set("trace.coverage", coverage, "ratio");
  const double overhead =
      t.untraced_ms > 0 ? (t.traced_ms - t.untraced_ms) / t.untraced_ms : 0.0;
  rep.set("trace.overhead_frac", overhead, "ratio");
  std::ostringstream line;
  line << "trace: " << ops << " ops; library " << t.lib_ms
       << " ms x width " << width << ", replay untraced " << t.untraced_ms
       << " ms, traced " << t.traced_ms << " ms; spans cover "
       << 100.0 * coverage << "% of untraced end-to-end time ("
       << 100.0 * (1.0 - coverage) << "% unattributed); tracing overhead "
       << 100.0 * overhead << "%";
  rep.note(line.str());
}

// --- per-op-kind simulator timings -------------------------------------------

/// ns per amplitude of each DynamicStatevector op the op tape uses, at
/// register width `live` (the op that adds a wire reaches `live` wires),
/// on one kernel thread; plus the kernel-thread speedup of the gadget op.
void report_sim_ops(Report& rep, int live, int n_out, Precision prec) {
  const int w = std::max(live - 1, 4);
  const double small = std::ldexp(1.0, w);  // amplitudes at width w
  const double big = std::ldexp(1.0, w + 1);
  Rng rng(0x51A);
  const Matrix yz = measurement_basis(MeasBasis::YZ, 0.37);
  const Matrix xy = measurement_basis(MeasBasis::XY, 0.61);
  const std::uint64_t partners = 0b1011;  // three CZ partners
  auto fresh = [&](int width) {
    DynamicStatevector d(prec);
    for (int q = 0; q < width; ++q) d.add_wire(q, true);
    return d;
  };

  thr::set_kernel_threads(1);
  DynamicStatevector d = fresh(w);
  int next = w;
  // prep+CZ grows the register to w+1; measure_remove brings it back.
  std::vector<double> prep_ms, meas_ms;
  const Clock::time_point start = Clock::now();
  while (prep_ms.size() < 5 || ms_between(start, Clock::now()) < 60.0) {
    Clock::time_point t0 = Clock::now();
    d.add_wire_plus_cz(next, partners);
    prep_ms.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    d.measure_remove(next, yz, rng);
    meas_ms.push_back(ms_between(t0, Clock::now()));
    ++next;
    if (prep_ms.size() >= 2000) break;
  }
  const double gadget = time_median_ms([&] {
    d.prep_cz_measure(next++, partners, yz, rng);
  });
  const double teleport = time_median_ms([&] {
    const int old = d.wire_order().front();
    d.prep_cz_teleport_measure(next++, partners, old, xy, rng);
  });
  const std::uint64_t cz_masks[3] = {0b11, 0b110, 0b1100};
  const double cz = time_median_ms([&] { d.apply_cz_masks(cz_masks, 3); });
  const double pauli =
      time_median_ms([&] { d.apply_pauli_masks(0b101, 0b1010, false); });
  DynamicStatevector out = fresh(n_out);
  DynamicStatevector::GatherTable table;
  std::vector<int> wires(static_cast<std::size_t>(n_out));
  for (int q = 0; q < n_out; ++q) wires[static_cast<std::size_t>(q)] = q;
  out.fill_gather_table(wires, table);
  volatile std::uint64_t sink = 0;
  const double readout =
      time_median_ms([&] { sink = sink + out.sample_in_order(table, 0.999); });
  thr::set_kernel_threads(0);
  const double gadget_default = time_median_ms([&] {
    d.prep_cz_measure(next++, partners, yz, rng);
  });

  const double ns = 1e6;
  rep.set("sim.prep_cz_ns", perf::median(prep_ms) * ns / big, "ns");
  rep.set("sim.measure_ns", perf::median(meas_ms) * ns / big, "ns");
  rep.set("sim.gadget_ns", gadget * ns / small, "ns");
  rep.set("sim.teleport_ns", teleport * ns / small, "ns");
  rep.set("sim.cz_ns", cz * ns / small, "ns");
  rep.set("sim.pauli_ns", pauli * ns / small, "ns");
  rep.set("sim.readout_ns", readout * ns / std::ldexp(1.0, n_out), "ns");
  rep.set("sim.bytes_per_amp", prec == Precision::F64 ? 16.0 : 8.0, "B");
  rep.set("sim.kernel_thread_speedup", gadget / gadget_default, "x");
  std::ostringstream line;
  line << "sim at " << w + 1 << " live wires (" << precision_name(prec)
       << ", 1 kernel thread): ns/amp prep_cz " << perf::median(prep_ms) * ns / big
       << ", gadget " << gadget * ns / small << ", teleport "
       << teleport * ns / small << ", cz " << cz * ns / small << ", measure "
       << perf::median(meas_ms) * ns / big << ", pauli " << pauli * ns / small
       << ", readout(" << n_out << " wires) "
       << readout * ns / std::ldexp(1.0, n_out)
       << "; bytes/amp (computed) " << (prec == Precision::F64 ? 16 : 8)
       << "; kernel-thread speedup " << gadget / gadget_default;
  rep.note(line.str());
}

/// Layer metrics every workload reports from its primary instance:
/// prepare/compile/lower times, resource counts, shot and run times,
/// cost evaluation and fold, and the simulator op timings.
void report_pipeline(Report& rep, const Instance& in) {
  const api::Workload& w = in.workload;
  const qaoa::Angles& a = in.angles;
  auto backend = api::BackendRegistry::instance().create("mbqc");
  rep.set("api.prepare_ms", time_median_ms([&] { backend->prepare(w, a); }),
          "ms");
  core::CompiledPattern cp;
  rep.set("core.compile_ms",
          time_median_ms([&] { cp = w.compile_pattern(a, true); }), "ms");
  std::shared_ptr<const mbqc::CompiledPattern> exe;
  rep.set("mbqc.lower_ms", time_median_ms([&] {
            exe = std::make_shared<const mbqc::CompiledPattern>(cp.pattern);
          }),
          "ms");
  rep.set("core.qubits", cp.pattern.num_wires(), "count");
  rep.set("core.measurements", cp.pattern.num_measurements(), "count");
  rep.set("mbqc.tape_ops", exe->num_ops(), "count");

  const mbqc::ExecOptions eo = exec_options(w);
  mbqc::PatternExecutor ex(exe, eo);
  Rng rng(0xD0E);
  thr::set_kernel_threads(1);
  const int live = ex.run_sample(rng).peak_live;  // also warms the arena
  rep.set("mbqc.peak_live", live, "count");
  rep.set("mbqc.shot_ms", time_median_ms([&] { ex.run_sample(rng); }, 3, 100),
          "ms");
  thr::set_kernel_threads(0);
  mbqc::RunResult run;
  rep.set("mbqc.run_ms", time_median_ms([&] { run = ex.run(rng); }, 3, 100),
          "ms");

  const std::uint64_t dim = std::uint64_t{1} << in.n;
  const std::uint64_t evals = std::min<std::uint64_t>(dim, 1 << 16);
  volatile double sink = 0.0;
  const double eval_ms = time_median_ms([&] {
    double acc = 0.0;
    for (std::uint64_t x = 0; x < evals; ++x) acc += w.cost().evaluate(x);
    sink = sink + acc;
  });
  rep.set("qaoa.cost_eval_ns", eval_ms * 1e6 / static_cast<double>(evals),
          "ns");
  rep.set("qaoa.cost_fold_ms", time_median_ms([&] {
            double acc = 0.0;
            for (std::uint64_t x = 0; x < run.output_state.size(); ++x)
              acc += std::norm(run.output_state[x]) * w.cost().evaluate(x);
            sink = sink + acc;
          }),
          "ms");
  std::ostringstream line;
  line << in.family << " n=" << in.n << ": " << cp.pattern.num_wires()
       << " qubits, " << cp.pattern.num_measurements() << " measurements, "
       << exe->num_ops() << " tape ops, peak live " << live;
  rep.note(line.str());
  report_sim_ops(rep, live, in.n, w.precision());
}

/// Set-up layer times from the traced set-up's spans.
void report_setup_layers(Report& rep, const Tracer& tr) {
  const std::vector<perf::Span> spans = tr.spans();
  rep.set("bench.generate_ms", mean_span_ms(spans, "bench.generate"), "ms");
  rep.set("speccomp.lower_ms", mean_span_ms(spans, "speccomp.lower"), "ms");
  rep.set("qaoa.cost_table_ms", mean_span_ms(spans, "qaoa.cost_table"), "ms");
}

/// Layer metrics of layers a workload never calls: zero by definition.
void report_absent(Report& rep, const std::vector<std::pair<const char*,
                                                            const char*>>& m) {
  for (const auto& [name, unit] : m) rep.set(name, 0.0, unit);
}

const std::vector<std::pair<const char*, const char*>> kOptMetrics = {
    {"opt.evaluations", "count"},
    {"opt.objective_calls", "count"},
    {"opt.points_per_call", "count"}};
const std::vector<std::pair<const char*, const char*>> kServeMetrics = {
    {"shard.request_bytes", "B"},       {"shard.response_bytes", "B"},
    {"shard.codec_us", "us"},           {"serve.rtt_ms_p50", "ms"},
    {"serve.frame_codec_us", "us"},     {"serve.warm_hit_ratio", "ratio"},
    {"serve.slices_per_request", "count"},
    {"serve.queue_depth_max", "count"}, {"serve.worker_busy_frac", "ratio"},
    {"serve.busy_rejections", "count"}, {"serve.redispatched", "count"},
    {"gen.late_ms_p99", "ms"}};

// =============================================================================
// Sampling workloads: mbqc-sample, large-n, large-n-f32
// =============================================================================

struct SampleConfig {
  std::vector<std::string> families;
  int n = 0;
  int shots = 0;
  Precision precision = Precision::F64;
};

struct SampleState {
  std::vector<Instance> inst;
  std::vector<std::unique_ptr<api::Session>> sessions;
  std::vector<std::uint64_t> first_digest;
};

SampleState sample_setup(const SampleConfig& c, std::uint64_t seed,
                         Tracer& tr) {
  SampleState s;
  for (const std::string& f : c.families)
    s.inst.push_back(make_instance(f, c.n, seed, c.precision, tr));
  api::SessionOptions o;
  o.seed = session_seed(seed);
  for (const Instance& in : s.inst) {
    s.sessions.push_back(std::make_unique<api::Session>(in.workload, "mbqc", o));
    // The first run: kernel self-check, thread start-up, prepare, arenas.
    const api::SampleResult r =
        s.sessions.back()->sample(in.angles, std::max(num_threads(), 1));
    s.first_digest.push_back(perf::digest(outcomes_of(r)));
  }
  return s;
}

void check_first_runs(Report& rep, const std::vector<std::vector<std::uint64_t>>& d,
                      const std::string& what) {
  for (std::size_t i = 1; i < d.size(); ++i)
    rep.checks.expect(d[i] == d[0], what + ": set-up " + std::to_string(i) +
                                        " first-run digest differs");
}

void run_sample_e2e(const SampleConfig& c, std::uint64_t seed, double seconds,
                    Report& rep) {
  Tracer off(false);
  std::vector<std::vector<std::uint64_t>> digests;
  SampleState st = timed_setups<SampleState>(rep, [&](int) {
    SampleState s = sample_setup(c, seed, off);
    digests.push_back(s.first_digest);
    return s;
  });
  check_first_runs(rep, digests, "first runs");

  const std::size_t F = st.inst.size();
  std::vector<std::vector<double>> costs(F);
  std::vector<double> iter_ms;
  RateMeter shots;
  while (shots.seconds() < seconds) {
    const Clock::time_point it0 = Clock::now();
    std::size_t done = 0;
    for (std::size_t f = 0; f < F; ++f) {
      try {
        const api::SampleResult r = st.sessions[f]->sample(st.inst[f].angles,
                                                           c.shots);
        for (const api::Shot& s : r.shots) costs[f].push_back(s.cost);
        done += r.shots.size();
        rep.checks.expect(true, "");
      } catch (const std::exception& e) {
        rep.checks.expect(false, std::string("sample failed: ") + e.what());
      }
    }
    iter_ms.push_back(ms_between(it0, Clock::now()));
    shots.add(static_cast<double>(done));
  }
  report_rate(rep,
              c.precision == Precision::F32 ? "f32.shots_per_s" : "shots_per_s",
              shots, "shots");
  rep.timing("iter_ms", iter_ms);

  // Exact-reference scoring, outside the timed window.
  for (std::size_t f = 0; f < F; ++f) {
    const double exact = exact_expectation(st.inst[f], st.inst[f].angles);
    const perf::MeanCheck m = perf::check_mean(costs[f], exact);
    std::ostringstream line;
    line << "check " << st.inst[f].family << ": mean cost " << m.mean
         << " vs exact " << exact << " (" << m.z << " std errors over "
         << costs[f].size() << " shots)";
    rep.note(line.str());
    rep.checks.expect(m.ok, line.str());
  }
}

void run_sample_traced(const SampleConfig& c, std::uint64_t seed,
                       Report& rep, Tracer& tr) {
  SampleState st = sample_setup(c, seed, tr);
  report_setup_layers(rep, tr);
  const std::uint64_t sseed = session_seed(seed);
  const std::size_t F = st.inst.size();
  const int ops = static_cast<int>(F) * kTraceRounds;

  // Op i is sample call 1 + i / F (call 0 was the set-up's first run) of
  // instance i % F: through the set-up's Session, and replayed.
  std::vector<Prepared> prep;
  for (const Instance& in : st.inst)
    prep.push_back(replay_prepare(in.workload, in.angles, tr, 0));
  std::vector<std::uint64_t> lib_digest(ops);
  std::vector<std::vector<std::uint64_t>> replay_digest(
      2, std::vector<std::uint64_t>(ops));
  const PassTimes t = run_passes(
      ops, tr,
      [&](int i) {
        const std::size_t f = static_cast<std::size_t>(i) % F;
        lib_digest[i] = perf::digest(
            outcomes_of(st.sessions[f]->sample(st.inst[f].angles, c.shots)));
      },
      [&](int i, Tracer& pt) {
        const std::size_t f = static_cast<std::size_t>(i) % F;
        const std::uint64_t req = static_cast<std::uint64_t>(i) + 1;
        auto root = pt.span("op", req);
        replay_digest[pt.enabled()][i] = perf::digest(
            replay_shots(st.inst[f].workload, prep[f], sseed,
                         1 + static_cast<std::uint64_t>(i) / F, c.shots, true,
                         pt, req));
      });
  for (int i = 0; i < ops; ++i)
    for (int traced = 0; traced < 2; ++traced)
      rep.checks.expect(replay_digest[traced][i] == lib_digest[i],
                        std::string(traced ? "traced" : "untraced") +
                            " replay of " + st.inst[i % F].family +
                            " differs from Session");
  std::uint64_t hits = 0, misses = 0;
  for (const auto& s : st.sessions) {
    hits += s->cache_hits();
    misses += s->cache_misses();
  }
  rep.set("api.cache_hits", static_cast<double>(hits), "count");
  rep.set("api.cache_misses", static_cast<double>(misses), "count");
  rep.set("api.sample_call_ms", t.lib_ms / ops, "ms");
  const double e2e_rate = ops * c.shots / (t.lib_ms / 1e3);
  report_trace(rep, tr, t, std::min(num_threads(), c.shots), ops);

  // The plain single-threaded baseline of the same problem: one thread
  // for shots and for kernels.
  set_num_threads(1);
  thr::set_kernel_threads(1);
  double ms_1t = 0.0;
  api::SessionOptions o;
  o.seed = sseed;
  for (std::size_t f = 0; f < F; ++f) {
    api::Session s(st.inst[f].workload, "mbqc", o);
    s.sample(st.inst[f].angles, 1);
    const Clock::time_point t0 = Clock::now();
    s.sample(st.inst[f].angles, c.shots);
    ms_1t += ms_between(t0, Clock::now());
  }
  set_num_threads(0);
  thr::set_kernel_threads(0);
  const double rate_1t = F * c.shots / (ms_1t / 1e3);
  rep.set("api.shots_per_s_1t", rate_1t, "1/s");
  rep.set("api.thread_speedup", e2e_rate / rate_1t, "x");
  rep.note("shots/s at " + std::to_string(num_threads()) + " threads " +
           std::to_string(e2e_rate) + ", at 1 thread " +
           std::to_string(rate_1t));

  report_pipeline(rep, st.inst.front());
  report_absent(rep, kOptMetrics);
  report_absent(rep, kServeMetrics);
}

// =============================================================================
// variational
// =============================================================================

struct VarState {
  std::unique_ptr<Instance> inst;
  double first_value = 0.0;
};

VarState var_setup(std::uint64_t seed, Tracer& tr) {
  VarState s;
  s.inst = std::make_unique<Instance>(
      make_instance("sk", kVarN, seed, Precision::F64, tr));
  api::SessionOptions o;
  o.seed = session_seed(seed);
  api::Session session(s.inst->workload, "mbqc", o);
  s.first_value = session.expectation(s.inst->angles);  // the first run
  return s;
}

/// One Nelder-Mead run through Session::batch_objective with a fresh
/// Session (so every run of a set follows the same trajectory), recording
/// each objective call.
struct NmRun {
  opt::OptResult result;
  std::vector<std::vector<double>> points;  // in evaluation order
  std::vector<double> values;
  std::vector<double> single_ms;  // single-point objective calls
  std::vector<std::uint64_t> single_index;  // their evaluation index
  int calls = 0;
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t digest = 0;
};

NmRun run_nm(const Instance& in, std::uint64_t sseed) {
  api::SessionOptions o;
  o.seed = sseed;
  api::Session session(in.workload, "mbqc", o);
  const opt::BatchObjective inner = session.batch_objective();
  NmRun run;
  const opt::BatchObjective f =
      [&](const std::vector<std::vector<double>>& xs) {
        const Clock::time_point t0 = Clock::now();
        std::vector<double> v = inner(xs);
        const double ms = ms_between(t0, Clock::now());
        ++run.calls;
        if (xs.size() == 1) {
          run.single_ms.push_back(ms);
          run.single_index.push_back(run.points.size());
        }
        for (std::size_t i = 0; i < xs.size(); ++i) {
          run.points.push_back(xs[i]);
          run.values.push_back(v[i]);
        }
        return v;
      };
  opt::NelderMeadOptions nm;
  nm.max_evaluations = kVarBudget;
  nm.tolerance = 0.0;  // never stop before the budget
  Rng rng(sseed);
  run.result = opt::nelder_mead(f, in.angles.flat(), nm, rng);
  run.hits = session.cache_hits();
  run.misses = session.cache_misses();
  run.digest = perf::digest_bits(run.values);
  return run;
}

void check_nm(Report& rep, const Instance& in, const NmRun& r) {
  const int evals = r.result.evaluations;
  const int dim = static_cast<int>(in.angles.flat().size());
  // The optimizer finishes its last step, so it can pass the budget by at
  // most one shrink of the simplex (dim points) plus the step before it.
  rep.checks.expect(evals == static_cast<int>(r.points.size()) &&
                        evals >= kVarBudget && evals <= kVarBudget + dim + 1,
                    "evaluation count " + std::to_string(evals) +
                        " does not match the budget " +
                        std::to_string(kVarBudget));
  const double exact =
      exact_expectation(in, qaoa::Angles::from_flat(r.result.x));
  std::ostringstream line;
  line << "check: final value " << r.result.value << " vs statevector "
       << exact << " (|diff| " << std::abs(r.result.value - exact) << ", "
       << evals << " evaluations for a budget of " << kVarBudget << ")";
  rep.note(line.str());
  rep.checks.expect(std::abs(r.result.value - exact) <= kVarTolerance,
                    line.str());
}

void run_variational_e2e(std::uint64_t seed, double seconds, Report& rep) {
  Tracer off(false);
  std::vector<std::vector<std::uint64_t>> firsts;
  VarState st = timed_setups<VarState>(rep, [&](int) {
    VarState s = var_setup(seed, off);
    firsts.push_back({perf::digest_bits({s.first_value})});
    return s;
  });
  check_first_runs(rep, firsts, "first runs");

  const std::uint64_t sseed = session_seed(seed);
  std::vector<NmRun> runs;
  std::vector<double> eval_ms;
  RateMeter evals;
  while (evals.seconds() < seconds) {
    try {
      runs.push_back(run_nm(*st.inst, sseed));
      eval_ms.insert(eval_ms.end(), runs.back().single_ms.begin(),
                     runs.back().single_ms.end());
      for (std::size_t i = 0; i < runs.back().points.size(); ++i)
        rep.checks.expect(true, "");
      evals.add(static_cast<double>(runs.back().points.size()));
    } catch (const std::exception& e) {
      rep.checks.expect(false, std::string("optimizer run failed: ") + e.what());
    }
  }
  report_rate(rep, "evals_per_s", evals,
              "evaluations in " + std::to_string(runs.size()) +
                  " optimizer runs");
  rep.timing("eval_ms", eval_ms);

  if (runs.empty()) return;
  for (std::size_t i = 1; i < runs.size(); ++i)
    rep.checks.expect(runs[i].digest == runs[0].digest,
                      "optimizer run " + std::to_string(i) +
                          " took a different trajectory");
  check_nm(rep, *st.inst, runs.front());
}

void run_variational_traced(std::uint64_t seed, Report& rep, Tracer& tr) {
  VarState st = var_setup(seed, tr);
  report_setup_layers(rep, tr);
  const Instance& in = *st.inst;
  const std::uint64_t sseed = session_seed(seed);

  const NmRun nm = run_nm(in, sseed);
  check_nm(rep, in, nm);
  rep.set("opt.evaluations", nm.result.evaluations, "count");
  rep.set("opt.objective_calls", nm.calls, "count");
  rep.set("opt.points_per_call",
          static_cast<double>(nm.result.evaluations) / nm.calls, "count");
  rep.set("api.cache_hits", static_cast<double>(nm.hits), "count");
  rep.set("api.cache_misses", static_cast<double>(nm.misses), "count");
  rep.note("optimizer: " + std::to_string(nm.result.evaluations) +
           " evaluations in " + std::to_string(nm.calls) + " calls; cache " +
           std::to_string(nm.hits) + " hits / " + std::to_string(nm.misses) +
           " misses");

  // Replay the single-point objective calls (each a cache miss: prepare,
  // run, fold) and compare with the values the Session returned.
  // The library pass sends each point to a Session of its own run, where
  // it is a cache miss as it was in the optimizer.
  constexpr std::size_t kMaxOps = 40;
  const int ops =
      static_cast<int>(std::min(kMaxOps, nm.single_index.size()));
  api::SessionOptions o;
  o.seed = sseed;
  api::Session lib_session(in.workload, "mbqc", o);
  const opt::BatchObjective lib = lib_session.batch_objective();
  std::vector<std::vector<double>> replayed(2, std::vector<double>(ops));
  const PassTimes t = run_passes(
      ops, tr, [&](int i) { lib({nm.points[nm.single_index[i]]}); },
      [&](int i, Tracer& pt) {
        const std::uint64_t k = nm.single_index[i];
        auto root = pt.span("op", k + 1);
        const qaoa::Angles a = qaoa::Angles::from_flat(nm.points[k]);
        const Prepared p = replay_prepare(in.workload, a, pt, k + 1);
        replayed[pt.enabled()][i] = replay_expectation(
            in.workload, p, sseed, kExpectationStreamBase + k, pt, k + 1);
      });
  for (int i = 0; i < ops; ++i)
    for (int traced = 0; traced < 2; ++traced)
      rep.checks.expect(
          perf::bit_equal({replayed[traced][i]},
                          {nm.values[nm.single_index[i]]}),
          std::string(traced ? "traced" : "untraced") +
              " replay of evaluation " +
              std::to_string(nm.single_index[i]) + " differs from Session");
  report_trace(rep, tr, t, 1.0, ops);

  rep.set("api.sample_call_ms", 0.0, "ms");
  rep.set("api.shots_per_s_1t", 0.0, "1/s");
  rep.set("api.thread_speedup", 0.0, "x");
  report_pipeline(rep, in);
  report_absent(rep, kServeMetrics);
}

// =============================================================================
// served
// =============================================================================

struct ServedRequest {
  std::size_t inst = 0;
  bool sample = true;
  std::vector<qaoa::Angles> points;
  std::size_t key = 0;  // equal keys = equal (fingerprint, angles) content
};

/// The request stream of a run: a pure function of the seed.  The mix is
/// stratified so every window carries the same share of each instance
/// and kind (request i targets instance perm[i % instances] and is an
/// expectation when i % 4 == 3); odd requests repeat an earlier request
/// with the same instance and kind.  The seed picks the instance order,
/// the angles and which earlier request is repeated.
std::vector<ServedRequest> make_stream(std::size_t count, std::size_t ninst,
                                       std::uint64_t seed) {
  Rng rng = Rng(seed).stream(0x5e7e);
  std::vector<std::size_t> perm(ninst);
  for (std::size_t i = 0; i < ninst; ++i) perm[i] = i;
  rng.shuffle(perm);
  std::vector<ServedRequest> out;
  out.reserve(count);
  std::map<std::pair<std::size_t, bool>, std::vector<std::size_t>> seen;
  std::size_t keys = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t inst = perm[i % ninst];
    const bool sample = i % 4 != 3;
    std::vector<std::size_t>& earlier = seen[{inst, sample}];
    if (i % 2 == 1 && !earlier.empty()) {
      out.push_back(out[earlier[rng.uniform_index(earlier.size())]]);
      continue;
    }
    ServedRequest r;
    r.inst = inst;
    r.sample = sample;
    const int npts = sample ? 1 : kServedPoints;
    for (int p = 0; p < npts; ++p)
      r.points.push_back(qaoa::Angles::random(kP, rng));
    r.key = keys++;
    earlier.push_back(out.size());
    out.push_back(std::move(r));
  }
  return out;
}

shard::Request to_request(const ServedRequest& r, const Instance& in,
                          std::uint64_t seed) {
  shard::Request q;
  q.backend = "mbqc";
  q.seed = seed;
  q.workload = in.workload;
  q.points = r.points;
  if (r.sample) {
    // A fresh Session's first sample() call.
    q.kind = shard::TaskKind::kSample;
    q.shots = kServedShots;
    q.base_call = 0;
    q.end = kServedShots;
  } else {
    // A fresh Session's first expectation_batch() call.
    q.kind = shard::TaskKind::kExpectation;
    q.stream_base = kExpectationStreamBase;
    q.end = r.points.size();
  }
  return q;
}

struct ServedState {
  std::vector<Instance> inst;
  std::unique_ptr<serve::Daemon> daemon;
  std::vector<std::unique_ptr<serve::DaemonClient>> clients;
  std::uint64_t first_digest = 0;
};

int served_connections() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

ServedState served_setup(std::uint64_t seed, const std::string& worker,
                         Tracer& tr) {
  ServedState s;
  for (const std::string& f : kServedFamilies)
    for (int n : kServedSizes)
      s.inst.push_back(make_instance(f, n, seed, Precision::F64, tr));
  serve::DaemonOptions o;
  o.endpoints = {"tcp:127.0.0.1:0"};
  o.workers = kServedWorkers;
  o.worker_path = worker;
  o.worker_timeout_ms = 0;
  s.daemon = std::make_unique<serve::Daemon>(o);
  s.daemon->start();
  const std::string ep = s.daemon->endpoint_string();
  std::vector<std::uint64_t> all;
  for (int c = 0; c < served_connections(); ++c) {
    s.clients.push_back(std::make_unique<serve::DaemonClient>(ep, "perfbench"));
    // The first run on each connection: a whole sample request of the
    // smallest instance.  Its slices reach every worker of the idle
    // fleet, so each pays its first-run cost (kernel self-check) here
    // and not inside a timed window.
    ServedRequest r;
    r.points = {s.inst.front().angles};
    const auto res =
        s.clients.back()->run(to_request(r, s.inst.front(), session_seed(seed)));
    all.insert(all.end(), res.outcomes.begin(), res.outcomes.end());
  }
  s.first_digest = perf::digest(all);
  return s;
}

/// Every distinct served result against a local in-process Session
/// replay, bit for bit; runs outside every timed window.
void check_served(Report& rep, const ServedState& st,
                  const std::vector<ServedRequest>& stream,
                  const std::vector<serve::DaemonClient::RunResult>& got,
                  const std::vector<char>& ok, std::uint64_t sseed) {
  std::map<std::size_t, serve::DaemonClient::RunResult> local;
  std::size_t mismatches = 0, checked = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!ok[i]) continue;
    const ServedRequest& r = stream[i];
    auto it = local.find(r.key);
    if (it == local.end()) {
      api::SessionOptions o;
      o.seed = sseed;
      api::Session s(st.inst[r.inst].workload, "mbqc", o);
      serve::DaemonClient::RunResult want;
      if (r.sample)
        want.outcomes = outcomes_of(s.sample(r.points.front(), kServedShots));
      else
        want.values = s.expectation_batch(r.points);
      it = local.emplace(r.key, std::move(want)).first;
    }
    const bool same = got[i].outcomes == it->second.outcomes &&
                      perf::bit_equal(got[i].values, it->second.values);
    ++checked;
    if (!same) ++mismatches;
    rep.checks.expect(same, "served request " + std::to_string(i) +
                                " differs from the local Session replay");
  }
  rep.note("check: " + std::to_string(checked) + " served results vs " +
           std::to_string(local.size()) + " local Session replays, " +
           std::to_string(mismatches) + " mismatches");
}

/// One open-loop phase over stream[begin, begin + count).
perf::OpenLoopResult served_phase(
    ServedState& st, const std::vector<ServedRequest>& stream,
    std::size_t begin, std::size_t count, double rate, std::uint64_t sseed,
    std::vector<serve::DaemonClient::RunResult>& results,
    std::vector<char>& ok, std::uint64_t& busy) {
  std::atomic<std::uint64_t> busy_count{0};
  perf::OpenLoopResult r = perf::run_open_loop(
      count, rate, static_cast<int>(st.clients.size()),
      [&](int c, std::size_t i) {
        const std::size_t g = begin + i;
        const ServedRequest& q = stream[g];
        try {
          results[g] = st.clients[static_cast<std::size_t>(c)]->run(
              to_request(q, st.inst[q.inst], sseed));
          ok[g] = 1;
        } catch (const serve::BusyError&) {
          ++busy_count;
        }
        return ok[g] != 0;
      });
  busy += busy_count.load();
  return r;
}

bool rung_passes(const perf::OpenLoopResult& r) {
  const bool all_ok =
      std::all_of(r.ok.begin(), r.ok.end(), [](char b) { return b != 0; });
  const std::size_t backlog_limit =
      std::max<std::size_t>(2, r.latency_ms.size() / 20);
  return all_ok && perf::percentile(r.latency_ms, 99.0) <= kP99LimitMs &&
         r.backlog_at_end <= backlog_limit;
}

void report_phase(Report& rep, const std::string& name,
                  const perf::OpenLoopResult& r, double rate) {
  rep.timing(name + ".latency_ms", r.latency_ms);
  const perf::Summary late = perf::summarize(r.late_ms);
  std::ostringstream line;
  line << name << ": offered " << rate << " req/s for " << r.window_s
       << " s; generator late " << perf::percentile_label(late.tail_q) << " "
       << late.tail << " ms; backlog at window end " << r.backlog_at_end;
  rep.note(line.str());
}

void run_served_e2e(std::uint64_t seed, double seconds,
                    const std::string& worker, Report& rep) {
  Tracer off(false);
  std::vector<std::vector<std::uint64_t>> firsts;
  ServedState st = timed_setups<ServedState>(rep, [&](int) {
    ServedState s = served_setup(seed, worker, off);
    firsts.push_back({s.first_digest});
    return s;
  });
  check_first_runs(rep, firsts, "first runs");

  // Time split: lo 20%, hi 10%, saturation 55% (it carries the guarded
  // throughput, so it gets the most time), the max_rps ladder the rest.
  const double lo_s = 0.2 * seconds, hi_s = 0.1 * seconds,
               sat_s = 0.55 * seconds;
  const std::size_t lo_n = static_cast<std::size_t>(kLoRate * lo_s);
  const std::size_t hi_n = static_cast<std::size_t>(kHiRate * hi_s);
  const double ladder_top = kHiRate * std::pow(kLadderStep, kLadderRungs - 1);
  // No phase can complete requests faster than the ladder's top rate.
  const std::size_t cap =
      lo_n + hi_n + static_cast<std::size_t>(ladder_top * seconds);
  const std::uint64_t sseed = session_seed(seed);
  const std::vector<ServedRequest> stream = make_stream(cap, st.inst.size(), seed);
  std::vector<serve::DaemonClient::RunResult> results(cap);
  std::vector<char> ok(cap, 0);
  std::uint64_t busy = 0;

  std::size_t next = 0;
  const perf::OpenLoopResult lo =
      served_phase(st, stream, next, lo_n, kLoRate, sseed, results, ok, busy);
  next += lo_n;
  const perf::OpenLoopResult hi =
      served_phase(st, stream, next, hi_n, kHiRate, sseed, results, ok, busy);
  next += hi_n;
  report_phase(rep, "lo", lo, kLoRate);
  report_phase(rep, "hi", hi, kHiRate);

  // Saturation: every connection sends its next request as soon as the
  // last one returns, so the fleet never idles.
  std::atomic<std::uint64_t> sat_busy{0};
  const perf::ClosedLoopResult sat = perf::run_closed_loop(
      sat_s, static_cast<int>(st.clients.size()), cap - next,
      [&](int c, std::size_t i) {
        const std::size_t g = next + i;
        const ServedRequest& q = stream[g];
        try {
          results[g] = st.clients[static_cast<std::size_t>(c)]->run(
              to_request(q, st.inst[q.inst], sseed));
          ok[g] = 1;
        } catch (const serve::BusyError&) {
          ++sat_busy;
        }
        return ok[g] != 0;
      });
  next += sat.sent;
  busy += sat_busy.load();
  const double sat_rps =
      perf::median_block_rate(sat.done_s, sat.window_s, kBlockSeconds);
  rep.set("sat_rps", sat_rps, "1/s");
  rep.note("sat_rps " + std::to_string(sat_rps) + " 1/s (" +
           std::to_string(st.clients.size()) +
           " connections in a closed loop; median of 1 s blocks; " +
           std::to_string(sat.done_s.size()) + " requests in " +
           std::to_string(sat.window_s) + " s)");

  // max_rps: the highest rung of the fixed ladder that passes.  No rung
  // above the saturated throughput can hold its rate, so the search
  // walks down from the highest rung at or below it; rung 0 is the hi
  // rate, judged by the hi phase itself.
  const Clock::time_point ladder_t0 = Clock::now();
  const double ladder_s = seconds - lo_s - hi_s - sat_s;
  int rung = 0;
  while (rung + 1 < kLadderRungs &&
         kHiRate * std::pow(kLadderStep, rung + 1) <= sat_rps)
    ++rung;
  int passed = -1;
  std::ostringstream probes;
  for (; rung > 0 && seconds_since(ladder_t0) < ladder_s; --rung) {
    const double rate = kHiRate * std::pow(kLadderStep, rung);
    const std::size_t n = static_cast<std::size_t>(rate * kRungSeconds);
    if (next + n > cap) break;
    const perf::OpenLoopResult r =
        served_phase(st, stream, next, n, rate, sseed, results, ok, busy);
    next += n;
    const bool pass = rung_passes(r);
    probes << " " << static_cast<int>(rate) << (pass ? "+" : "-");
    if (pass) {
      passed = rung;
      break;
    }
  }
  if (passed < 0 && rung == 0 && rung_passes(hi)) passed = 0;
  const double max_rps = passed >= 0 ? kHiRate * std::pow(kLadderStep, passed)
                         : rung_passes(lo) ? kLoRate
                                           : 0.0;
  rep.set("max_rps", max_rps, "1/s");
  rep.note("max_rps " + std::to_string(max_rps) + " 1/s (p99 limit " +
           std::to_string(kP99LimitMs) + " ms; probes" + probes.str() + ")");

  // Peak RSS of the generator + daemon (this process) and every worker.
  double rss = vm_hwm_mib("self");
  for (std::int64_t pid : st.daemon->worker_pids())
    rss += vm_hwm_mib(std::to_string(pid));
  rep.set("peak_rss_mb", rss, "MiB");

  results.resize(next);
  ok.resize(next);
  for (std::size_t i = 0; i < next; ++i)
    rep.checks.expect(ok[i], "request " + std::to_string(i) + " failed or BUSY");
  rep.note("busy rejections " + std::to_string(busy));
  st.clients.clear();
  st.daemon->stop();
  check_served(rep, st, stream, results, ok, sseed);
}

void run_served_traced(std::uint64_t seed, double seconds,
                       const std::string& worker, Report& rep, Tracer& tr) {
  ServedState st = served_setup(seed, worker, tr);
  report_setup_layers(rep, tr);
  const std::uint64_t sseed = session_seed(seed);
  const std::size_t lo_n =
      static_cast<std::size_t>(kLoRate * std::max(0.5 * seconds, 1.0));
  constexpr int kOps = 40;
  const std::vector<ServedRequest> stream =
      make_stream(lo_n + kOps, st.inst.size(), seed);

  // Transport floor: 1-shot warm requests on one connection.
  {
    ServedRequest r;
    r.points = {st.inst.front().angles};
    shard::Request q = to_request(r, st.inst.front(), sseed);
    q.shots = 1;
    q.end = 1;
    std::vector<double> rtt;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      st.clients.front()->run(q);
      rtt.push_back(ms_between(t0, Clock::now()));
    }
    rep.set("serve.rtt_ms_p50", perf::median(rtt), "ms");
  }

  // The lo-rate open loop, with DaemonStats polled beside it.
  std::vector<serve::DaemonClient::RunResult> results(stream.size());
  std::vector<char> ok(stream.size(), 0);
  std::uint64_t busy = 0;
  const serve::DaemonStats before = st.daemon->stats();
  std::atomic<bool> polling{true};
  std::uint64_t depth_max = 0, polls = 0, busy_seats = 0;
  std::thread poller([&] {
    while (polling.load()) {
      const serve::DaemonStats s = st.daemon->stats();
      depth_max = std::max(depth_max, s.queue_depth);
      for (const serve::WorkerStats& w : s.workers) busy_seats += w.busy;
      ++polls;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const perf::OpenLoopResult lo =
      served_phase(st, stream, 0, lo_n, kLoRate, sseed, results, ok, busy);
  polling = false;
  poller.join();
  const serve::DaemonStats after = st.daemon->stats();
  std::size_t warm = 0, slices = 0, done = 0;
  for (std::size_t i = 0; i < lo_n; ++i)
    if (ok[i]) {
      ++done;
      warm += results[i].warm_hit;
      slices += results[i].slices;
    }
  rep.set("serve.warm_hit_ratio", done ? static_cast<double>(warm) / done : 0.0,
          "ratio");
  rep.set("serve.slices_per_request",
          done ? static_cast<double>(slices) / done : 0.0, "count");
  rep.set("serve.queue_depth_max", static_cast<double>(depth_max), "count");
  rep.set("serve.worker_busy_frac",
          polls ? static_cast<double>(busy_seats) / (polls * kServedWorkers)
                : 0.0,
          "ratio");
  rep.set("serve.busy_rejections",
          static_cast<double>(after.busy_rejections - before.busy_rejections),
          "count");
  rep.set("serve.redispatched",
          static_cast<double>(after.slices_redispatched -
                              before.slices_redispatched),
          "count");
  rep.set("gen.late_ms_p99", perf::percentile(lo.late_ms, 99.0), "ms");
  report_phase(rep, "lo", lo, kLoRate);
  rep.note("warm hits " + std::to_string(warm) + " of " + std::to_string(done) +
           " requests; " + std::to_string(polls) + " stats polls");

  // kOps more requests, one at a time on one connection, and replayed
  // through the codec and compute layers: client encode, daemon frame,
  // worker decode + prepare + execute + encode, client decode.  The
  // replay runs every slice on one thread.
  std::vector<double> req_bytes, resp_bytes;
  std::vector<std::map<std::size_t, Prepared>> warm_cache(2);  // worker LRU
  std::vector<std::vector<shard::Response>> replayed(
      2, std::vector<shard::Response>(kOps));
  const PassTimes t = run_passes(
      kOps, tr,
      [&](int i) {
        const ServedRequest& q = stream[lo_n + i];
        results[lo_n + i] =
            st.clients.front()->run(to_request(q, st.inst[q.inst], sseed));
        ok[lo_n + i] = 1;
      },
      [&](int i, Tracer& pt) {
        const ServedRequest& q = stream[lo_n + i];
        const std::uint64_t id = lo_n + i + 1;
        auto root = pt.span("op", id);
        const shard::Request req = to_request(q, st.inst[q.inst], sseed);
        std::vector<std::byte> frame;
        {
          auto s = pt.span("shard.encode_request", id);
          frame = shard::encode_request(req);
        }
        {
          auto s = pt.span("serve.submit_frame", id);
          serve::decode_submit(serve::encode_submit({id, req}));
        }
        shard::Request wreq;
        {
          auto s = pt.span("shard.decode_request", id);
          wreq = shard::decode_request(frame);
        }
        shard::Response resp;
        std::map<std::size_t, Prepared>& cache = warm_cache[pt.enabled()];
        for (std::size_t p = 0; p < wreq.points.size(); ++p) {
          const std::size_t key = q.key * kServedPoints + p;
          auto it = cache.find(key);
          if (it == cache.end())
            it = cache
                     .emplace(key, replay_prepare(wreq.workload,
                                                  wreq.points[p], pt, id))
                     .first;
          if (q.sample)
            resp.outcomes = replay_shots(wreq.workload, it->second, sseed, 0,
                                         kServedShots, false, pt, id);
          else
            resp.values.push_back(replay_expectation(
                wreq.workload, it->second, sseed, kExpectationStreamBase + p,
                pt, id));
        }
        std::vector<std::byte> out;
        {
          auto s = pt.span("shard.encode_response", id);
          out = shard::encode_response(resp);
        }
        serve::Slice slice;
        {
          auto s = pt.span("serve.slice_frame", id);
          slice = serve::decode_slice(serve::encode_slice(
              {id, 0, req.end, resp.outcomes, resp.values}));
        }
        shard::Response& back = replayed[pt.enabled()][i];
        {
          auto s = pt.span("shard.decode_response", id);
          back = shard::decode_response(out);
        }
        if (pt.enabled()) {
          req_bytes.push_back(static_cast<double>(frame.size()));
          resp_bytes.push_back(static_cast<double>(out.size()));
        }
        rep.checks.expect(slice.outcomes == back.outcomes &&
                              perf::bit_equal(slice.values, back.values),
                          "slice frame of request " + std::to_string(id) +
                              " does not round-trip");
      });
  for (int i = 0; i < kOps; ++i)
    for (int traced = 0; traced < 2; ++traced) {
      const shard::Response& back = replayed[traced][i];
      const auto& want = results[lo_n + i];
      rep.checks.expect(back.outcomes == want.outcomes &&
                            perf::bit_equal(back.values, want.values),
                        std::string(traced ? "traced" : "untraced") +
                            " replay of request " + std::to_string(lo_n + i) +
                            " differs from the daemon");
    }
  report_trace(rep, tr, t, kServedWorkers, kOps);
  rep.set("shard.request_bytes", perf::mean(req_bytes), "B");
  rep.set("shard.response_bytes", perf::mean(resp_bytes), "B");
  {
    const std::vector<perf::Span> spans = tr.spans();
    double shard_ms = 0.0, frame_ms = 0.0;
    for (const perf::Span& s : spans) {
      const double d = s.end_ms - s.start_ms;
      if (s.name == "shard.encode_request" || s.name == "shard.decode_response")
        shard_ms += d;
      if (s.name == "serve.submit_frame" || s.name == "serve.slice_frame")
        frame_ms += d;
    }
    rep.set("shard.codec_us", shard_ms * 1e3 / kOps, "us");
    rep.set("serve.frame_codec_us", frame_ms * 1e3 / kOps, "us");
  }

  rep.set("api.cache_hits", 0.0, "count");
  rep.set("api.cache_misses", 0.0, "count");
  rep.set("api.sample_call_ms", 0.0, "ms");
  rep.set("api.shots_per_s_1t", 0.0, "1/s");
  rep.set("api.thread_speedup", 0.0, "x");
  // The heaviest served instance (most qubits, then most cost terms)
  // carries the layer timings.
  const auto largest = std::max_element(
      st.inst.begin(), st.inst.end(), [](const Instance& a, const Instance& b) {
        return std::pair(a.n, a.spec.cost.terms().size()) <
               std::pair(b.n, b.spec.cost.terms().size());
      });
  report_pipeline(rep, *largest);
  report_absent(rep, kOptMetrics);

  st.clients.clear();
  st.daemon->stop();
  check_served(rep, st, stream, results, ok, sseed);
}

// =============================================================================

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string worker;
  std::string report;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--worker") a.worker = v;
    else if (k == "--report") a.report = v;
    else if (k == "--spans") a.spans = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload.empty() || a.report.empty())
    throw std::runtime_error("--workload and --report are required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be positive");
  return a;
}

SampleConfig sample_config(const std::string& workload) {
  if (workload == "mbqc-sample")
    return {kSampleFamilies, kSampleN, kSampleShots, Precision::F64};
  if (workload == "large-n")
    return {{"regular"}, kLargeN, kLargeShots, Precision::F64};
  if (workload == "large-n-f32")
    return {{"regular"}, kLargeN, kLargeShots, Precision::F32};
  throw std::runtime_error("unknown workload '" + workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (std::string(MBQ_PERF_BUILD_TYPE) != "Release")
      throw std::runtime_error(std::string("refusing to measure a ") +
                               MBQ_PERF_BUILD_TYPE +
                               " build of libmbq; configure with "
                               "CMAKE_BUILD_TYPE=Release");
    const perf::IdlePollers pollers(
        static_cast<int>(std::thread::hardware_concurrency()));
    Report rep;
    stamp_context(rep);
    std::cout << "== " << args.workload << " (seed " << args.seed
              << (args.trace ? ", traced" : "") << ")\n";
    Tracer tr(args.trace);
    const bool served = args.workload == "served";
    if (served && args.worker.empty())
      throw std::runtime_error("served needs --worker");

    if (args.workload == "variational") {
      if (args.trace)
        run_variational_traced(args.seed, rep, tr);
      else
        run_variational_e2e(args.seed, args.seconds, rep);
    } else if (served) {
      if (args.trace)
        run_served_traced(args.seed, args.seconds, args.worker, rep, tr);
      else
        run_served_e2e(args.seed, args.seconds, args.worker, rep);
    } else {
      const SampleConfig c = sample_config(args.workload);
      if (args.trace)
        run_sample_traced(c, args.seed, rep, tr);
      else
        run_sample_e2e(c, args.seed, args.seconds, rep);
    }
    if (!rep.metrics.count("peak_rss_mb"))
      rep.set("peak_rss_mb", vm_hwm_mib("self"), "MiB");
    const double fail_frac =
        rep.checks.attempted()
            ? static_cast<double>(rep.checks.failed()) / rep.checks.attempted()
            : 1.0;
    rep.set("fail_frac", fail_frac, "ratio");
    rep.note("fail_frac " + std::to_string(fail_frac) + " (" +
             std::to_string(rep.checks.failed()) + " of " +
             std::to_string(rep.checks.attempted()) + ")");
    for (const std::string& f : rep.checks.failures())
      std::cout << "  FAILED: " << f << "\n";
    rep.context.emplace_back("idle_pollers", std::to_string(pollers.running()));
    rep.write(args.report);
    if (args.trace && !args.spans.empty()) tr.write_json(args.spans);
    return rep.checks.failed() == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "mbq_perf: " << e.what() << "\n";
    return 2;
  }
}

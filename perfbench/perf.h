#pragma once
// Measurement rules of the MBQC-QAOA benchmark, kept apart from the
// workload program (mbq_perf.cpp) so perf_tests can pin each one:
//
//   * sample statistics: nearest-rank percentiles and the tail rule
//     (report the highest percentile that has at least ten samples
//     beyond it);
//   * the span recorder behind the traced run and its self-time
//     arithmetic;
//   * the open-loop request generator, which times every request from
//     the moment it was DUE, so a stall is charged to every request
//     queued behind it, and the closed-loop saturation run with its
//     median-of-blocks rate;
//   * the correctness checks every workload runs (statistical mean test,
//     outcome digests, bit-exact comparison) and their tally;
//   * the metric-name grammar;
//   * the idle-priority CPU pollers that keep a VM's vCPUs scheduled.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perf {

// --- statistics --------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 100]) of the samples; 0 when empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that has
/// at least ten samples beyond it (n * (1 - q / 100) >= 10); below 100
/// samples that is the median.
double tail_percentile(std::size_t n);

/// "p50", "p90", "p99", "p99.9", ...
std::string percentile_label(double q);

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 50.0;  // tail_percentile(n)
  double tail = 0.0;     // percentile(samples, tail_q)
};
Summary summarize(const std::vector<double>& samples);

// --- metric names ------------------------------------------------------------

/// [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 chars.
bool valid_metric_name(const std::string& name);

// --- span recorder -----------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "mbqc.shot"
  double start_ms = 0.0;
  double end_ms = 0.0;
  int id = 0;
  int parent = -1;  // -1 = root
  std::uint64_t request = 0;
  int thread = 0;
};

/// Records spans in memory (written out once, at exit).  A disabled
/// tracer hands out no-op scopes, so the same replay code measures the
/// untraced baseline.  Thread-safe: parallel shot loops open child spans
/// on worker threads and name their parent explicitly.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Parent that means "the innermost open span of this thread".
  static constexpr int kInnermost = -2;

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t request, int parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// This span's id, to parent spans opened on other threads (-1 when
    /// the tracer is disabled).
    int id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  Scope span(const char* name, std::uint64_t request = 0,
             int parent = kInnermost) {
    return Scope(enabled_ ? this : nullptr, name, request, parent);
  }

  std::vector<Span> spans() const;
  /// Adds an already-timed span (tests, and spans measured elsewhere).
  int record(Span s);
  double now_ms() const;

  /// {"spans": [{name, start_ms, end_ms, id, parent, request, thread}]}
  void write_json(const std::string& path) const;

 private:
  int open(const char* name, std::uint64_t request, int parent);
  void close(int id);

  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers (children may overlap when
/// they ran on several threads).  Indexed like `spans` (ids must equal
/// positions, as Tracer assigns them).
std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& span_name);

/// Sum of self times per layer.
std::map<std::string, double> layer_self_ms(const std::vector<Span>& spans);

// --- open-loop generator -----------------------------------------------------

struct OpenLoopResult {
  /// Per request, in due order: completion time minus DUE time, and how
  /// late the generator handed it to a sender (hand-off minus due).
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<char> ok;  // char, not bool: senders write it concurrently
  /// Requests that were due inside the window but not yet completed when
  /// the window closed — a backlog that grows with the rate.
  std::size_t backlog_at_end = 0;
  double window_s = 0.0;
};

/// Offer `count` requests at `rate` per second (request i is due i / rate
/// seconds after the start) over `connections` blocking senders.
/// `send(conn, i)` executes request i on connection `conn` and returns
/// whether it succeeded; a sender takes the next due request as soon as
/// it is free, so a slow response delays everything queued behind it and
/// that wait is charged to those requests' latency.
OpenLoopResult run_open_loop(
    std::size_t count, double rate, int connections,
    const std::function<bool(int conn, std::size_t i)>& send);

// --- closed-loop saturation --------------------------------------------------

struct ClosedLoopResult {
  /// Completion time of every request that finished inside the window,
  /// in seconds since the start, and how many were sent in all.
  std::vector<double> done_s;
  std::size_t sent = 0;
  std::size_t failed = 0;
  double window_s = 0.0;
};

/// `connections` blocking senders, each sending its next request as soon
/// as the previous one returns, for `seconds` or until `max_requests`
/// were sent.  `send(conn, i)` runs request i (a shared, increasing
/// index) and returns whether it succeeded.
ClosedLoopResult run_closed_loop(
    double seconds, int connections, std::size_t max_requests,
    const std::function<bool(int conn, std::size_t i)>& send);

/// Median of the completion rates over consecutive blocks
/// [k*block_s, (k+1)*block_s) that end inside the window, each measured
/// from the last completion before the block to its own last one; the
/// whole-window rate when no block has one.  `done_s` must be sorted.
double median_block_rate(const std::vector<double>& done_s, double window_s,
                         double block_s);

// --- CPU keep-alive ----------------------------------------------------------

/// Keeps `cpus` threads polling at SCHED_IDLE priority for its lifetime.
/// A hypervisor deschedules a halted vCPU, and on the 4-vCPU KVM guest
/// the bounds were set on, threads that started after an idle spell ran
/// at a fraction of full speed for about a second until every vCPU got a
/// core back — so bursty phases (set-up, a served request) measured the
/// host's scheduler.  A SCHED_IDLE thread runs only when nothing else
/// wants its CPU, so any thread of the program preempts it at once (the
/// guest-side equivalent of the kernel's haltpoll idle polling).  Where SCHED_IDLE
/// is refused no poller runs.
class IdlePollers {
 public:
  explicit IdlePollers(int cpus);
  ~IdlePollers();
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

  /// Pollers that obtained SCHED_IDLE and are polling.
  int running() const noexcept { return running_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> running_{0};
  std::vector<std::thread> threads_;  // declared after what they use
};

// --- correctness -------------------------------------------------------------

/// Tally of correctness checks; every failed check counts in fail_frac
/// and makes the benchmark exit non-zero.
class Checks {
 public:
  /// Records one check; returns `ok`.  Failures are kept with `what`.
  bool expect(bool ok, const std::string& what);
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// The largest distance, in standard errors, that a sampled mean may lie
/// from the exact expectation.  At 5 sigma a correct sampler fails about
/// once in 10^6 checks.
inline constexpr double kMaxStdErrors = 5.0;

struct MeanCheck {
  double mean = 0.0;
  double std_error = 0.0;
  double exact = 0.0;
  double z = 0.0;  // |mean - exact| / std_error
  bool ok = false;
};
/// Sampled costs against the exact <C>.  A zero-variance sample must hit
/// the exact value to 1e-9.
MeanCheck check_mean(const std::vector<double>& costs, double exact,
                     double max_std_errors = kMaxStdErrors);

/// FNV-1a 64 over an outcome stream, for comparing runs of one set.
std::uint64_t digest(const std::vector<std::uint64_t>& outcomes);
/// FNV-1a 64 over the IEEE bit patterns of values.
std::uint64_t digest_bits(const std::vector<double>& values);

/// Bit-exact equality of two value vectors (no tolerance).
bool bit_equal(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perf

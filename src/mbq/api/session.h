#pragma once
// Session: the user-facing façade over a (workload, backend) pair.
//
// A Session owns what the stateless backends deliberately do not:
//   * the root Rng — one seed reproduces a whole experiment;
//   * an LRU cache of prepare() artifacts keyed by the exact angle
//     values, so the variational outer loop (which revisits angles and
//     moves in small simplexes) never recompiles a pattern it has seen;
//   * the choice of where each call runs.
//
// Construct with a registry name to stay decoupled from concrete
// adapters:
//
//   auto session = api::Session(api::Workload::maxcut(g), "mbqc");
//   real e = session.expectation(angles);
//   auto shots = session.sample(angles, 1024);
//   std::vector<real> es = session.expectation_batch(points);
//   auto pending = session.expectation_async(angles);   // overlaps work
//
// One request path.  sample() is a sample_batch() of one point;
// sample_batch() and expectation_batch() each build one shard::Request
// and run it in three steps:
//   1. check phase: every point is support-checked and prepared through
//      the Session's cache, in this process, wherever step 3 runs.  This
//      is the one cache rule: hits, misses and entries come out the same
//      in every execution mode;
//   2. the call counter advances by the call's size;
//   3. an executor evaluates the request.  In-process, the shared eval
//      loop shard::evaluate fans (point, shot) pairs or points out on
//      common/parallel; otherwise a serve::DaemonClient runs it on a
//      worker fleet, where each mbq_worker runs the same loop on its
//      slice.
//
// Threads.  A Session has no thread setting of its own: in-process work
// spends the process's one budget, mbq::num_threads() (OMP_NUM_THREADS,
// or set_num_threads()), by the rule in common/parallel.h.  A call of
// two or more items runs its items in parallel and each item's chunked
// simulator kernels on one thread; a call of one item gives its kernels
// the whole budget.  A sharded call's fleet splits the budget over its
// workers (serve/daemon.h).
//
// Determinism contract: shot s of sample call k draws
// rng.stream(k).stream(s), and the k-th expectation this session
// evaluates — through expectation(), a batch slot, or a future — draws
// rng.stream(kExpectationStreamBase + k).  Both are pure functions of
// (seed, k, s), assigned in shard::evaluate alone, so results are
// bit-identical at every thread count, process count and transport.
//
// Errors are part of the contract: a call raises what the serial loop
// would — the lowest failing point's check-phase error if any point
// fails its check, else the lowest-index evaluation error — with the
// same message in every mode.  A check-phase failure leaves the call
// counter untouched; an evaluation failure consumes the call's indices.
//
// Call-index bookkeeping: expectation_calls_ / sample_calls_ advance on
// the CALLING thread, synchronously, before any entry point returns —
// expectation_async in particular assigns its stream index before
// handing back the future.  Stream assignment is therefore a function of
// SUBMISSION order alone: any interleaving of expectation(),
// expectation_batch() and expectation_async() calls evaluates point
// number k (in submission order) on stream kExpectationStreamBase + k,
// however the futures later resolve.  The members are not synchronized —
// a Session must be driven from one thread (concurrent pending futures
// are fine; concurrent calls INTO the session are not).
//
// Executors.  With a daemon endpoint in effect (options or
// MBQ_DAEMON_ENDPOINT), every batch call runs on that mbqd and never
// falls back: an unreachable daemon, or a workload or backend that
// cannot travel, is an Error.  Otherwise, with num_processes >= 2, the
// first call of at least two items starts an embedded serve::Daemon
// with num_processes mbq_worker processes on a private unix socket.  It
// lives as long as the Session, and a dead or wedged worker is respawned
// and its slice re-dispatched.  A call runs in-process instead, with
// identical results, when it has fewer than two items, the workload
// cannot cross a process boundary (shard::unshardable_reason), the
// backend is an instance or a runtime-registered name, or no mbq_worker
// executable is found (shard::resolve_worker_path).  Single-point
// expectation() and expectation_async() always run in-process.

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mbq/api/backend.h"
#include "mbq/common/rng.h"
#include "mbq/opt/optimizer.h"

namespace mbq::shard {
enum class TaskKind : std::uint8_t;
struct Request;
struct Response;
}  // namespace mbq::shard

namespace mbq::serve {
class Daemon;
class DaemonClient;
}  // namespace mbq::serve

namespace mbq::api {

struct SessionOptions {
  std::uint64_t seed = 0x51E55ED5EEDULL;
  /// Entries kept in the per-angle prepare() cache before LRU eviction.
  std::size_t cache_capacity = 64;
  /// Worker processes for sample/sample_batch/expectation_batch.  0 (the
  /// default) reads the MBQ_NUM_PROCESSES environment variable, falling
  /// back to 1; 1 never shards; >= 2 runs calls on an embedded mbqd with
  /// that many mbq_worker processes.  Results are bit-identical at every
  /// value — like the thread budget, this is purely a wall-clock knob
  /// (see "Executors" and "Threads" above).
  int num_processes = 0;
  /// Explicit path to the mbq_worker executable; empty uses
  /// shard::resolve_worker_path's search ($MBQ_WORKER, then next to the
  /// running executable).
  std::string worker_path{};
  /// Endpoint of a running mbqd serving daemon ("unix:/path" or
  /// "tcp:host:port"); empty (the default) reads the MBQ_DAEMON_ENDPOINT
  /// environment variable, and when that is unset too the session runs
  /// locally.  With an endpoint in effect, sample(), sample_batch() and
  /// expectation_batch() execute on that daemon's shared worker fleet
  /// (serve/daemon.h) instead of an embedded one: the daemon streams
  /// finished slices back and the session merges them in index order, so
  /// results are bit-identical to local execution.  Remote mode never
  /// falls back silently — an unreachable daemon, a version mismatch, or
  /// a workload that cannot cross a process boundary is a loud Error.
  std::string daemon_endpoint{};
};

struct Shot {
  std::uint64_t x = 0;
  real cost = 0.0;
};

struct SampleResult {
  std::vector<Shot> shots;

  const Shot& best() const;
  real mean_cost() const;
  /// Occurrence count per bitstring, length 2^num_qubits.  Throws Error
  /// for num_qubits outside [1, 24]: beyond 24 the dense histogram would
  /// silently allocate gigabytes — aggregate the shots directly instead.
  std::vector<std::int64_t> counts(int num_qubits) const;
  /// Sparse occurrence counts keyed by observed bitstring.  Memory scales
  /// with the number of DISTINCT outcomes, not 2^n, so there is no
  /// register-width cap — this is what the bench::distance toolkit
  /// aggregates on large-n corpus runs where counts() must refuse.
  std::map<std::uint64_t, std::int64_t> counts_map() const;
};

class Session {
 public:
  /// Resolve the backend from the global BackendRegistry by name.
  Session(Workload workload, const std::string& backend_name,
          SessionOptions options = {});
  Session(Workload workload, std::shared_ptr<Backend> backend,
          SessionOptions options = {});
  ~Session();  // out of line: owns incomplete-type daemon objects

  // Deliberately no mutable workload() accessor: the prepare() cache is
  // keyed by angles only, so workload options must not change under a
  // live Session — configure the Workload before constructing.
  const Workload& workload() const noexcept { return workload_; }
  const Backend& backend() const noexcept { return *backend_; }
  std::string backend_name() const { return backend_->name(); }
  Capabilities capabilities() const { return backend_->capabilities(); }

  /// Empty when the backend can run this workload at these angles.
  std::string unsupported_reason(const qaoa::Angles& a) const;
  /// Throws Error with the backend's reason when unsupported.
  void require_supported(const qaoa::Angles& a) const;

  /// <C> at the given angles (exact on every built-in backend).
  real expectation(const qaoa::Angles& a);

  /// <C> at every given angle point, prepared AND evaluated concurrently
  /// on common/parallel.  Values are bit-identical to calling
  /// expectation() on each point in order, at every thread count.
  std::vector<real> expectation_batch(std::span<const qaoa::Angles> points);

  /// <C> at the given angles as a future; the support check and the
  /// prepare-cache update run on the calling thread (the cache is not
  /// thread-safe), only the stateless backend evaluation is offloaded.
  /// The Session must outlive the returned future.
  std::future<real> expectation_async(const qaoa::Angles& a);

  /// `shots` measurements of the problem register, batched in parallel,
  /// reproducible from the session seed regardless of thread count.
  SampleResult sample(const qaoa::Angles& a, int shots);

  /// One SampleResult per angle point; all (point, shot) pairs run
  /// concurrently.  Result i is bit-identical to the i-th of consecutive
  /// serial sample(points[i], shots) calls, at every thread count.
  std::vector<SampleResult> sample_batch(std::span<const qaoa::Angles> points,
                                         int shots);

  /// Highest-cost shot of a fresh batch.
  Shot best_of(const qaoa::Angles& a, int shots);

  /// The variational objective: flat angle vector -> expectation.  The
  /// closure references this Session (and its cache); the Session must
  /// outlive it.
  opt::Objective objective();

  /// Batch-aware objective over expectation_batch, for the optimizers'
  /// batch paths (opt::nelder_mead/grid_search/spsa BatchObjective
  /// overloads).  Same lifetime rule as objective().
  opt::BatchObjective batch_objective();

  // --- cache introspection ---------------------------------------------
  std::size_t cache_entries() const noexcept { return cache_.size(); }
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t cache_misses() const noexcept { return cache_misses_; }

  // --- sharding introspection ------------------------------------------
  /// Live worker processes of this session's embedded daemon; 0 until a
  /// call starts it (sharding not requested, remote, or every call so far
  /// ran in-process).
  int shard_workers() const;
  /// The num_processes value in effect (options / MBQ_NUM_PROCESSES).
  int num_processes() const noexcept { return num_processes_; }

  // --- remote transport ------------------------------------------------
  /// True when a daemon endpoint is in effect (options or
  /// MBQ_DAEMON_ENDPOINT): batch/sample calls execute on mbqd.
  bool remote() const noexcept { return !daemon_endpoint_.empty(); }
  const std::string& daemon_endpoint() const noexcept {
    return daemon_endpoint_;
  }

 private:
  /// Expectation evaluations draw from the upper half of the stream-index
  /// space so they can never collide with sample() call streams.
  static constexpr std::uint64_t kExpectationStreamBase = 1ULL << 63;

  /// The check phase: cache lookups and insertions stay serial, but the
  /// support checks and prepare() calls of all missing points run
  /// concurrently (backends are stateless).  Errors are rethrown for the
  /// lowest-indexed failing point with every earlier point cached and
  /// counted, matching the serial loop.  Hits skip the check — entries
  /// are only inserted after it passed and the workload is immutable
  /// while the Session lives.
  std::vector<std::shared_ptr<const Prepared>> checked_prepared_batch(
      std::span<const qaoa::Angles> points);
  const Prepared* peek_cache(const std::vector<real>& key) const;
  void insert_cache(std::vector<real> key,
                    std::shared_ptr<const Prepared> prepared);

  /// A request over `points` with the fields every call shares.
  shard::Request request(shard::TaskKind kind,
                         std::span<const qaoa::Angles> points) const;
  /// Run the check phase, advance `counter` by `count`, then evaluate on
  /// executor(req.end).  Throws the request's error with the counter
  /// rule of the header comment applied.
  shard::Response run(const shard::Request& req, std::uint64_t& counter,
                      std::uint64_t count);
  /// The daemon a call of `items` independent pieces runs on, or nullptr
  /// to run in-process — every fallback rule lives here.  Connects (and
  /// for num_processes >= 2 starts the embedded daemon) on first use.
  serve::DaemonClient* executor(std::uint64_t items);

  Workload workload_;
  std::shared_ptr<Backend> backend_;
  SessionOptions options_;
  Rng rng_;
  std::uint64_t sample_calls_ = 0;
  std::uint64_t expectation_calls_ = 0;

  /// Built-in registry key the backend was created from.  Empty — and
  /// the session never shards — when the Session was handed a backend
  /// INSTANCE (whose configuration a worker could not reproduce from a
  /// name) or a runtime-registered key (absent from a worker's
  /// registry).
  std::string registry_key_;
  int num_processes_ = 1;  // resolved from options / MBQ_NUM_PROCESSES
  std::string daemon_endpoint_;  // options / MBQ_DAEMON_ENDPOINT
  std::unique_ptr<serve::Daemon> embedded_;  // num_processes >= 2, lazy
  std::unique_ptr<serve::DaemonClient> daemon_;  // lazy

  struct CacheEntry {
    std::vector<real> key;  // exact flattened angles
    std::shared_ptr<const Prepared> prepared;
    std::uint64_t last_used = 0;
  };
  std::vector<CacheEntry> cache_;
  std::uint64_t cache_clock_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

}  // namespace mbq::api

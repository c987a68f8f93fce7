#pragma once
// The mbqd serving core: a persistent, multi-tenant daemon that accepts
// spec-carrying shard requests from many concurrent Sessions and
// schedules their shot slices across a long-lived worker fleet.
//
// Architecture (one background thread, one poll() event loop):
//
//   clients ──unix/tcp──▶ event loop ──socketpair──▶ mbq_worker fleet
//                           │  per-client FIFOs, round-robin dispatch
//                           │  warm-cache bookkeeping + affinity
//                           └─ stats, deadlines, respawn
//
//   * Scheduling: each connection owns a FIFO of pending slices; free
//     workers are fed round-robin across connections, so one chatty
//     client cannot starve the others.  A connection that already has
//     max_pending_requests unanswered requests gets a typed BUSY frame
//     for the next one — backpressure is an answer, never a hang.
//   * Streaming: every finished slice is forwarded to its client
//     immediately; the client merges by global index (frames.h
//     SliceMerger), so the merged result is bit-identical to the local
//     path regardless of worker count, scheduling order, or which
//     worker ran which slice.
//   * Fault tolerance: a worker that dies (crash, SIGKILL) is detected
//     as EOF on its channel; any complete response already in the pipe
//     is used, an unfinished slice is re-queued at the front, and the
//     seat is respawned.  Effects on the merged result are at-most-once
//     by construction: a slice's payload is a pure function of (seed,
//     indices), and the client's merger rejects duplicate coverage.  A
//     worker that is alive but wedged is killed after worker_timeout_ms
//     (when enabled) and handled the same way.
//   * Threads: start() splits the process's thread budget
//     (num_threads(), common/parallel.h) over the seats — ⌊B/W⌋ each,
//     one more for the first B mod W, at least 1 — and every worker,
//     respawns included, runs on its seat's share.  Results are
//     bit-identical at every share, as they are at every budget.
//   * Warm cache: workers keep a prepare-artifact LRU keyed by
//     (backend, spec bytes, angles) — see shard/task.h — and the
//     scheduler routes slices of a fingerprint it has seen to the
//     worker that last ran it when one is free.  Repeated (workload,
//     angles) pairs, from any client, skip compilation; the daemon
//     reports hits in DONE frames and aggregate stats, remembering as
//     many points as the workers' LRUs hold together.
//
// Determinism contract: the daemon never invents randomness and never
// rewrites spec bytes; it only cuts [begin, end) into sub-slices with
// shard::rebase_slice, so a request's merged answer is bit-equal to
// running it locally at any worker count, through any schedule, across
// any number of worker deaths.  The same holds for a failed request: it
// is answered with the error the serial loop raises — a check-phase
// failure (support check or prepare, before any stream is drawn) over
// an evaluation failure, then the lowest global index — held until no
// outstanding slice could still report one that wins.
//
// A Session with num_processes >= 2 runs its own Daemon on a private
// unix socket (api/session.h), so process sharding and serving share
// this one fleet manager and its failure model.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mbq/serve/endpoint.h"
#include "mbq/serve/frames.h"

namespace mbq::serve {

struct DaemonOptions {
  /// Endpoint strings to listen on ("unix:/path", "tcp:host:port");
  /// at least one.  tcp port 0 binds an ephemeral port — read it back
  /// from Daemon::endpoints().
  std::vector<std::string> endpoints;
  /// Worker fleet size; 0 reads MBQ_NUM_PROCESSES, falling back to 2.
  int workers = 0;
  /// Explicit mbq_worker path; empty uses shard::resolve_worker_path.
  std::string worker_path;
  /// Reported in HELLO_OK and stats dumps.
  std::string name = "mbqd";
  /// Unanswered requests one connection may hold before SUBMITs bounce
  /// with BUSY.
  int max_pending_requests = 8;
  /// Slices a request is cut into (coarse cap; small requests get fewer).
  /// 0 = 4x the worker count — enough granularity for streaming, re-
  /// dispatch, and fair interleaving without drowning in tiny frames.
  int max_slices_per_request = 0;
  /// Kill-and-redispatch deadline for a single slice, in ms; 0 disables,
  /// -1 (default) reads MBQ_WORKER_TIMEOUT_MS.
  int worker_timeout_ms = -1;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();  // stops if running

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind every endpoint, spawn the fleet on its shares of the calling
  /// process's thread budget, and launch the event loop thread.  Throws
  /// Error (nothing half-started) on bad endpoints, a missing worker
  /// executable, or spawn failure.
  void start();
  /// Graceful shutdown: stop accepting, drop connections, reap the
  /// fleet, remove unix socket files.  Idempotent.
  void stop();
  bool running() const noexcept;

  /// The endpoints actually bound (ephemeral tcp ports resolved).
  const std::vector<Endpoint>& endpoints() const;
  /// Convenience: the first bound tcp/unix endpoint string, for clients.
  std::string endpoint_string() const;

  int workers() const noexcept;
  /// Each seat's thread budget, fixed by the last start().
  const std::vector<int>& worker_threads() const;
  /// Live fleet pids — for fault-injection tests and diagnostics.
  std::vector<std::int64_t> worker_pids() const;
  /// Consistent snapshot of the counters a STATS frame reports.
  DaemonStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mbq::serve

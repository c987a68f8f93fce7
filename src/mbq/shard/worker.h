#pragma once
// Spawning mbq_worker processes — the serving daemon's fleet
// (serve/daemon.h), which also backs every process-sharded Session.
//
// A worker is fork/exec'd with one AF_UNIX stream socket to its parent
// and its thread budget, and loops on (read request frame, execute,
// write response frame) until the parent closes the socket.  The parent
// end is CLOEXEC, so workers never inherit their siblings' channels.

#include <sys/types.h>

#include <string>

namespace mbq::shard {

/// Locate the worker executable: an explicit non-empty `override` wins,
/// then $MBQ_WORKER, then `mbq_worker` next to the running executable
/// (where the CMake target puts it, beside the test binaries), then one
/// directory up (benches and examples run from build subdirectories).
/// Returns "" when none of these exists — the caller should fall back to
/// in-process execution.
std::string resolve_worker_path(const std::string& override_path = {});

/// One fork/exec'd mbq_worker and the parent end of its channel.  The
/// parent fd is CLOEXEC (later siblings never inherit it); closing it
/// EOFs the worker's request loop, which is the normal shutdown path.
/// The worker runs with a thread budget of `threads` (>= 1; its
/// set_num_threads).  The daemon spawns its fleet, and respawns dead
/// workers, through this.  Throws Error when the executable cannot be
/// spawned.
struct SpawnedWorker {
  pid_t pid = -1;
  int fd = -1;
};
SpawnedWorker spawn_worker(const std::string& worker_path, int threads);

/// The daemon's default per-slice deadline: MBQ_WORKER_TIMEOUT_MS, or 0
/// (wait forever) when unset/invalid.  A worker that holds a slice
/// longer — e.g. SIGSTOP'd, or spinning in a kernel call — is killed and
/// its slice re-dispatched.
int worker_timeout_ms();

}  // namespace mbq::shard

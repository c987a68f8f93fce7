#pragma once
// Request execution: the one eval loop behind every Session call and
// every mbq_worker slice.
//
// evaluate() runs a request's items from its points' prepare artifacts
// and owns the stream assignment, so an in-process Session call and a
// worker slice draw the same streams by construction:
//
//   kSample       pair t = (point t / shots, shot t % shots) draws
//                 Rng(seed).stream(base_call + point).stream(shot);
//   kExpectation  point i draws Rng(seed).stream(stream_base + i).
//
// execute_request() is what a worker runs: it builds the backend from
// the registry, prepares through the worker's warm cache, then calls
// evaluate().  Both are pure functions of the request, so results are
// bit-identical wherever they run.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "mbq/api/backend.h"
#include "mbq/api/workload_spec.h"
#include "mbq/shard/protocol.h"

namespace mbq::shard {

/// Evaluate items [req.begin, req.end) of `req` on `backend`; preps[i] is
/// the prepare artifact of req.points[i] (null where the backend caches
/// nothing, or for points outside the slice).  Items fan out over
/// parallel_for_grain(count, grain), so the thread budget
/// (common/parallel.h) goes to the items when there are at least
/// max(grain, 2) of them, and to each item's kernels otherwise; the
/// streams are the same at every thread count and grain.  A Session
/// passes grain 1.  Never throws: a failure becomes an error Response at
/// the lowest failing index, with error_in_eval set (its streams were
/// drawn).
Response evaluate(
    const api::Backend& backend, const Request& req,
    std::span<const std::shared_ptr<const api::Prepared>> preps,
    std::int64_t grain);

/// Execute one request in a worker.  Its workload is first swapped for
/// warm_workload's copy, so a cost table built for an earlier request
/// with the same spec serves this one.  The check phase support-checks
/// and prepares every point the slice touches before any stream is
/// drawn; a failure there is reported at the point's first index in the
/// slice, with error_in_eval unset.  Then evaluate(), whose items share
/// a team only when they hold kParallelGrain amplitudes in all
/// (items x 2^n): an idle worker's team sleeps, and waking it costs
/// more than a smaller slice takes.  Never throws.
Response execute_request(Request req);

/// A spec as the worker caches know it: its exact codec bytes, and
/// their fingerprint, which rejects almost every mismatch in one
/// compare.  Keys are equal only when the bytes are, so a fingerprint
/// collision can never hand one spec another's settings.
struct SpecKey {
  std::uint64_t fingerprint = 0;
  std::vector<std::byte> bytes;

  bool operator==(const SpecKey&) const = default;
};

/// The key of a serializable spec.
SpecKey spec_key(const api::WorkloadSpec& spec);

/// The worker's warm prepare cache keeps at most this many (backend,
/// spec, angles) artifacts, evicting the least recently used first.
inline constexpr std::size_t kPrepCacheCapacity = 32;

/// The worker's warm workload cache holds at most this many bytes of
/// cost tables.
inline constexpr std::uint64_t kWarmTableBytes = std::uint64_t{32} << 20;

/// The cached workload under `key` (the key of w's spec), so that its
/// cost-table memo (api::Workload::cost_table) outlives the frame that
/// decoded w; on a miss, w itself, now cached.  Each entry is charged
/// its table's full 2^n doubles, built or not; least recently used
/// entries leave first once the tables would exceed kWarmTableBytes,
/// and a workload whose table alone exceeds it is not kept.  Not
/// synchronized: only execute_request calls it, before any item fans
/// out.
api::Workload warm_workload(const api::Workload& w, const SpecKey& key);

}  // namespace mbq::shard

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

#include <memory>
#include <span>

#include "mbq/api/backend.h"
#include "mbq/shard/protocol.h"

namespace mbq::shard {

/// Evaluate items [req.begin, req.end) of `req` on `backend`; preps[i] is
/// the prepare artifact of req.points[i] (null where the backend caches
/// nothing, or for points outside the slice).  Items fan out over
/// parallel_for_grain when `parallel`, else run in index order; the
/// streams are the same either way.  Never throws: a failure becomes an
/// error Response at the lowest failing index, with error_in_eval set
/// (its streams were drawn).
Response evaluate(const api::Backend& backend, const Request& req,
                  std::span<const std::shared_ptr<const api::Prepared>> preps,
                  bool parallel = true);

/// Execute one request in a worker.  The check phase support-checks and
/// prepares every point the slice touches before any stream is drawn; a
/// failure there is reported at the point's first index in the slice,
/// with error_in_eval unset.  Then evaluate().  Never throws.
Response execute_request(const Request& req);

}  // namespace mbq::shard

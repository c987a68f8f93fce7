#pragma once
// The parent <-> mbq_worker wire protocol.
//
// Transport: one AF_UNIX stream socket per worker carrying
// length-prefixed frames (u32 little-endian payload size, then the
// payload).  The parent writes one request frame per round, the worker
// answers with exactly one response frame, and a clean EOF on the
// request side tells the worker to exit — there is no other control
// flow.
//
// A request carries everything a fresh process needs to replay a slice
// of the serial loop bit-identically: the workload as its declarative
// WorkloadSpec (api/workload_spec.h — ansatz, cost, graph/weights or
// declarative circuit, compile options, noise knob), the backend
// REGISTRY NAME (the child instantiates its own adapter via
// BackendRegistry — backends are stateless, so same name => same math),
// the session seed, the angle points, and the [begin, end) slice of the
// global stream-index space this worker owns (see plan.h).  Every
// built-in ansatz lowers to a spec and shards; only the CustomCircuit
// escape hatch (an arbitrary std::function) is reported unshardable,
// making the Session fall back in-process.
//
// A response is either Ok + payload (sampled outcomes as u64 bitstrings,
// or expectation values as bit-exact f64s) or Error + the failing global
// index + the exception message, which the parent rethrows as mbq::Error.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mbq/api/workload.h"
#include "mbq/common/serialize.h"
#include "mbq/qaoa/qaoa.h"

namespace mbq::shard {

// --- shardability ------------------------------------------------------

/// Empty when the workload can be reconstructed in a worker process;
/// otherwise the human-readable reason it cannot.
std::string unshardable_reason(const api::Workload& w);
inline bool shardable(const api::Workload& w) {
  return unshardable_reason(w).empty();
}

// --- workload codec ----------------------------------------------------
// Thin wrappers over the WorkloadSpec codec (api/workload_spec.h): the
// shard layer owns the framing, the api layer owns the workload format.

void encode_workload(ByteWriter& out, const api::Workload& w);
/// Throws Error on malformed input (never trusts the frame).
api::Workload decode_workload(ByteReader& in);

void encode_angles(ByteWriter& out, const qaoa::Angles& a);
qaoa::Angles decode_angles(ByteReader& in);

// --- requests ----------------------------------------------------------

enum class TaskKind : std::uint8_t {
  /// Sample the flattened (point, shot) slice [begin, end) of
  /// points.size() * shots pairs; pair t = (point t / shots, shot
  /// t % shots) draws Rng(seed).stream(base_call + point).stream(shot) —
  /// exactly Session::sample_batch's assignment.  Response
  /// payload: (end - begin) u64 outcomes in t order.
  kSample = 1,
  /// Evaluate expectation for points [begin, end); point i draws
  /// Rng(seed).stream(stream_base + i) where stream_base already
  /// includes Session's kExpectationStreamBase offset.  Response
  /// payload: (end - begin) f64 values in point order.
  kExpectation = 2,
};

struct Request {
  TaskKind kind = TaskKind::kSample;
  std::string backend;  // registry name, resolved in the child
  std::uint64_t seed = 0;
  api::Workload workload = api::Workload::qaoa(qaoa::CostHamiltonian(1));
  std::vector<qaoa::Angles> points;
  std::uint64_t shots = 0;        // per point; kSample only
  std::uint64_t base_call = 0;    // kSample: first point's sample-call index
  std::uint64_t stream_base = 0;  // kExpectation: absolute stream of point 0
  std::uint64_t begin = 0;        // global slice, inclusive
  std::uint64_t end = 0;          // exclusive
};

std::vector<std::byte> encode_request(const Request& r);
Request decode_request(std::span<const std::byte> frame);

/// A sub-slice [begin, end) of `whole`'s global index space, rebased so a
/// worker that sees only the sub-request still draws exactly the global
/// streams: for kSample the flattened (point, shot) space is cut to the
/// touched points with base_call advanced past the untouched prefix; for
/// kExpectation the point list is cut with stream_base absorbing the
/// offset.  `offset` maps the sub-request's slice-local indices (error
/// reports, response positions) back to `whole`'s index space.  The
/// serving daemon cuts every request with this one helper.  Requires
/// begin < end within whole's [begin, end).
struct SliceRequest {
  Request request;
  std::uint64_t offset = 0;
};
SliceRequest rebase_slice(const Request& whole, std::uint64_t begin,
                          std::uint64_t end);

// --- responses ---------------------------------------------------------

struct Response {
  bool ok = true;
  std::vector<std::uint64_t> outcomes;  // kSample payload
  std::vector<real> values;             // kExpectation payload
  /// On error: the lowest slice index whose processing threw, plus the
  /// exception message (workers process their slice in ascending order
  /// and stop at the first failure, mirroring the serial loop).
  std::uint64_t error_index = 0;
  std::string error_message;
  /// True when the failure happened while EVALUATING (streams already
  /// drawn); false for support-check/prepare failures, which the serial
  /// loop raises before burning any stream index — the parent uses this
  /// to decide whether a failed expectation batch consumed its indices.
  bool error_in_eval = false;
};

std::vector<std::byte> encode_response(const Response& r);
Response decode_response(std::span<const std::byte> frame);

// --- framing -----------------------------------------------------------

/// Write one length-prefixed frame; throws Error on a closed peer (the
/// socket is written with SIGPIPE suppressed) or short write.
void write_frame(int fd, std::span<const std::byte> payload);

/// Read one frame; nullopt on clean EOF before any byte, Error on a
/// truncated frame (peer died mid-message) or oversized length prefix.
/// With timeout_ms > 0, a peer that sends nothing for that long (e.g. a
/// SIGSTOP'd or wedged worker — its socket stays open, so a plain read
/// would block forever) raises a descriptive Error instead of hanging;
/// 0 waits indefinitely.
std::optional<std::vector<std::byte>> read_frame(int fd, int timeout_ms = 0);

}  // namespace mbq::shard

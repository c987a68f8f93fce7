#pragma once
// The client <-> mbqd wire protocol.
//
// Transport: the same length-prefixed framing as the parent <-> worker
// channel (shard/protocol.h write_frame/read_frame) over a UNIX or TCP
// stream socket (serve/endpoint.h).  Every payload starts with a one-
// byte frame kind; the body of a SUBMIT embeds the unmodified shard
// request codec, so the daemon extends the shard protocol rather than
// forking it — a worker never sees a serve frame, and the spec bytes a
// client sends are the spec bytes a worker receives.
//
// Conversation:
//
//   client                        daemon
//   HELLO(version, name)  ----->
//                         <-----  HELLO_OK(version, daemon, workers)
//   SUBMIT(id, request)   ----->
//                         <-----  SLICE(id, [b0,e0), payload)   } any
//                         <-----  SLICE(id, [b1,e1), payload)   } order
//                         <-----  DONE(id, slices, redispatched,
//                                      warm_hit)
//   SUBMIT(id', ...)      ----->
//                         <-----  BUSY(id', reason)      (backpressure)
//   STATS()               ----->
//                         <-----  STATS_OK(counters, per-worker rows)
//
// Slices stream back AS WORKERS FINISH, in whatever order that is; the
// client merges them by their [begin, end) position in the request's
// global index space (SliceMerger), which is exactly why the merged
// answer is bit-identical to the local path — the determinism contract
// already makes slice payloads pure functions of (seed, index), so
// arrival order carries no information.  A request that cannot run
// (malformed frame, queue full, worker-reported failure) gets exactly
// one BUSY or ERROR frame instead of DONE; the daemon never goes silent
// on an accepted request.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mbq/shard/protocol.h"

namespace mbq::serve {

/// Bumped on any wire-visible change; HELLO carries it both ways and a
/// mismatch is answered with ERROR (kNoRequest) + close, so an old
/// client fails with a message instead of garbage.
constexpr std::uint32_t kProtocolVersion = 1;

/// Request id used by frames that answer no particular request (HELLO
/// errors, malformed-frame errors).
constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

enum class FrameKind : std::uint8_t {
  // client -> daemon
  kHello = 1,
  kSubmit = 2,
  kStatsRequest = 3,
  // daemon -> client
  kHelloOk = 16,
  kSlice = 17,
  kDone = 18,
  kError = 19,
  kBusy = 20,
  kStatsReply = 21,
};

/// Kind tag of an encoded frame (first payload byte); throws on empty.
FrameKind frame_kind(std::span<const std::byte> frame);

// --- handshake ---------------------------------------------------------

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string client_name;
};

struct HelloOk {
  std::uint32_t version = kProtocolVersion;
  std::string daemon_name;
  std::uint32_t workers = 0;
};

// --- requests ----------------------------------------------------------

/// A whole call: the embedded shard::Request's [begin, end) covers the
/// full index space (all shots, all points); the daemon cuts it into
/// slices internally.  `request_id` is client-chosen and only has to be
/// unique among the connection's unanswered requests.
struct Submit {
  std::uint64_t request_id = 0;
  shard::Request request;
};

// --- streamed results --------------------------------------------------

struct Slice {
  std::uint64_t request_id = 0;
  std::uint64_t begin = 0;  // global index space of the Submit
  std::uint64_t end = 0;
  std::vector<std::uint64_t> outcomes;  // kSample payload
  std::vector<real> values;             // kExpectation payload
};

struct Done {
  std::uint64_t request_id = 0;
  std::uint32_t slices = 0;        // slices the request was cut into
  std::uint32_t redispatched = 0;  // slices re-run after a worker death
  /// True when every (backend, spec, angles) point of the request was
  /// among the last workers × shard::kPrepCacheCapacity points the
  /// daemon served — the most the workers' prepare LRUs hold together.
  /// On a miss some point must be compiled again; on a hit a worker may
  /// still hold every artifact.
  bool warm_hit = false;
};

struct ErrorFrame {
  std::uint64_t request_id = kNoRequest;
  std::uint64_t error_index = 0;
  bool error_in_eval = false;  // see shard::Response
  std::string message;
};

struct Busy {
  std::uint64_t request_id = 0;
  std::string message;
};

// --- observability -----------------------------------------------------

struct WorkerStats {
  std::int64_t pid = -1;
  bool busy = false;
  std::uint64_t slices_done = 0;
  std::uint64_t respawns = 0;  // times THIS seat was respawned
};

struct DaemonStats {
  std::uint64_t connections_total = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t requests_active = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t slices_dispatched = 0;
  std::uint64_t slices_redispatched = 0;
  std::uint64_t slices_completed = 0;
  std::uint64_t worker_respawns = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  std::uint64_t queue_depth = 0;  // slices queued, not yet dispatched
  std::vector<WorkerStats> workers;
};

/// Human-readable multi-line rendering (mbqd --stats, CI artifacts).
std::string format_stats(const DaemonStats& s);

// --- frame codecs ------------------------------------------------------
// encode_* produce a full frame payload (kind tag first); decode_*
// require the matching tag and validate like the shard codecs — a
// malformed frame throws Error, never reads garbage.

std::vector<std::byte> encode_hello(const Hello& h);
Hello decode_hello(std::span<const std::byte> frame);

std::vector<std::byte> encode_hello_ok(const HelloOk& h);
HelloOk decode_hello_ok(std::span<const std::byte> frame);

std::vector<std::byte> encode_submit(const Submit& s);
Submit decode_submit(std::span<const std::byte> frame);

std::vector<std::byte> encode_stats_request();

std::vector<std::byte> encode_slice(const Slice& s);
Slice decode_slice(std::span<const std::byte> frame);

std::vector<std::byte> encode_done(const Done& d);
Done decode_done(std::span<const std::byte> frame);

std::vector<std::byte> encode_error(const ErrorFrame& e);
ErrorFrame decode_error(std::span<const std::byte> frame);

std::vector<std::byte> encode_busy(const Busy& b);
Busy decode_busy(std::span<const std::byte> frame);

std::vector<std::byte> encode_stats_reply(const DaemonStats& s);
DaemonStats decode_stats_reply(std::span<const std::byte> frame);

// --- incremental framing -----------------------------------------------

/// Reassembles length-prefixed frames from a non-blocking byte stream:
/// feed whatever recv() returned, pop complete frames as they form.  The
/// daemon's event loop cannot use the blocking read_frame — a slow or
/// adversarial peer would stall every other connection — so each fd gets
/// one of these.  Enforces the same frame-size cap as the blocking path.
class FrameBuffer {
 public:
  void append(std::span<const std::byte> bytes);
  /// Next complete frame's payload, or nullopt until more bytes arrive.
  /// Throws Error on an oversized length prefix (protocol corruption).
  std::optional<std::vector<std::byte>> pop();

  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
};

// --- client-side merge -------------------------------------------------

/// Accumulates SLICE frames into the flat result of the whole request,
/// placing each payload at its global [begin, end) — so the merged
/// vectors are independent of arrival order by construction.  Rejects
/// overlapping or out-of-range slices (the daemon's at-most-once
/// re-dispatch guarantee made observable: a duplicate slice is a bug,
/// not something to paper over by overwriting).
class SliceMerger {
 public:
  SliceMerger(shard::TaskKind kind, std::uint64_t begin, std::uint64_t end);

  void add(const Slice& s);
  bool complete() const noexcept { return covered_ == end_ - begin_; }
  std::uint64_t missing() const noexcept { return end_ - begin_ - covered_; }

  /// The merged payloads; only meaningful once complete().
  std::vector<std::uint64_t>& outcomes() noexcept { return outcomes_; }
  std::vector<real>& values() noexcept { return values_; }

 private:
  shard::TaskKind kind_;
  std::uint64_t begin_ = 0;
  std::uint64_t end_ = 0;
  std::uint64_t covered_ = 0;
  std::vector<bool> seen_;  // per-index at-most-once guard
  std::vector<std::uint64_t> outcomes_;
  std::vector<real> values_;
};

}  // namespace mbq::serve

#pragma once
// DaemonClient: the client side of the mbqd protocol.
//
// One client owns one connection: connect + HELLO handshake in the
// constructor, then run() submits a whole shard::Request and blocks
// while SLICE frames stream back in whatever order workers finish,
// merging them by global index (frames.h SliceMerger) — so the returned
// vectors are bit-identical to executing the request locally.  The
// transport is synchronous by design: a Session calls run() exactly
// where it would have run the shared eval loop in-process, and
// concurrency across clients lives in the daemon, not here.
//
// Failures are typed: a BUSY frame (backpressure) raises BusyError so
// callers can retry or shed load; an ERROR frame raises RemoteError
// carrying the serial loop's error — its global index and the
// error_in_eval phase flag, which a Session uses to restore its stream
// counters exactly like an in-process call.

#include <cstdint>
#include <string>
#include <vector>

#include "mbq/common/error.h"
#include "mbq/serve/endpoint.h"
#include "mbq/serve/frames.h"
#include "mbq/shard/protocol.h"

namespace mbq::serve {

/// The daemon refused a SUBMIT because this connection already holds its
/// limit of unanswered requests.  Nothing was executed; retrying after
/// draining an outstanding request is safe.
class BusyError : public Error {
 public:
  explicit BusyError(const std::string& what) : Error(what) {}
};

/// The daemon answered a request with an ERROR frame: a worker reported
/// a failure at `index` (global index space of the request), or the
/// request itself was rejected.
class RemoteError : public Error {
 public:
  RemoteError(const std::string& what, std::uint64_t index, bool in_eval)
      : Error(what), index_(index), in_eval_(in_eval) {}
  /// Failing global index (kNoRequest-level errors report 0).
  std::uint64_t index() const noexcept { return index_; }
  /// Mirrors shard::Response::error_in_eval — whether stream indices
  /// were consumed before the failure.
  bool in_eval() const noexcept { return in_eval_; }

 private:
  std::uint64_t index_ = 0;
  bool in_eval_ = false;
};

class DaemonClient {
 public:
  /// Connect to "unix:..." / "tcp:host:port" and perform the HELLO
  /// handshake.  Throws Error on connection failure or a protocol
  /// version mismatch (the daemon says which versions disagreed).
  explicit DaemonClient(const std::string& endpoint,
                        std::string client_name = "mbq-client");
  ~DaemonClient();

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  struct RunResult {
    std::vector<std::uint64_t> outcomes;  // kSample
    std::vector<real> values;             // kExpectation
    std::uint32_t slices = 0;
    std::uint32_t redispatched = 0;
    bool warm_hit = false;
  };

  /// Execute one whole request on the daemon and merge the streamed
  /// slices.  Throws BusyError on backpressure, RemoteError on a
  /// reported failure, Error on a broken connection.
  RunResult run(const shard::Request& request);

  /// The daemon's aggregate counters (mbqd --stats uses this too).
  DaemonStats stats();

  const HelloOk& hello() const noexcept { return hello_; }

 private:
  std::vector<std::byte> next_frame();

  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  HelloOk hello_;
};

}  // namespace mbq::serve

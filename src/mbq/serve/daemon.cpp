#include "mbq/serve/daemon.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "mbq/api/workload_spec.h"
#include "mbq/common/error.h"
#include "mbq/common/parallel.h"
#include "mbq/common/serialize.h"
#include "mbq/shard/plan.h"
#include "mbq/shard/task.h"
#include "mbq/shard/worker.h"

namespace mbq::serve {

namespace {

using Clock = std::chrono::steady_clock;

int resolve_workers(int requested) {
  if (requested >= 1) return requested;
  if (const char* env = std::getenv("MBQ_NUM_PROCESSES"))
    if (const int n = std::atoi(env); n >= 1) return n;
  return 2;
}

/// Seat i's share of a thread budget split over `seats` workers: an even
/// split with the remainder going to the first seats, and at least one
/// thread each, so the fleet runs max(budget, seats) threads in all.
int thread_share(int budget, int seats, int i) {
  return std::max(1, budget / seats + (i < budget % seats ? 1 : 0));
}

/// Warm-cache identity of one (backend, workload, angles) evaluation —
/// the tuple the worker-side prepare LRU is keyed by, hashed, so a
/// daemon "seen before" is a fleet "no recompile needed" up to which
/// worker the affinity router lands on (and a hash collision, which
/// can only misreport a hit: the workers key on the spec's bytes).
std::uint64_t warm_key(std::uint64_t spec_fp, const std::string& backend,
                       const qaoa::Angles& point) {
  ByteWriter w;
  w.str(backend);
  w.f64_vec(point.flat());
  return api::fnv1a64(w.data(), spec_fp);
}

/// One queued slice of one client request.
struct Job {
  std::uint64_t conn_id = 0;
  std::uint64_t request_id = 0;
  std::uint64_t begin = 0;  // global index space of the whole request
  std::uint64_t end = 0;
  std::uint64_t fingerprint = 0;
  std::shared_ptr<const shard::Request> whole;
};

struct ReqState {
  std::shared_ptr<const shard::Request> whole;
  std::uint64_t fingerprint = 0;
  std::uint32_t total_slices = 0;
  std::uint32_t delivered = 0;
  std::uint32_t redispatched = 0;
  std::set<std::uint64_t> pending;  // begin of every queued/in-flight slice
  bool warm_hit = false;
  /// The winning error among the slices reported so far, held until no
  /// pending slice could report one that beats it (settle_error).
  std::optional<ErrorFrame> error;
  /// Answered with ERROR; kept only until in-flight slices drain so
  /// their late results can be discarded instead of dangling.
  bool failed = false;
};

/// The serial loop's order: check-phase failures (raised before any
/// stream is drawn) beat evaluation failures, then the lower index wins.
bool beats(const ErrorFrame& a, const ErrorFrame& b) {
  if (a.error_in_eval != b.error_in_eval) return !a.error_in_eval;
  return a.error_index < b.error_index;
}

struct Conn {
  std::uint64_t id = 0;
  int fd = -1;
  bool helloed = false;
  /// Fatal protocol error answered: flush the out buffer, then drop.
  bool closing = false;
  /// Marked by any handler, swept (fd closed, maps erased) once per
  /// event-loop pass — handlers never invalidate each other's refs.
  bool dead = false;
  FrameBuffer in;
  std::vector<std::byte> out;
  std::size_t out_pos = 0;
  std::deque<Job> queue;
  std::unordered_map<std::uint64_t, ReqState> requests;
  std::string name;
};

struct Seat {
  pid_t pid = -1;
  int fd = -1;  // -1: respawn failed, seat out of service
  FrameBuffer in;
  bool busy = false;
  Job job{};
  std::uint64_t job_offset = 0;
  /// Deadline fired and SIGKILL was sent; the EOF that follows does the
  /// actual re-dispatch.  Guards against killing the replacement.
  bool killed = false;
  Clock::time_point deadline{};
  bool affinity_valid = false;
  std::uint64_t affinity = 0;  // fingerprint of the last dispatched slice
};

void set_nonblock_cloexec(int fd) {
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

}  // namespace

struct Daemon::Impl {
  DaemonOptions opts;
  int workers = 0;
  std::vector<int> threads;  // each seat's thread budget, set by start()
  int max_slices = 0;
  int timeout_ms = 0;
  std::string worker_path;

  std::vector<Endpoint> bound;
  std::vector<int> listen_fds;

  int wake_r = -1;
  int wake_w = -1;
  std::thread loop;
  std::atomic<bool> running{false};
  std::atomic<bool> stop_flag{false};

  // Everything below is owned by the event-loop thread; `stats` is the
  // one surface other threads read, guarded by `stats_mu`.
  std::map<int, Conn> conns;                // fd -> connection
  std::map<std::uint64_t, int> conn_fd;     // id -> fd (ordered: RR scan)
  std::uint64_t next_conn_id = 1;
  std::uint64_t rr_last = 0;  // conn id granted the previous dispatch
  std::vector<Seat> seats;
  // The warm_key of every point served, most recently seen first, at
  // most as many as the workers' prepare caches hold together.
  std::list<std::uint64_t> warm_order;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      warm_seen;

  mutable std::mutex stats_mu;
  DaemonStats stats;

  /// Marks a point seen now and reports whether it was seen before.
  /// Past workers × shard::kPrepCacheCapacity points the least recently
  /// seen one is forgotten, as the workers' LRUs would have evicted it.
  bool seen_warm(std::uint64_t key) {
    if (const auto it = warm_seen.find(key); it != warm_seen.end()) {
      warm_order.splice(warm_order.begin(), warm_order, it->second);
      return true;
    }
    warm_order.push_front(key);
    warm_seen.emplace(key, warm_order.begin());
    if (warm_order.size() >
        static_cast<std::size_t>(workers) * shard::kPrepCacheCapacity) {
      warm_seen.erase(warm_order.back());
      warm_order.pop_back();
    }
    return false;
  }

  // --- stats helpers ----------------------------------------------------

  template <typename F>
  void stat(F&& f) {
    std::lock_guard<std::mutex> lk(stats_mu);
    f(stats);
  }

  DaemonStats snapshot() const {
    std::lock_guard<std::mutex> lk(stats_mu);
    return stats;
  }

  // --- outbound client bytes --------------------------------------------

  void queue_out(Conn& c, std::span<const std::byte> payload) {
    if (c.dead) return;
    const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
      c.out.push_back(static_cast<std::byte>((size >> (8 * i)) & 0xFF));
    c.out.insert(c.out.end(), payload.begin(), payload.end());
    flush(c);
  }

  /// Push buffered bytes; EAGAIN leaves the rest for POLLOUT, a hard
  /// error (or a drained buffer on a closing conn) marks the conn dead.
  void flush(Conn& c) {
    if (c.dead) return;
    while (c.out_pos < c.out.size()) {
      const ssize_t n =
          ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      drop_conn(c);
      return;
    }
    c.out.clear();
    c.out_pos = 0;
    if (c.closing) drop_conn(c);
  }

  /// Mark dead and release scheduler bookkeeping; the fd itself is
  /// closed by the end-of-pass sweep.
  void drop_conn(Conn& c) {
    if (c.dead) return;
    c.dead = true;
    std::uint64_t live_requests = 0;
    for (const auto& [id, rs] : c.requests)
      if (!rs.failed) ++live_requests;
    stat([&](DaemonStats& s) {
      s.connections_active--;
      s.queue_depth -= c.queue.size();
      s.requests_active -= live_requests;
    });
    c.queue.clear();
    // In-flight slices keep their conn_id; their results are discarded
    // when the lookup fails after the sweep removes the id.
  }

  void sweep_dead_conns() {
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->second.dead) {
        ++it;
        continue;
      }
      conn_fd.erase(it->second.id);
      ::close(it->second.fd);
      it = conns.erase(it);
    }
  }

  // --- request lifecycle ------------------------------------------------

  void fail_request(Conn& c, std::uint64_t request_id, ErrorFrame e) {
    auto it = c.requests.find(request_id);
    if (it == c.requests.end() || it->second.failed) return;
    ReqState& rs = it->second;
    rs.failed = true;
    std::uint64_t cancelled = 0;
    for (auto jit = c.queue.begin(); jit != c.queue.end();) {
      if (jit->request_id == request_id) {
        rs.pending.erase(jit->begin);
        jit = c.queue.erase(jit);
        ++cancelled;
      } else {
        ++jit;
      }
    }
    const bool erase_now = rs.pending.empty();
    // Counters before the frame, same reasoning as the DONE path: once
    // the ERROR frame is on the wire the client may observe stats.
    stat([&](DaemonStats& s) {
      s.requests_active--;
      s.queue_depth -= cancelled;
    });
    e.request_id = request_id;
    queue_out(c, encode_error(e));
    if (erase_now) c.requests.erase(it);
  }

  /// Answer with the held error once no pending slice could still beat
  /// it: one below a check failure's index could report a lower check
  /// failure, and any slice could beat an eval failure from its check
  /// phase.  So the answer never depends on scheduling.
  void settle_error(Conn& c, std::uint64_t request_id, ReqState& rs) {
    const ErrorFrame& e = *rs.error;
    if (!rs.pending.empty() &&
        (e.error_in_eval || *rs.pending.begin() < e.error_index))
      return;
    fail_request(c, request_id, e);
  }

  // --- client events ----------------------------------------------------

  void accept_all(std::size_t listener) {
    for (;;) {
      const int cfd = ::accept(listen_fds[listener], nullptr, nullptr);
      if (cfd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient accept failure: next poll retries
      }
      set_nonblock_cloexec(cfd);
      if (bound[listener].kind == Endpoint::Kind::kTcp) {
        const int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      Conn c;
      c.id = next_conn_id++;
      c.fd = cfd;
      conn_fd[c.id] = cfd;
      conns.emplace(cfd, std::move(c));
      stat([](DaemonStats& s) {
        s.connections_total++;
        s.connections_active++;
      });
    }
  }

  void conn_readable(Conn& c) {
    bool eof = false;
    for (;;) {
      std::byte buf[65536];
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        c.in.append(std::span<const std::byte>(buf,
                                               static_cast<std::size_t>(n)));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      eof = true;  // clean EOF or hard error: the client is gone
      break;
    }
    try {
      while (!c.dead && !c.closing) {
        auto frame = c.in.pop();
        if (!frame) break;
        client_frame(c, *frame);
      }
    } catch (const std::exception& e) {
      // Unknown kind / corrupt framing: answer once, then hang up.
      ErrorFrame err;
      err.message = e.what();
      queue_out(c, encode_error(err));
      c.closing = true;
      flush(c);
    }
    if (eof) drop_conn(c);
  }

  void client_frame(Conn& c, std::span<const std::byte> frame) {
    const FrameKind kind = frame_kind(frame);  // throws on unknown tag
    if (kind == FrameKind::kHello) {
      const Hello h = decode_hello(frame);
      if (h.version != kProtocolVersion) {
        ErrorFrame e;
        e.message = "protocol version mismatch: client speaks v" +
                    std::to_string(h.version) + ", daemon speaks v" +
                    std::to_string(kProtocolVersion);
        queue_out(c, encode_error(e));
        c.closing = true;
        flush(c);
        return;
      }
      c.helloed = true;
      c.name = h.client_name;
      HelloOk ok;
      ok.daemon_name = opts.name;
      ok.workers = static_cast<std::uint32_t>(workers);
      queue_out(c, encode_hello_ok(ok));
      return;
    }
    MBQ_REQUIRE(c.helloed,
                "client sent frames before a HELLO handshake");
    if (kind == FrameKind::kStatsRequest) {
      queue_out(c, encode_stats_reply(snapshot()));
      return;
    }
    MBQ_REQUIRE(kind == FrameKind::kSubmit,
                "unexpected client frame kind "
                    << static_cast<int>(static_cast<std::uint8_t>(kind)));
    submit(c, frame);
  }

  void submit(Conn& c, std::span<const std::byte> frame) {
    // The id sits at a fixed offset, so even when the embedded request
    // fails to decode the error can name the request it answers.
    std::uint64_t id = kNoRequest;
    if (frame.size() >= 9) {
      id = 0;
      for (int i = 0; i < 8; ++i)
        id |= static_cast<std::uint64_t>(frame[1 + i]) << (8 * i);
    }
    try {
      Submit s = decode_submit(frame);
      id = s.request_id;
      if (c.requests.size() >=
          static_cast<std::size_t>(opts.max_pending_requests)) {
        Busy b;
        b.request_id = id;
        b.message = "connection already has " +
                    std::to_string(c.requests.size()) +
                    " unanswered requests (limit " +
                    std::to_string(opts.max_pending_requests) +
                    "); retry after a DONE/ERROR";
        stat([](DaemonStats& st) { st.busy_rejections++; });
        queue_out(c, encode_busy(b));
        return;
      }
      MBQ_REQUIRE(c.requests.find(id) == c.requests.end(),
                  "request id " << id
                                << " is already in flight on this "
                                   "connection");
      const shard::Request& req = s.request;
      MBQ_REQUIRE(req.begin <= req.end,
                  "request has begin > end: " << req.begin << " > "
                                              << req.end);
      const std::uint64_t space =
          req.kind == shard::TaskKind::kSample
              ? req.points.size() * req.shots
              : req.points.size();
      MBQ_REQUIRE(req.kind != shard::TaskKind::kSample || req.shots >= 1,
                  "sample request needs shots >= 1");
      MBQ_REQUIRE(req.end <= space,
                  "request slice [" << req.begin << ", " << req.end
                                   << ") exceeds its index space of "
                                   << space);

      auto whole = std::make_shared<const shard::Request>(std::move(s.request));
      const std::uint64_t fp = api::spec_fingerprint(whole->workload.spec());

      // Warm-cache accounting: a request is a hit when every one of its
      // (backend, spec, angles) points was served recently enough that a
      // worker may still hold its artifact.
      bool all_seen = !whole->points.empty();
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
      for (const qaoa::Angles& pt : whole->points) {
        if (seen_warm(warm_key(fp, whole->backend, pt))) {
          ++hits;
        } else {
          all_seen = false;
          ++misses;
        }
      }
      stat([&](DaemonStats& st) {
        st.requests_total++;
        st.warm_hits += hits;
        st.warm_misses += misses;
      });

      const std::uint64_t total = whole->end - whole->begin;
      if (total == 0) {
        Done d;
        d.request_id = id;
        d.warm_hit = all_seen;
        queue_out(c, encode_done(d));
        return;
      }

      const int num_slices = static_cast<int>(
          std::min<std::uint64_t>(total, max_slices));
      const shard::ShardPlan plan(total, num_slices);
      ReqState rs;
      rs.whole = whole;
      rs.fingerprint = fp;
      rs.total_slices = static_cast<std::uint32_t>(num_slices);
      rs.warm_hit = all_seen;
      for (const shard::ShardRange& r : plan.ranges()) {
        Job j;
        j.conn_id = c.id;
        j.request_id = id;
        j.begin = whole->begin + r.begin;
        j.end = whole->begin + r.end;
        j.fingerprint = fp;
        j.whole = whole;
        rs.pending.insert(j.begin);
        c.queue.push_back(std::move(j));
      }
      c.requests.emplace(id, std::move(rs));
      stat([&](DaemonStats& st) {
        st.requests_active++;
        st.queue_depth += static_cast<std::uint64_t>(num_slices);
      });
    } catch (const std::exception& e) {
      // Request-level failure: this SUBMIT is answered with an error,
      // the connection stays usable.
      ErrorFrame err;
      err.request_id = id;
      err.message = e.what();
      queue_out(c, encode_error(err));
    }
  }

  // --- worker events ----------------------------------------------------

  void worker_readable(Seat& seat) {
    bool dead = false;
    for (;;) {
      std::byte buf[65536];
      const ssize_t n = ::recv(seat.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        seat.in.append(std::span<const std::byte>(
            buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      dead = true;  // EOF: the worker exited or was killed
      break;
    }
    // At-most-once drain: a response that made it into the pipe before
    // the worker died is a finished slice — deliver it, never re-run it.
    try {
      while (auto frame = seat.in.pop()) worker_response(seat, *frame);
    } catch (const std::exception&) {
      dead = true;  // corrupt stream or unsolicited frame: replace it
    }
    if (dead) worker_died(seat);
  }

  void worker_response(Seat& seat, std::span<const std::byte> frame) {
    MBQ_REQUIRE(seat.busy, "worker sent an unsolicited response frame");
    shard::Response resp = shard::decode_response(frame);
    const Job job = std::move(seat.job);
    const std::uint64_t offset = seat.job_offset;
    seat.busy = false;
    seat.killed = false;
    seat.job = Job{};
    const std::size_t idx = static_cast<std::size_t>(&seat - seats.data());
    stat([&](DaemonStats& s) {
      s.slices_completed++;
      s.workers[idx].busy = false;
      s.workers[idx].slices_done++;
    });

    const auto fit = conn_fd.find(job.conn_id);
    if (fit == conn_fd.end()) return;  // client left mid-request
    Conn& c = conns.at(fit->second);
    if (c.dead) return;
    const auto rit = c.requests.find(job.request_id);
    if (rit == c.requests.end()) return;
    ReqState& rs = rit->second;
    rs.pending.erase(job.begin);
    if (rs.failed) {
      if (rs.pending.empty()) c.requests.erase(rit);
      return;
    }

    const std::uint64_t expected = job.end - job.begin;
    const std::uint64_t got = job.whole->kind == shard::TaskKind::kSample
                                  ? resp.outcomes.size()
                                  : resp.values.size();
    if (!resp.ok) {
      ErrorFrame e{.error_index = resp.error_index + offset,
                   .error_in_eval = resp.error_in_eval,
                   .message = std::move(resp.error_message)};
      if (!rs.error || beats(e, *rs.error)) rs.error = std::move(e);
    } else if (got != expected) {
      fail_request(c, job.request_id,
                   {.error_index = job.begin,
                    .message = "worker returned " + std::to_string(got) +
                               " items for a slice of " +
                               std::to_string(expected)});
      return;
    }
    if (rs.error) {
      settle_error(c, job.request_id, rs);
      return;
    }

    Slice out;
    out.request_id = job.request_id;
    out.begin = job.begin;
    out.end = job.end;
    out.outcomes = std::move(resp.outcomes);
    out.values = std::move(resp.values);
    queue_out(c, encode_slice(out));
    if (c.dead) return;
    rs.delivered++;
    if (rs.delivered == rs.total_slices) {
      Done d;
      d.request_id = job.request_id;
      d.slices = rs.total_slices;
      d.redispatched = rs.redispatched;
      d.warm_hit = rs.warm_hit;
      // Counters first, frame second: the moment the DONE frame hits the
      // socket the client may query stats, and it must see the request
      // already retired (send() can wake the client before this thread
      // runs another instruction, especially on one core).
      c.requests.erase(job.request_id);
      stat([](DaemonStats& s) { s.requests_active--; });
      queue_out(c, encode_done(d));
    }
  }

  /// Reap, re-queue the unfinished slice (if any), respawn the seat.
  void worker_died(Seat& seat) {
    const std::size_t idx = static_cast<std::size_t>(&seat - seats.data());
    if (seat.pid > 0) {
      ::kill(seat.pid, SIGKILL);  // no-op if it already exited
      int st = 0;
      ::waitpid(seat.pid, &st, 0);
    }
    if (seat.fd >= 0) ::close(seat.fd);
    seat.fd = -1;
    seat.pid = -1;
    seat.in = FrameBuffer{};
    seat.affinity_valid = false;
    seat.killed = false;

    if (seat.busy) {
      seat.busy = false;
      Job job = std::move(seat.job);
      seat.job = Job{};
      stat([&](DaemonStats& s) { s.workers[idx].busy = false; });
      requeue_lost_slice(std::move(job));
    }

    try {
      const shard::SpawnedWorker w =
          shard::spawn_worker(worker_path, threads[idx]);
      seat.pid = w.pid;
      seat.fd = w.fd;
      stat([&](DaemonStats& s) {
        s.worker_respawns++;
        s.workers[idx].pid = w.pid;
        s.workers[idx].respawns++;
      });
    } catch (const std::exception&) {
      // Seat stays out of service; with the whole fleet gone nothing
      // could ever run, so pending requests get errors, not silence.
      stat([&](DaemonStats& s) { s.workers[idx].pid = -1; });
      if (live_seats() == 0) fail_everything("the worker fleet is gone");
    }
  }

  void requeue_lost_slice(Job job) {
    const auto fit = conn_fd.find(job.conn_id);
    if (fit == conn_fd.end()) return;
    Conn& c = conns.at(fit->second);
    if (c.dead) return;
    const auto rit = c.requests.find(job.request_id);
    if (rit == c.requests.end()) return;
    ReqState& rs = rit->second;
    if (rs.failed) {
      rs.pending.erase(job.begin);
      if (rs.pending.empty()) c.requests.erase(rit);
      return;
    }
    rs.redispatched++;
    stat([](DaemonStats& s) { s.slices_redispatched++; });
    // A slice that keeps losing its worker will not converge by
    // retrying forever (a too-small worker_timeout_ms, or a workload
    // that crashes the backend): give up loudly.
    if (rs.redispatched > rs.total_slices + 4) {
      rs.pending.erase(job.begin);
      fail_request(c, job.request_id,
                   {.error_index = job.begin,
                    .message = "slice [" + std::to_string(job.begin) + ", " +
                               std::to_string(job.end) +
                               ") was re-dispatched " +
                               std::to_string(rs.redispatched) +
                               " times without completing (workers keep "
                               "dying or timing out)"});
      return;
    }
    // Front of the line: it was dispatched once, it goes next.
    c.queue.push_front(std::move(job));
    stat([](DaemonStats& s) { s.queue_depth++; });
  }

  int live_seats() const {
    int n = 0;
    for (const Seat& s : seats)
      if (s.fd >= 0) ++n;
    return n;
  }

  void fail_everything(const std::string& why) {
    for (auto& [fd, c] : conns) {
      if (c.dead) continue;
      std::vector<std::uint64_t> ids;
      ids.reserve(c.requests.size());
      for (const auto& [id, rs] : c.requests)
        if (!rs.failed) ids.push_back(id);
      for (const std::uint64_t id : ids)
        fail_request(c, id, {.message = why});
    }
  }

  // --- scheduling -------------------------------------------------------

  Seat* pick_seat(std::uint64_t fingerprint) {
    Seat* any = nullptr;
    for (Seat& s : seats) {
      if (s.fd < 0 || s.busy) continue;
      if (s.affinity_valid && s.affinity == fingerprint) return &s;
      if (any == nullptr) any = &s;
    }
    return any;
  }

  Conn* next_conn_with_work() {
    if (conn_fd.empty()) return nullptr;
    auto it = conn_fd.upper_bound(rr_last);
    for (std::size_t i = 0; i < conn_fd.size(); ++i) {
      if (it == conn_fd.end()) it = conn_fd.begin();
      Conn& c = conns.at(it->second);
      if (!c.dead && !c.queue.empty()) {
        rr_last = c.id;
        return &c;
      }
      ++it;
    }
    return nullptr;
  }

  bool send_job(Seat& seat, const Job& job) {
    const std::size_t idx = static_cast<std::size_t>(&seat - seats.data());
    try {
      const shard::SliceRequest sub =
          shard::rebase_slice(*job.whole, job.begin, job.end);
      shard::write_frame(seat.fd, shard::encode_request(sub.request));
      seat.busy = true;
      seat.job = job;
      seat.job_offset = sub.offset;
      seat.killed = false;
      seat.affinity = job.fingerprint;
      seat.affinity_valid = true;
      if (timeout_ms > 0)
        seat.deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
      stat([&](DaemonStats& s) {
        s.slices_dispatched++;
        s.workers[idx].busy = true;
      });
      return true;
    } catch (const std::exception&) {
      // EPIPE: the worker died between rounds.  The job was never
      // dispatched, so this is a respawn, not a re-dispatch.
      worker_died(seat);
      return false;
    }
  }

  void dispatch() {
    for (;;) {
      Conn* c = next_conn_with_work();
      if (c == nullptr) return;
      Seat* seat = pick_seat(c->queue.front().fingerprint);
      if (seat == nullptr) return;
      Job job = std::move(c->queue.front());
      c->queue.pop_front();
      stat([](DaemonStats& s) { s.queue_depth--; });
      if (!send_job(*seat, job)) {
        if (live_seats() == 0) return;  // fail_everything already ran
        c->queue.push_front(std::move(job));
        stat([](DaemonStats& s) { s.queue_depth++; });
      }
    }
  }

  // --- deadlines --------------------------------------------------------

  int poll_timeout() const {
    if (timeout_ms <= 0) return -1;
    const Clock::time_point now = Clock::now();
    int timeout = -1;
    for (const Seat& s : seats) {
      if (s.fd < 0 || !s.busy || s.killed) continue;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            s.deadline - now)
                            .count();
      const int ms = static_cast<int>(std::max<long long>(0, left));
      if (timeout < 0 || ms < timeout) timeout = ms;
    }
    return timeout;
  }

  void check_deadlines() {
    if (timeout_ms <= 0) return;
    const Clock::time_point now = Clock::now();
    for (Seat& s : seats) {
      if (s.fd < 0 || !s.busy || s.killed) continue;
      if (now < s.deadline) continue;
      // Wedged (or just too slow for the configured budget): kill it;
      // the EOF on its channel re-dispatches the slice and respawns.
      ::kill(s.pid, SIGKILL);
      s.killed = true;
    }
  }

  // --- the loop ---------------------------------------------------------

  void run() {
    while (!stop_flag.load(std::memory_order_acquire)) {
      std::vector<pollfd> pfds;
      pfds.push_back({wake_r, POLLIN, 0});
      for (const int lfd : listen_fds) pfds.push_back({lfd, POLLIN, 0});
      const std::size_t seats_at = pfds.size();
      for (const Seat& s : seats)
        pfds.push_back({s.fd >= 0 ? s.fd : -1, POLLIN, 0});
      const std::size_t conns_at = pfds.size();
      for (const auto& [fd, c] : conns) {
        short ev = POLLIN;
        if (c.out_pos < c.out.size()) ev |= POLLOUT;
        pfds.push_back({fd, ev, 0});
      }

      const int rc = ::poll(pfds.data(),
                            static_cast<nfds_t>(pfds.size()),
                            poll_timeout());
      if (stop_flag.load(std::memory_order_acquire)) return;
      if (rc < 0) {
        if (errno == EINTR) continue;
        return;  // poll itself failing is unrecoverable
      }

      if (pfds[0].revents != 0) {
        std::byte buf[256];
        while (::read(wake_r, buf, sizeof(buf)) > 0) {
        }
      }
      for (std::size_t i = 0; i < listen_fds.size(); ++i)
        if (pfds[1 + i].revents != 0) accept_all(i);
      for (std::size_t i = 0; i < seats.size(); ++i)
        if (pfds[seats_at + i].revents != 0) worker_readable(seats[i]);

      // Snapshot (fd, events) first: handlers mark conns dead but never
      // erase, so the refs stay valid within the pass.
      std::vector<std::pair<int, short>> events;
      for (std::size_t i = conns_at; i < pfds.size(); ++i)
        if (pfds[i].revents != 0)
          events.emplace_back(pfds[i].fd, pfds[i].revents);
      for (const auto& [fd, re] : events) {
        const auto it = conns.find(fd);
        if (it == conns.end() || it->second.dead) continue;
        Conn& c = it->second;
        if ((re & (POLLIN | POLLHUP)) != 0) conn_readable(c);
        if (!c.dead && (re & POLLOUT) != 0) flush(c);
        if (!c.dead && (re & (POLLERR | POLLNVAL)) != 0) drop_conn(c);
      }

      check_deadlines();
      dispatch();
      sweep_dead_conns();
    }
  }

  // --- lifecycle --------------------------------------------------------

  void teardown_sockets() {
    for (const int fd : listen_fds) ::close(fd);
    listen_fds.clear();
    for (const Endpoint& ep : bound)
      if (ep.kind == Endpoint::Kind::kUnix) ::unlink(ep.path.c_str());
    bound.clear();
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0) ::close(wake_w);
    wake_r = wake_w = -1;
  }

  void teardown_fleet() {
    for (Seat& s : seats) {
      if (s.fd >= 0) ::close(s.fd);
      if (s.pid > 0) {
        ::kill(s.pid, SIGKILL);
        int st = 0;
        ::waitpid(s.pid, &st, 0);
      }
    }
    seats.clear();
  }
};

Daemon::Daemon(DaemonOptions options) : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(options);
}

Daemon::~Daemon() {
  try {
    stop();
  } catch (...) {
  }
}

void Daemon::start() {
  Impl& im = *impl_;
  MBQ_REQUIRE(!im.running.load(), "daemon is already running");
  MBQ_REQUIRE(!im.opts.endpoints.empty(),
              "daemon needs at least one endpoint to listen on");
  MBQ_REQUIRE(im.opts.max_pending_requests >= 1,
              "max_pending_requests must be >= 1");
  im.workers = resolve_workers(im.opts.workers);
  im.max_slices = im.opts.max_slices_per_request >= 1
                      ? im.opts.max_slices_per_request
                      : 4 * im.workers;
  im.timeout_ms = im.opts.worker_timeout_ms >= 0 ? im.opts.worker_timeout_ms
                                                 : shard::worker_timeout_ms();
  im.worker_path = shard::resolve_worker_path(im.opts.worker_path);
  MBQ_REQUIRE(!im.worker_path.empty(),
              "mbq_worker executable not found — set MBQ_WORKER or "
              "DaemonOptions::worker_path");

  try {
    for (const std::string& spec : im.opts.endpoints) {
      Endpoint bound;
      const int fd = listen_endpoint(parse_endpoint(spec), bound);
      im.listen_fds.push_back(fd);
      im.bound.push_back(std::move(bound));
    }
    int pipe_fds[2];
    MBQ_REQUIRE(::pipe(pipe_fds) == 0,
                "pipe failed: " << std::strerror(errno));
    im.wake_r = pipe_fds[0];
    im.wake_w = pipe_fds[1];
    set_nonblock_cloexec(im.wake_r);
    set_nonblock_cloexec(im.wake_w);

    im.seats.resize(static_cast<std::size_t>(im.workers));
    im.stats = DaemonStats{};
    im.stats.workers.resize(im.seats.size());
    const int budget = num_threads();
    im.threads.resize(im.seats.size());
    for (int i = 0; i < im.workers; ++i)
      im.threads[i] = thread_share(budget, im.workers, i);
    for (std::size_t i = 0; i < im.seats.size(); ++i) {
      const shard::SpawnedWorker w =
          shard::spawn_worker(im.worker_path, im.threads[i]);
      im.seats[i].pid = w.pid;
      im.seats[i].fd = w.fd;
      im.stats.workers[i].pid = w.pid;
    }
  } catch (...) {
    im.teardown_fleet();
    im.teardown_sockets();
    throw;
  }

  im.stop_flag.store(false);
  im.running.store(true);
  im.loop = std::thread([&im] { im.run(); });
}

void Daemon::stop() {
  Impl& im = *impl_;
  if (!im.running.load()) return;
  im.stop_flag.store(true, std::memory_order_release);
  if (im.wake_w >= 0) {
    const std::byte b{1};
    [[maybe_unused]] const ssize_t n = ::write(im.wake_w, &b, 1);
  }
  if (im.loop.joinable()) im.loop.join();
  for (auto& [fd, c] : im.conns) ::close(fd);
  im.conns.clear();
  im.conn_fd.clear();
  im.teardown_fleet();
  im.teardown_sockets();
  im.warm_seen.clear();
  im.warm_order.clear();
  im.running.store(false);
}

bool Daemon::running() const noexcept { return impl_->running.load(); }

const std::vector<Endpoint>& Daemon::endpoints() const {
  return impl_->bound;
}

std::string Daemon::endpoint_string() const {
  MBQ_REQUIRE(!impl_->bound.empty(), "daemon is not listening");
  return impl_->bound.front().to_string();
}

int Daemon::workers() const noexcept { return impl_->workers; }

const std::vector<int>& Daemon::worker_threads() const {
  return impl_->threads;
}

std::vector<std::int64_t> Daemon::worker_pids() const {
  std::lock_guard<std::mutex> lk(impl_->stats_mu);
  std::vector<std::int64_t> pids;
  pids.reserve(impl_->stats.workers.size());
  for (const WorkerStats& w : impl_->stats.workers) pids.push_back(w.pid);
  return pids;
}

DaemonStats Daemon::stats() const { return impl_->snapshot(); }

}  // namespace mbq::serve

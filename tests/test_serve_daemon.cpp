// The serving daemon, end to end: an in-process serve::Daemon with a
// real mbq_worker fleet, real sockets (UNIX and TCP), real api::Sessions
// in remote mode.  The load-bearing assertions are all bit-identity —
// everything a Session gets back through mbqd must equal the
// single-process local path exactly, including through backpressure,
// concurrent tenants, protocol-version rejection, a worker SIGKILLed
// mid-run with a second client attached, and a wedged worker past its
// deadline.  A failed request must carry the serial loop's error.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "mbq/api/api.h"
#include "mbq/graph/generators.h"
#include "mbq/serve/client.h"
#include "mbq/serve/daemon.h"
#include "mbq/shard/protocol.h"
#include "mbq/shard/task.h"
#include "mbq/shard/worker.h"

namespace mbq {
namespace {

using api::SampleResult;
using api::Session;
using api::SessionOptions;
using api::Workload;
using qaoa::Angles;
using namespace mbq::serve;

std::string worker_path() {
  const std::string path = shard::resolve_worker_path();
  EXPECT_FALSE(path.empty())
      << "mbq_worker not found next to the test binary — build the "
         "mbq_worker target (part of the default build)";
  return path;
}

/// Unique unix socket path per test (daemons unlink on stop, but a
/// crashed earlier run must not collide).
std::string unix_socket_path(const std::string& tag) {
  return "/tmp/mbq-serve-test-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

DaemonOptions daemon_options(std::vector<std::string> endpoints,
                             int workers) {
  DaemonOptions o;
  o.endpoints = std::move(endpoints);
  o.workers = workers;
  o.worker_path = worker_path();
  return o;
}

SessionOptions remote_options(std::uint64_t seed,
                              const std::string& endpoint) {
  SessionOptions o;
  o.seed = seed;
  o.daemon_endpoint = endpoint;
  return o;
}

SessionOptions local_options(std::uint64_t seed) {
  SessionOptions o;
  o.seed = seed;
  o.num_processes = 1;  // the single-process reference path
  return o;
}

void expect_same_shots(const SampleResult& got, const SampleResult& want,
                       const std::string& context) {
  ASSERT_EQ(got.shots.size(), want.shots.size()) << context;
  for (std::size_t s = 0; s < want.shots.size(); ++s) {
    EXPECT_EQ(got.shots[s].x, want.shots[s].x) << context << " shot " << s;
    EXPECT_EQ(got.shots[s].cost, want.shots[s].cost)
        << context << " shot " << s;
  }
}

/// The tests construct Sessions with explicit options; a stray
/// MBQ_DAEMON_ENDPOINT in the environment would silently re-route the
/// "local" references through some other daemon.
class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("MBQ_DAEMON_ENDPOINT");
    ::unsetenv("MBQ_WORKER_TIMEOUT_MS");
  }
};

// --- bit-identity over both transports ---------------------------------

TEST_F(ServeDaemonTest, UnixRemoteSessionMatchesLocalBitForBit) {
  const std::string sock = unix_socket_path("unix");
  Daemon daemon(daemon_options({"unix:" + sock}, 2));
  daemon.start();
  ASSERT_TRUE(daemon.running());
  EXPECT_EQ(daemon.workers(), 2);

  Rng rng(11);
  const Workload w = Workload::maxcut(random_regular_graph(10, 3, rng));
  const Angles a({0.42}, {0.31});
  std::vector<Angles> batch;
  Rng prng(12);
  for (int i = 0; i < 3; ++i) batch.push_back(Angles::random(1, prng));

  Session remote(w, "mbqc", remote_options(404, "unix:" + sock));
  Session local(w, "mbqc", local_options(404));
  ASSERT_TRUE(remote.remote());
  ASSERT_FALSE(local.remote());

  expect_same_shots(remote.sample(a, 200), local.sample(a, 200), "sample");

  const auto remote_batch = remote.sample_batch(batch, 64);
  const auto local_batch = local.sample_batch(batch, 64);
  ASSERT_EQ(remote_batch.size(), local_batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    expect_same_shots(remote_batch[i], local_batch[i],
                      "batch point " + std::to_string(i));

  const auto remote_es = remote.expectation_batch(batch);
  const auto local_es = local.expectation_batch(batch);
  ASSERT_EQ(remote_es.size(), local_es.size());
  for (std::size_t i = 0; i < remote_es.size(); ++i)
    EXPECT_EQ(remote_es[i], local_es[i]) << "expectation " << i;

  // Interleaving remote and local calls must keep the stream counters in
  // lockstep: call #4 on each side still agrees.
  expect_same_shots(remote.sample(a, 50), local.sample(a, 50),
                    "post-batch sample");

  const DaemonStats stats = daemon.stats();
  EXPECT_GE(stats.requests_total, 4u);
  EXPECT_EQ(stats.requests_active, 0u);
  EXPECT_GE(stats.slices_completed, 4u);
  EXPECT_EQ(stats.slices_completed,
            stats.slices_dispatched - stats.slices_redispatched);
  daemon.stop();
  EXPECT_FALSE(daemon.running());
}

TEST_F(ServeDaemonTest, TcpServesTwoConcurrentTenantsCorrectly) {
  Daemon daemon(daemon_options({"tcp:127.0.0.1:0"}, 2));
  daemon.start();
  const std::string endpoint = daemon.endpoint_string();
  ASSERT_NE(endpoint.find("tcp:"), std::string::npos) << endpoint;
  ASSERT_EQ(endpoint.find(":0", endpoint.size() - 2), std::string::npos)
      << "ephemeral port not resolved: " << endpoint;

  Rng rng(21);
  const Workload w1 = Workload::maxcut(random_regular_graph(10, 3, rng));
  const Workload w2 = Workload::maxcut(cycle_graph(12));
  const Angles a({0.42}, {0.31});

  // Local single-process references, computed up front.
  SampleResult want1 = Session(w1, "mbqc", local_options(1)).sample(a, 400);
  SampleResult want2 = Session(w2, "mbqc", local_options(2)).sample(a, 400);

  // Two tenants, genuinely concurrent: each holds its own connection and
  // submits at the same time, so slices of both interleave on the fleet.
  SampleResult got1, got2;
  std::atomic<int> failures{0};
  std::thread t1([&] {
    try {
      got1 = Session(w1, "mbqc", remote_options(1, endpoint)).sample(a, 400);
    } catch (...) {
      failures.fetch_add(1);
    }
  });
  std::thread t2([&] {
    try {
      got2 = Session(w2, "mbqc", remote_options(2, endpoint)).sample(a, 400);
    } catch (...) {
      failures.fetch_add(1);
    }
  });
  t1.join();
  t2.join();
  ASSERT_EQ(failures.load(), 0);
  expect_same_shots(got1, want1, "tenant 1");
  expect_same_shots(got2, want2, "tenant 2");

  const DaemonStats stats = daemon.stats();
  EXPECT_GE(stats.connections_total, 2u);
  EXPECT_GE(stats.requests_total, 2u);
  daemon.stop();
}

// --- warm cache --------------------------------------------------------

TEST_F(ServeDaemonTest, RepeatedFingerprintIsAWarmHit) {
  const std::string sock = unix_socket_path("warm");
  Daemon daemon(daemon_options({"unix:" + sock}, 2));
  daemon.start();

  shard::Request req;
  req.kind = shard::TaskKind::kSample;
  req.backend = "mbqc";
  req.seed = 77;
  req.workload = Workload::maxcut(cycle_graph(8));
  req.points = {Angles({0.42}, {0.31})};
  req.shots = 64;
  req.end = 64;

  DaemonClient client("unix:" + sock, "warm-test");
  const auto first = client.run(req);
  EXPECT_FALSE(first.warm_hit)
      << "a never-seen (spec, angles) pair reported warm";
  const auto second = client.run(req);
  EXPECT_TRUE(second.warm_hit)
      << "the identical resubmission missed the warm cache";
  // Warm or cold is a latency property only — payloads are bit-equal.
  EXPECT_EQ(first.outcomes, second.outcomes);

  // A different client repeating the same fingerprint also hits: the
  // cache is daemon-wide, not per-connection.
  DaemonClient other("unix:" + sock, "warm-test-2");
  EXPECT_TRUE(other.run(req).warm_hit);

  // New angles on the same workload miss again.
  req.points = {Angles({0.1}, {0.2})};
  EXPECT_FALSE(client.run(req).warm_hit);

  const DaemonStats stats = daemon.stats();
  EXPECT_GE(stats.warm_hits, 2u);
  EXPECT_GE(stats.warm_misses, 2u);
  daemon.stop();
}

// --- backpressure and protocol rejection -------------------------------

TEST_F(ServeDaemonTest, OverloadedConnectionGetsBusyNotAHang) {
  const std::string sock = unix_socket_path("busy");
  DaemonOptions opts = daemon_options({"unix:" + sock}, 1);
  opts.max_pending_requests = 1;
  Daemon daemon(std::move(opts));
  daemon.start();

  // DaemonClient::run is synchronous, so overload needs the raw wire:
  // handshake, then two SUBMITs back to back on one connection.
  const int fd = connect_endpoint(parse_endpoint("unix:" + sock));
  Hello hello;
  hello.client_name = "busy-test";
  shard::write_frame(fd, encode_hello(hello));
  auto reply = shard::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(frame_kind(*reply), FrameKind::kHelloOk);

  Submit s;
  s.request.kind = shard::TaskKind::kSample;
  s.request.backend = "mbqc";
  s.request.seed = 5;
  s.request.workload = Workload::maxcut(cycle_graph(10));
  s.request.points = {Angles({0.42}, {0.31})};
  s.request.shots = 512;
  s.request.end = 512;
  s.request_id = 1;
  shard::write_frame(fd, encode_submit(s));
  s.request_id = 2;
  shard::write_frame(fd, encode_submit(s));

  // Request 2 must bounce with a typed BUSY naming it; request 1 must
  // still stream to DONE untouched by the rejection.
  bool saw_busy = false, saw_done = false;
  SliceMerger merger(shard::TaskKind::kSample, 0, 512);
  while (!saw_done) {
    auto frame = shard::read_frame(fd, 30000);
    ASSERT_TRUE(frame.has_value()) << "daemon went silent";
    switch (frame_kind(*frame)) {
      case FrameKind::kBusy: {
        const Busy b = decode_busy(*frame);
        EXPECT_EQ(b.request_id, 2u);
        EXPECT_FALSE(b.message.empty());
        saw_busy = true;
        break;
      }
      case FrameKind::kSlice:
        merger.add(decode_slice(*frame));
        break;
      case FrameKind::kDone: {
        const Done d = decode_done(*frame);
        EXPECT_EQ(d.request_id, 1u);
        saw_done = true;
        break;
      }
      default:
        FAIL() << "unexpected frame kind "
               << static_cast<int>(frame_kind(*frame));
    }
  }
  EXPECT_TRUE(saw_busy);
  EXPECT_TRUE(merger.complete());
  ::close(fd);

  EXPECT_GE(daemon.stats().busy_rejections, 1u);
  daemon.stop();
}

TEST_F(ServeDaemonTest, ProtocolVersionMismatchFailsWithAMessage) {
  const std::string sock = unix_socket_path("version");
  Daemon daemon(daemon_options({"unix:" + sock}, 1));
  daemon.start();

  const int fd = connect_endpoint(parse_endpoint("unix:" + sock));
  Hello hello;
  hello.version = kProtocolVersion + 7;
  hello.client_name = "time-traveler";
  shard::write_frame(fd, encode_hello(hello));
  auto reply = shard::read_frame(fd, 30000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(frame_kind(*reply), FrameKind::kError);
  const ErrorFrame e = decode_error(*reply);
  EXPECT_EQ(e.request_id, kNoRequest);
  EXPECT_NE(e.message.find("version"), std::string::npos) << e.message;
  // ...and the daemon hangs up rather than serving a mismatched peer.
  EXPECT_FALSE(shard::read_frame(fd, 30000).has_value());
  ::close(fd);
  daemon.stop();
}

TEST_F(ServeDaemonTest, RemoteModeNeverFallsBackSilently) {
  // No daemon at this endpoint: the Session must throw, not quietly run
  // locally.
  Session s(Workload::maxcut(cycle_graph(6)), "mbqc",
            remote_options(3, "unix:/tmp/mbq-no-daemon-here.sock"));
  EXPECT_THROW(s.sample(Angles({0.1}, {0.2}), 16), Error);

  // An instance-constructed backend has no registry name a worker could
  // rebuild — remote mode refuses it loudly.
  Session inst(Workload::maxcut(cycle_graph(6)),
               api::BackendRegistry::instance().create("mbqc"),
               remote_options(3, "unix:/tmp/mbq-no-daemon-here.sock"));
  EXPECT_THROW(inst.sample(Angles({0.1}, {0.2}), 16), Error);
}

// --- THE acceptance test: SIGKILL mid-run, second tenant attached ------

TEST_F(ServeDaemonTest, SigkillMidRunRedispatchesAndStaysBitIdentical) {
  Daemon daemon(daemon_options({"tcp:localhost:0"}, 2));
  daemon.start();
  const std::string endpoint = daemon.endpoint_string();

  Rng rng(31);
  const Workload w = Workload::maxcut(random_regular_graph(14, 3, rng));
  const Workload w2 = Workload::maxcut(cycle_graph(12));
  const Angles a({0.42}, {0.31});
  constexpr int kShots = 1500;

  // Single-process references.
  const SampleResult want =
      Session(w, "mbqc", local_options(1001)).sample(a, kShots);
  const SampleResult want2 =
      Session(w2, "mbqc", local_options(1002)).sample(a, 300);

  // Killing a worker that happens to be idle only respawns it; a busy
  // victim is what forces a re-dispatch.  The schedule isn't ours to
  // control, so retry a few times until the stat moves — asserting
  // bit-identity on EVERY attempt, kill or no kill.
  bool redispatched = false;
  for (int attempt = 0; attempt < 5 && !redispatched; ++attempt) {
    const std::uint64_t before = daemon.stats().slices_redispatched;

    SampleResult got, got2;
    std::atomic<int> failures{0};
    std::thread tenant([&] {
      try {
        got = Session(w, "mbqc", remote_options(1001, endpoint))
                  .sample(a, kShots);
      } catch (...) {
        failures.fetch_add(1);
      }
    });
    std::thread second_tenant([&] {
      try {
        got2 = Session(w2, "mbqc", remote_options(1002, endpoint))
                   .sample(a, 300);
      } catch (...) {
        failures.fetch_add(1);
      }
    });

    // Wait until some worker is actually busy, then SIGKILL it.
    std::int64_t victim = -1;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (victim < 0 && std::chrono::steady_clock::now() < deadline) {
      for (const WorkerStats& ws : daemon.stats().workers)
        if (ws.busy) {
          victim = ws.pid;
          break;
        }
      if (victim < 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (victim >= 0) ::kill(static_cast<pid_t>(victim), SIGKILL);

    tenant.join();
    second_tenant.join();
    ASSERT_EQ(failures.load(), 0)
        << "a remote call failed on attempt " << attempt;
    expect_same_shots(got, want, "attempt " + std::to_string(attempt));
    expect_same_shots(got2, want2,
                      "second tenant, attempt " + std::to_string(attempt));
    redispatched = daemon.stats().slices_redispatched > before;
  }

  const DaemonStats stats = daemon.stats();
  EXPECT_TRUE(redispatched)
      << "5 SIGKILLs of a busy worker never produced a re-dispatched "
         "slice; stats: "
      << format_stats(stats);
  EXPECT_GE(stats.worker_respawns, 1u);
  EXPECT_EQ(stats.requests_active, 0u);

  // The fleet healed: two live workers, and the daemon still serves.
  EXPECT_EQ(daemon.worker_pids().size(), 2u);
  const SampleResult after =
      Session(w2, "mbqc", remote_options(1002, endpoint)).sample(a, 300);
  // Fresh session, same seed: same first call as want2.
  expect_same_shots(after, want2, "post-recovery");
  daemon.stop();
}

// --- wedged workers -----------------------------------------------------

TEST_F(ServeDaemonTest, WedgedWorkerIsKilledAndItsSliceRedispatched) {
  // A SIGSTOP'd worker keeps its channel open, so only the deadline can
  // catch it: the daemon must SIGKILL it, re-dispatch its slice to a
  // live worker, respawn the seat, and still answer bit-identically.
  const std::string sock = unix_socket_path("wedged");
  DaemonOptions opts = daemon_options({"unix:" + sock}, 2);
  opts.worker_timeout_ms = 1000;
  Daemon daemon(std::move(opts));
  daemon.start();

  const Workload w = Workload::maxcut(cycle_graph(8));
  const Angles a({0.42}, {0.31});
  const SampleResult want =
      Session(w, "mbqc", local_options(61)).sample(a, 400);

  // Seat 0 is the first free seat, so it takes the request's first
  // slice — and holds it, stopped, until its deadline fires.
  const std::int64_t victim = daemon.worker_pids().front();
  ASSERT_EQ(::kill(static_cast<pid_t>(victim), SIGSTOP), 0);
  const SampleResult got =
      Session(w, "mbqc", remote_options(61, "unix:" + sock)).sample(a, 400);
  expect_same_shots(got, want, "wedged worker");

  const DaemonStats stats = daemon.stats();
  EXPECT_GE(stats.slices_redispatched, 1u) << format_stats(stats);
  EXPECT_GE(stats.worker_respawns, 1u) << format_stats(stats);
  EXPECT_EQ(stats.requests_active, 0u);
  const std::vector<std::int64_t> pids = daemon.worker_pids();
  EXPECT_EQ(std::count(pids.begin(), pids.end(), victim), 0)
      << "the wedged worker was never replaced";
  daemon.stop();
}

// --- one thread per worker ---------------------------------------------

TEST_F(ServeDaemonTest, WorkersRunOnOneThread) {
  // n = 14 puts the pattern register above the 2^14-amplitude chunk
  // cutoff, where the simulator kernels open a thread team unless the
  // worker pinned its kernel threads: a worker that did not would show
  // one thread per core here.
  const std::string sock = unix_socket_path("threads");
  Daemon daemon(daemon_options({"unix:" + sock}, 2));
  daemon.start();

  Rng rng(31);
  shard::Request req;
  req.kind = shard::TaskKind::kSample;
  req.backend = "mbqc";
  req.seed = 5;
  req.workload = Workload::maxcut(random_regular_graph(14, 3, rng));
  req.points = {Angles({0.42}, {0.31})};
  req.shots = 8;
  req.end = 8;
  DaemonClient("unix:" + sock, "threads-test").run(req);

  const DaemonStats stats = daemon.stats();
  for (const WorkerStats& ws : stats.workers) {
    ASSERT_GE(ws.slices_done, 1u) << "a worker ran no slice";
    std::ifstream status("/proc/" + std::to_string(ws.pid) + "/status");
    std::string key;
    int threads = 0;
    while (status >> key) {
      if (key == "Threads:") status >> threads;
      status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    EXPECT_EQ(threads, 1) << "worker " << ws.pid;
  }
  daemon.stop();
}

// --- deterministic errors ----------------------------------------------

TEST_F(ServeDaemonTest, FailedRequestGetsTheSerialLoopsError) {
  // Requests that fail in several slices at once, on a 4-worker fleet:
  // the daemon must answer with the error the serial loop (one worker
  // running the whole request) reports — a check-phase failure over any
  // evaluation failure, then the lowest index — however the slices are
  // scheduled.  A p = 1 point fails the p = 2 circuit's prepare; NaN
  // angles pass it and fail evaluation.
  const std::string sock = unix_socket_path("errors");
  Daemon daemon(daemon_options({"unix:" + sock}, 4));
  daemon.start();
  DaemonClient client("unix:" + sock, "errors-test");

  qaoa::ParamCircuit pc(4);
  for (int layer = 0; layer < 2; ++layer) {
    for (int q = 0; q < 4; ++q) pc.rz(q, qaoa::Param::gamma(layer));
    for (int q = 0; q + 1 < 4; ++q) pc.cz(q, q + 1);
    for (int q = 0; q < 4; ++q) pc.rx(q, qaoa::Param::beta(layer));
  }
  const real nan = std::numeric_limits<real>::quiet_NaN();
  std::vector<Angles> points(8, Angles({0.3, 0.1}, {0.3, 0.2}));
  points[1] = Angles({0.3, 0.1}, {0.3, nan});
  points[3] = Angles({nan, 0.1}, {0.3, 0.2});

  for (const bool with_check : {true, false}) {
    for (const shard::TaskKind kind :
         {shard::TaskKind::kExpectation, shard::TaskKind::kSample}) {
      shard::Request req;
      req.kind = kind;
      req.backend = "mbqc";
      req.seed = 9;
      req.workload = Workload::parameterized(
          qaoa::CostHamiltonian::maxcut(cycle_graph(4)), pc);
      req.points = points;
      if (with_check) req.points[6] = Angles({0.3}, {0.2});
      req.shots = kind == shard::TaskKind::kSample ? 3 : 0;
      req.end = kind == shard::TaskKind::kSample ? 24 : 8;

      const shard::Response serial = shard::execute_request(req);
      ASSERT_FALSE(serial.ok);
      EXPECT_EQ(serial.error_in_eval, !with_check);
      for (int trial = 0; trial < 3; ++trial) {
        try {
          client.run(req);
          ADD_FAILURE() << "a failing request was answered with DONE";
        } catch (const RemoteError& e) {
          EXPECT_EQ(std::string(e.what()), serial.error_message);
          EXPECT_EQ(e.index(), serial.error_index);
          EXPECT_EQ(e.in_eval(), serial.error_in_eval);
        }
      }
    }
  }
  EXPECT_EQ(daemon.stats().requests_active, 0u);
  daemon.stop();
}

}  // namespace
}  // namespace mbq

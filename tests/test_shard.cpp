// Process-sharded sampling & batch evaluation: results must be
// BIT-identical to the in-process path at every worker count (the
// process-count half of Session's determinism contract), errors and
// call counters must be the same in every execution mode, a sharded
// Session must survive worker death, and ShardPlan must cover the index
// space exactly for every (total, workers) shape.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "mbq/api/api.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/common/serialize.h"
#include "mbq/graph/generators.h"
#include "mbq/serve/daemon.h"
#include "mbq/shard/plan.h"
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

std::string worker_path() {
  const std::string path = shard::resolve_worker_path();
  EXPECT_FALSE(path.empty())
      << "mbq_worker not found next to the test binary — build the "
         "mbq_worker target (part of the default build)";
  return path;
}

/// Live (non-zombie) mbq_worker children of this process: the fleet of
/// the Session's embedded daemon, which runs in this process.
std::vector<pid_t> worker_children() {
  std::vector<pid_t> out;
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string pid = entry.path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream status(entry.path() / "status");
    std::string key, name, state;
    long ppid = -1;
    while (status >> key) {
      if (key == "Name:") status >> name;
      else if (key == "State:") status >> state;
      else if (key == "PPid:") status >> ppid;
      status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    if (ppid == ::getpid() && name == "mbq_worker" && state != "Z")
      out.push_back(static_cast<pid_t>(std::stol(pid)));
  }
  return out;
}

/// The message of the Error `call` throws ("" if it returns).
std::string error_of(const std::function<void()>& call) {
  try {
    call();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

SessionOptions sharded_options(std::uint64_t seed, int processes) {
  SessionOptions o;
  o.seed = seed;
  o.num_processes = processes;
  return o;
}

std::vector<Angles> random_points(int count, int p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Angles> points;
  points.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) points.push_back(Angles::random(p, rng));
  return points;
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

// --- ShardPlan ---------------------------------------------------------

TEST(ShardPlan, PropertiesHoldOverUnevenCounts) {
  // Exact cover in order, balanced within one item, empties only as a
  // trailing suffix — for every shape including total < workers,
  // total == 0, and counts that do not divide evenly.
  for (const std::uint64_t total : {0ULL, 1ULL, 2ULL, 3ULL, 5ULL, 7ULL,
                                    16ULL, 17ULL, 100ULL, 1023ULL}) {
    for (const int workers : {1, 2, 3, 4, 5, 7, 16}) {
      const shard::ShardPlan plan(total, workers);
      ASSERT_EQ(plan.num_workers(), workers);
      EXPECT_EQ(plan.total(), total);

      std::uint64_t covered = 0, min_size = ~0ULL, max_size = 0;
      std::uint64_t expect_begin = 0;
      bool seen_empty = false;
      for (const shard::ShardRange& r : plan.ranges()) {
        ASSERT_LE(r.begin, r.end);
        ASSERT_EQ(r.begin, expect_begin) << "ranges must be contiguous";
        expect_begin = r.end;
        covered += r.size();
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
        if (r.empty()) seen_empty = true;
        else EXPECT_FALSE(seen_empty) << "empty ranges must be trailing";
      }
      EXPECT_EQ(covered, total) << total << "/" << workers;
      EXPECT_EQ(plan.ranges().back().end, total);
      EXPECT_LE(max_size - min_size, 1u) << "sizes must differ by <= 1";
      EXPECT_EQ(plan.active_workers(),
                static_cast<int>(std::min<std::uint64_t>(
                    total, static_cast<std::uint64_t>(workers))));
    }
  }
  EXPECT_THROW(shard::ShardPlan(4, 0), Error);
}

// --- wire format -------------------------------------------------------

TEST(ShardProtocol, WorkloadAndRequestRoundTrip) {
  Workload qaoa_w = Workload::maxcut(cycle_graph(5));
  qaoa_w.with_linear_style(core::LinearTermStyle::FusedIntoMixer);
  Workload mis_w = Workload::mis(path_graph(4));

  for (const Workload* w : {&qaoa_w, &mis_w}) {
    shard::Request req;
    req.kind = shard::TaskKind::kSample;
    req.backend = "mbqc";
    req.seed = 0xDEADBEEF;
    req.workload = *w;
    req.points = random_points(3, 2, 9);
    req.shots = 17;
    req.base_call = 5;
    req.begin = 3;
    req.end = 29;

    const auto frame = shard::encode_request(req);
    const shard::Request back = shard::decode_request(frame);
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.backend, req.backend);
    EXPECT_EQ(back.seed, req.seed);
    EXPECT_EQ(back.workload.ansatz(), w->ansatz());
    EXPECT_EQ(back.workload.num_qubits(), w->num_qubits());
    EXPECT_EQ(back.workload.linear_style(), w->linear_style());
    EXPECT_EQ(back.workload.cost().constant(), w->cost().constant());
    ASSERT_EQ(back.workload.cost().terms().size(), w->cost().terms().size());
    for (std::size_t t = 0; t < w->cost().terms().size(); ++t) {
      EXPECT_EQ(back.workload.cost().terms()[t].coeff,
                w->cost().terms()[t].coeff);
      EXPECT_EQ(back.workload.cost().terms()[t].support,
                w->cost().terms()[t].support);
    }
    ASSERT_EQ(back.points.size(), req.points.size());
    for (std::size_t i = 0; i < req.points.size(); ++i) {
      EXPECT_EQ(back.points[i].gamma, req.points[i].gamma);  // bit-exact
      EXPECT_EQ(back.points[i].beta, req.points[i].beta);
    }
    EXPECT_EQ(back.shots, req.shots);
    EXPECT_EQ(back.base_call, req.base_call);
    EXPECT_EQ(back.begin, req.begin);
    EXPECT_EQ(back.end, req.end);
  }
  EXPECT_EQ(shard::unshardable_reason(qaoa_w), "");

  // Truncated frames throw instead of decoding garbage.
  auto frame = shard::encode_request(shard::Request{});
  frame.resize(frame.size() - 3);
  EXPECT_THROW(shard::decode_request(frame), Error);
}

TEST(ShardProtocol, CustomWorkloadsAreUnshardable) {
  const Workload w = Workload::custom(
      qaoa::CostHamiltonian::maxcut(cycle_graph(3)),
      [](const Angles&) { return Circuit(3); });
  EXPECT_FALSE(shard::shardable(w));
  EXPECT_NE(shard::unshardable_reason(w), "");
  ByteWriter out;
  EXPECT_THROW(shard::encode_workload(out, w), Error);
}

TEST(ShardProtocol, ResponseRoundTripIsBitExact) {
  shard::Response ok;
  ok.outcomes = {0, 7, 0xFFFFFFFFFFFFFFFFULL};
  ok.values = {0.1, -0.0, 3.5e-300};
  const shard::Response ok_back =
      shard::decode_response(shard::encode_response(ok));
  EXPECT_TRUE(ok_back.ok);
  EXPECT_EQ(ok_back.outcomes, ok.outcomes);
  ASSERT_EQ(ok_back.values.size(), ok.values.size());
  for (std::size_t i = 0; i < ok.values.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ok_back.values[i]),
              std::bit_cast<std::uint64_t>(ok.values[i]));

  shard::Response err;
  err.ok = false;
  err.error_index = 42;
  err.error_message = "backend 'x' cannot run this workload";
  err.error_in_eval = true;
  const shard::Response err_back =
      shard::decode_response(shard::encode_response(err));
  EXPECT_FALSE(err_back.ok);
  EXPECT_EQ(err_back.error_index, 42u);
  EXPECT_EQ(err_back.error_message, err.error_message);
  EXPECT_TRUE(err_back.error_in_eval);

  // A corrupt vector-length prefix must throw Error, never attempt the
  // allocation it announces.
  ByteWriter corrupt;
  corrupt.u8(0);            // kStatusOk
  corrupt.u32(0xFFFFFFFF);  // outcomes length: ~32 GiB of u64s
  EXPECT_THROW(shard::decode_response(corrupt.data()), Error);
}

// --- worker task logic (in-process, no fork) ---------------------------

TEST(ShardTask, SliceReplaysTheSerialStreams) {
  // execute_request IS the worker binary's compute path; run it inline
  // against a serial Session to pin the stream assignment itself.
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.4}, {0.3});
  const int shots = 12;

  Session serial(w, "mbqc", sharded_options(11, 1));
  const SampleResult want = serial.sample(a, shots);

  shard::Request req;
  req.kind = shard::TaskKind::kSample;
  req.backend = "mbqc";
  req.seed = 11;
  req.workload = w;
  req.points = {a};
  req.shots = shots;
  req.base_call = 0;  // the session's first sample call
  req.begin = 3;
  req.end = 9;
  const shard::Response r = shard::execute_request(req);
  ASSERT_TRUE(r.ok) << r.error_message;
  ASSERT_EQ(r.outcomes.size(), 6u);
  for (std::size_t t = 0; t < r.outcomes.size(); ++t)
    EXPECT_EQ(r.outcomes[t], want.shots[3 + t].x) << t;
}

TEST(ShardTask, ErrorsCarryTheLowestFailingIndex) {
  // Non-Clifford angles on the clifford backend: the slice fails at its
  // first pair with the same message Session::require_supported emits.
  const Workload w = Workload::maxcut(cycle_graph(4));
  shard::Request req;
  req.kind = shard::TaskKind::kSample;
  req.backend = "clifford";
  req.seed = 1;
  req.workload = w;
  req.points = {Angles({0.37}, {0.21})};
  req.shots = 8;
  req.begin = 2;
  req.end = 6;
  const shard::Response r = shard::execute_request(req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error_index, 2u);
  EXPECT_NE(r.error_message.find("cannot run this workload"),
            std::string::npos)
      << r.error_message;

  // Expectation slices report support failures as CHECK-phase (streams
  // not yet drawn), which the parent maps to an unburned call counter.
  shard::Request exp = req;
  exp.kind = shard::TaskKind::kExpectation;
  exp.begin = 0;
  exp.end = 1;
  const shard::Response er = shard::execute_request(exp);
  ASSERT_FALSE(er.ok);
  EXPECT_EQ(er.error_index, 0u);
  EXPECT_FALSE(er.error_in_eval);

  req.backend = "no-such-backend";
  const shard::Response unknown = shard::execute_request(req);
  ASSERT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error_message.find("unknown backend"), std::string::npos);
}

TEST(ShardTask, FramesWithOneSpecShareOneCostTable) {
  // Every frame decodes a fresh Workload.  The worker's warm workload
  // cache hands the second frame the first one's workload, cost-table
  // memo included, and the values stay an in-process Session's.
  Rng g(7);
  const Workload w = Workload::maxcut(random_regular_graph(10, 3, g));
  const std::vector<Angles> points = {Angles({0.4}, {0.3}),
                                      Angles({-0.7}, {1.2})};
  Session serial(w, "mbqc", sharded_options(5, 1));
  const std::vector<real> want = serial.expectation_batch(points);

  shard::Request req;
  req.kind = shard::TaskKind::kExpectation;
  req.backend = "mbqc";
  req.seed = 5;
  req.workload = w;
  req.points = points;
  req.stream_base = std::uint64_t{1} << 63;  // a fresh Session's first call
  req.end = points.size();
  const std::vector<std::byte> frame = shard::encode_request(req);
  std::shared_ptr<const std::vector<real>> tables[2];
  for (auto& table : tables) {
    const shard::Request decoded = shard::decode_request(frame);
    const shard::Response r = shard::execute_request(decoded);
    ASSERT_TRUE(r.ok) << r.error_message;
    ASSERT_EQ(r.values.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.values[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << i;
    table = shard::warm_workload(decoded.workload,
                                 api::spec_fingerprint(decoded.workload.spec()))
                .cost_table();
  }
  EXPECT_EQ(tables[0], tables[1]);
  EXPECT_NE(shard::decode_request(frame).workload.cost_table(), tables[0])
      << "a decoded workload shares its memo with nothing";
}

TEST(ShardTask, WarmWorkloadCacheComparesCostsAndBoundsBytes) {
  // One fingerprint for two cost functions, as a collision would give:
  // the second must get its own table, never the first one's.
  const std::uint64_t key = 0x5EEDu;
  const auto table_of = [&](const Workload& w) {
    return shard::warm_workload(w, key).cost_table();
  };
  const auto ring = table_of(Workload::maxcut(cycle_graph(8)));
  EXPECT_EQ(table_of(Workload::maxcut(cycle_graph(8))), ring);
  const Workload star = Workload::maxcut(star_graph(8));
  const auto other = table_of(star);
  EXPECT_NE(other, ring);
  EXPECT_EQ(*other, star.cost().cost_table());

  // A 2^22-entry table fills the budget alone: keeping it evicts the
  // ring, which comes back with a fresh table.  Tables are charged
  // before they are built, so the big one never is.
  ASSERT_EQ(std::uint64_t{sizeof(real)} << 22, shard::kWarmTableBytes);
  shard::warm_workload(Workload::maxcut(cycle_graph(22)), 0xB16u);
  const auto again = table_of(Workload::maxcut(cycle_graph(8)));
  EXPECT_NE(again, ring);
  EXPECT_EQ(*again, *ring);

  // A table larger than the budget is not kept, and evicts nothing, up
  // to the largest register a spec allows.
  for (const int n : {23, 63}) {
    shard::warm_workload(Workload::maxcut(cycle_graph(n)), 0xB17u);
    EXPECT_EQ(table_of(Workload::maxcut(cycle_graph(8))), again) << n;
  }
}

TEST(ShardTask, WorkerItemsShareATeamFromTheParallelGrain) {
  // A worker (execute_request) runs a slice's items on a team only when
  // they hold at least kParallelGrain amplitudes in all (items x 2^n); an
  // in-process Session runs any two or more items on one.  A probe
  // backend counts the items that ran inside an active team.
  static std::atomic<int> on_team{0};
  class TeamProbe final : public api::Backend {
   public:
    std::string name() const override { return "team-probe"; }
    api::Capabilities capabilities() const override { return {}; }
    real expectation(const Workload&, const Angles&, Rng&,
                     const api::Prepared*) const override {
      record();
      return 0.0;
    }
    std::uint64_t sample_one(const Workload&, const Angles&, Rng&,
                             const api::Prepared*) const override {
      record();
      return 0;
    }

   private:
    static void record() {
#ifdef MBQ_HAS_OPENMP
      if (omp_in_parallel()) ++on_team;
#endif
    }
  };
  auto& registry = api::BackendRegistry::instance();
  if (!registry.contains("team-probe"))
    registry.add("team-probe", [] { return std::make_shared<TeamProbe>(); });
  struct ThreadGuard {
    ~ThreadGuard() { set_num_threads(0); }
  } guard;
  set_num_threads(4);

  const struct {
    int n;
    std::uint64_t items;
  } cases[] = {{4, 255}, {4, 256}, {10, 3}, {10, 4}, {12, 1}, {12, 2}};
  for (const auto& [n, items] : cases) {
    const int all = static_cast<int>(items);
    const bool many = has_openmp() && items > 1;
    const bool worker_team =
        many && items << n >= std::uint64_t(kParallelGrain);
    for (const shard::TaskKind kind :
         {shard::TaskKind::kExpectation, shard::TaskKind::kSample}) {
      const bool sample = kind == shard::TaskKind::kSample;
      shard::Request req;
      req.kind = kind;
      req.backend = "team-probe";
      req.workload = Workload::maxcut(cycle_graph(n));
      if (sample) {
        req.points = {Angles({0.4}, {0.3})};
        req.shots = items;
      } else {
        req.points.assign(items, Angles({0.4}, {0.3}));
      }
      req.end = items;
      const std::string where = "n=" + std::to_string(n) +
                                " items=" + std::to_string(items) +
                                (sample ? " (sample)" : " (expectation)");

      on_team = 0;
      const shard::Response worker = shard::execute_request(req);
      ASSERT_TRUE(worker.ok) << worker.error_message;
      EXPECT_EQ(on_team.load(), worker_team ? all : 0) << "worker, " << where;

      on_team = 0;
      Session session(req.workload, std::make_shared<TeamProbe>(),
                      sharded_options(3, 1));
      if (sample)
        session.sample(req.points.front(), all);
      else
        session.expectation_batch(req.points);
      EXPECT_EQ(on_team.load(), many ? all : 0) << "session, " << where;
    }
  }
}

// --- process-count invariance ------------------------------------------

TEST(ShardSession, SampleInvariantAcrossProcessCounts) {
  // The acceptance sweep: workers {1, 2, 4} x seeds {0, 1, 42} against
  // the in-process reference — outcome streams AND merged histograms
  // bit-identical (1 process = the documented in-process fallback).
  const Workload w = Workload::maxcut(cycle_graph(5));
  const Angles a({0.4}, {0.3});
  const int shots = 24;

  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    Session reference(w, "mbqc", sharded_options(seed, 1));
    const SampleResult want = reference.sample(a, shots);

    for (const int processes : {1, 2, 4}) {
      Session session(w, "mbqc", sharded_options(seed, processes));
      const SampleResult got = session.sample(a, shots);
      if (processes > 1)
        EXPECT_EQ(session.shard_workers(), processes)
            << "sharding silently fell back — the sweep would be vacuous";
      else
        EXPECT_EQ(session.shard_workers(), 0);
      expect_same_shots(got, want,
                        "seed " + std::to_string(seed) + " processes " +
                            std::to_string(processes));
      EXPECT_EQ(got.counts(5), want.counts(5));
    }
  }
}

TEST(ShardSession, SampleBatchInvariantAcrossProcessCounts) {
  const Workload w = Workload::maxcut(path_graph(4));
  const std::vector<Angles> points = random_points(3, 1, 77);
  const int shots = 10;

  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    Session reference(w, "mbqc", sharded_options(seed, 1));
    const std::vector<SampleResult> want =
        reference.sample_batch(points, shots);

    for (const int processes : {2, 4}) {
      Session session(w, "mbqc", sharded_options(seed, processes));
      const std::vector<SampleResult> got =
          session.sample_batch(points, shots);
      ASSERT_EQ(session.shard_workers(), processes);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        expect_same_shots(got[i], want[i],
                          "seed " + std::to_string(seed) + " point " +
                              std::to_string(i));
    }
  }
}

TEST(ShardSession, ExpectationBatchInvariantAcrossProcessCounts) {
  // The n = 14 statevector input folds <C> over 2^14 entries and caches
  // its first point before the batch: in-process, that point's value
  // comes from a lone expectation() on the whole thread budget and the
  // other from a lone prepare, while each worker folds both on one
  // thread.
  Rng graph_rng(14);
  const Workload small = Workload::maxcut(cycle_graph(4));
  const Workload large =
      Workload::maxcut(random_regular_graph(14, 3, graph_rng));
  const struct {
    const char* backend;
    const Workload& workload;
    std::vector<Angles> points;
    bool cache_first;
  } inputs[] = {
      {"mbqc", small, random_points(7, 2, 5), false},
      {"statevector", small, random_points(7, 2, 5), false},
      {"statevector", large, random_points(2, 1, 8), true},
  };

  for (const auto& in : inputs) {
    const auto batch = [&](Session& session) {
      if (in.cache_first) session.expectation(in.points[0]);
      return session.expectation_batch(in.points);
    };
    Session reference(in.workload, in.backend, sharded_options(42, 1));
    const std::vector<real> want = batch(reference);

    for (const int processes : {2, 4}) {
      Session session(in.workload, in.backend,
                      sharded_options(42, processes));
      const std::vector<real> got = batch(session);
      ASSERT_EQ(session.shard_workers(), processes) << in.backend;
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << in.backend << " point " << i;
    }
  }
}

TEST(ShardSession, ShardedAndInProcessCallsShareOneStreamSequence) {
  // Mixing sharded and in-process calls on one session must not disturb
  // the call-index sequence: call k draws stream(k) either way.
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.4}, {0.3});

  Session reference(w, "mbqc", sharded_options(13, 1));
  const SampleResult want0 = reference.sample(a, 8);
  const SampleResult want1 = reference.sample(a, 8);
  const SampleResult want2 = reference.sample(a, 8);

  Session session(w, "mbqc", sharded_options(13, 2));
  const SampleResult got0 = session.sample(a, 8);   // sharded
  EXPECT_EQ(session.shard_workers(), 2);
  const SampleResult got1 = session.sample(a, 1);   // 1 shot: in-process
  const SampleResult got2 = session.sample(a, 8);   // sharded again
  expect_same_shots(got0, want0, "call 0");
  ASSERT_EQ(got1.shots.size(), 1u);
  EXPECT_EQ(got1.shots[0].x, want1.shots[0].x);
  expect_same_shots(got2, want2, "call 2");
}

TEST(ShardSession, EnvironmentVariableSelectsTheProcessCount) {
  // num_processes = 0 (the default) defers to MBQ_NUM_PROCESSES — the
  // hook the CI matrix uses to run the whole tier-1 suite sharded.
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.4}, {0.3});

  Session reference(w, "mbqc", sharded_options(3, 1));
  const SampleResult want = reference.sample(a, 8);

  ASSERT_EQ(setenv("MBQ_NUM_PROCESSES", "2", 1), 0);
  Session session(w, "mbqc", sharded_options(3, 0));
  EXPECT_EQ(session.num_processes(), 2);
  const SampleResult got = session.sample(a, 8);
  ASSERT_EQ(unsetenv("MBQ_NUM_PROCESSES"), 0);
  EXPECT_EQ(session.shard_workers(), 2);
  expect_same_shots(got, want, "via MBQ_NUM_PROCESSES");
}

// --- graceful fallback -------------------------------------------------

TEST(ShardSession, CustomWorkloadsFallBackInProcess) {
  const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(3));
  const Workload w = Workload::custom(cost, [](const Angles& a) {
    Circuit c(3);
    for (int q = 0; q < 3; ++q) c.rz(q, a.gamma[0]);
    return c;
  });
  const Angles a({0.4}, {0.3});

  Session reference(w, "statevector", sharded_options(5, 1));
  Session session(w, "statevector", sharded_options(5, 4));
  const SampleResult want = reference.sample(a, 8);
  const SampleResult got = session.sample(a, 8);
  EXPECT_EQ(session.shard_workers(), 0) << "custom ansatz cannot shard";
  expect_same_shots(got, want, "custom fallback");
}

TEST(ShardSession, RuntimeRegisteredBackendsFallBackInProcess) {
  // A backend add()ed at runtime exists in THIS process's registry only
  // — a worker could never rebuild it, so such sessions must not shard
  // (and must still work).
  static bool registered = false;
  if (!registered) {
    api::BackendRegistry::instance().add(
        "shard-test-alias",
        [] { return std::make_shared<api::StatevectorBackend>(); });
    registered = true;
  }
  EXPECT_FALSE(api::BackendRegistry::instance().is_builtin("shard-test-alias"));
  EXPECT_TRUE(api::BackendRegistry::instance().is_builtin("mbqc"));

  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.4}, {0.3});
  Session session(w, "shard-test-alias", sharded_options(5, 4));
  Session reference(w, "statevector", sharded_options(5, 1));
  const SampleResult got = session.sample(a, 8);
  EXPECT_EQ(session.shard_workers(), 0);
  expect_same_shots(got, reference.sample(a, 8), "runtime-registered");
}

TEST(ShardSession, MissingWorkerBinaryFallsBackInProcess) {
  SessionOptions o = sharded_options(5, 4);
  o.worker_path = "/nonexistent/mbq_worker";
  const Workload w = Workload::maxcut(cycle_graph(4));
  Session session(w, "mbqc", o);
  Session reference(w, "mbqc", sharded_options(5, 1));
  const Angles a({0.4}, {0.3});
  const SampleResult got = session.sample(a, 8);
  EXPECT_EQ(session.shard_workers(), 0);
  expect_same_shots(got, reference.sample(a, 8), "missing worker binary");
}

TEST(ShardSession, UnsupportedPointsThrowLikeTheSerialLoop) {
  // Support failures must throw Error whether detected in the parent
  // (sample: the parent still runs checked_prepared) or in a worker
  // (expectation_batch: workers do their own checks and the parent
  // rethrows the lowest failing point, with the call's stream indices
  // NOT consumed — matching the serial loop, which throws before
  // burning any).
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles clifford_point({kPi / 2}, {kPi / 4});
  const Angles generic_point({0.37}, {0.21});

  Session session(w, "clifford", sharded_options(2, 2));
  EXPECT_THROW(session.sample(generic_point, 8), Error);

  const std::vector<Angles> points = {clifford_point, generic_point};
  try {
    session.expectation_batch(points);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot run this workload"),
              std::string::npos)
        << e.what();
  }
  // The failed batch burned no expectation streams: the next call still
  // draws stream 0, like a serial session whose failing loop never got
  // past the support check.
  Session reference(w, "clifford", sharded_options(2, 1));
  EXPECT_EQ(session.expectation(clifford_point),
            reference.expectation(clifford_point));
}

// --- worker command line -----------------------------------------------

TEST(ShardWorker, TakesItsThreadBudgetAsASecondArgument) {
  // The budget is required: a missing or extra argument, or anything but
  // an integer >= 1, is a usage error (exit 2, before the channel is
  // touched); a valid budget runs the request loop, which ends cleanly
  // when the parent closes the channel.
  const std::string path = worker_path();
  ASSERT_FALSE(path.empty());
  for (const char* bad : {"0", "-1", "abc", "2x", " 2", "+2", ""}) {
    const std::string cmd = "'" + path + "' 3 '" + bad + "' 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << bad;
    EXPECT_EQ(WEXITSTATUS(status), 2) << "threads argument " << bad;
  }
  for (const char* args : {" 3", " 3 2 2"}) {
    const std::string cmd = "'" + path + "'" + args + " 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << "arguments" << args;
  }
  for (const int threads : {1, 2}) {
    const shard::SpawnedWorker w = shard::spawn_worker(path, threads);
    ::close(w.fd);
    int status = 0;
    ASSERT_EQ(::waitpid(w.pid, &status, 0), w.pid);
    ASSERT_TRUE(WIFEXITED(status)) << threads;
    EXPECT_EQ(WEXITSTATUS(status), 0) << "threads " << threads;
  }
  EXPECT_THROW(shard::spawn_worker(path, 0), Error);
}

// --- worker death ------------------------------------------------------

TEST(ShardWorkerDeath, SessionSurvivesAKilledWorker) {
  // A dead worker is the embedded daemon's to handle: it respawns the
  // seat (and re-dispatches any slice the worker held), so the Session
  // keeps sharding and its next call is bit-identical to an
  // uninterrupted reference.
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.4}, {0.3});

  Session session(w, "mbqc", sharded_options(21, 2));
  const SampleResult first = session.sample(a, 8);  // starts the daemon
  ASSERT_EQ(session.shard_workers(), 2);

  const std::vector<pid_t> fleet = worker_children();
  ASSERT_EQ(fleet.size(), 2u);
  const pid_t victim = fleet[0];
  ASSERT_EQ(kill(victim, SIGKILL), 0);

  Session reference(w, "mbqc", sharded_options(21, 1));
  expect_same_shots(first, reference.sample(a, 8), "pre-death call");
  expect_same_shots(session.sample(a, 8), reference.sample(a, 8),
                    "post-death call");
  expect_same_shots(session.sample(a, 8), reference.sample(a, 8),
                    "second post-death call");
  EXPECT_EQ(session.shard_workers(), 2);
  const std::vector<pid_t> healed = worker_children();
  EXPECT_EQ(healed.size(), 2u);
  EXPECT_EQ(std::count(healed.begin(), healed.end(), victim), 0)
      << "the killed worker is still counted";
}

// --- deterministic errors ----------------------------------------------

TEST(ShardSession, ErrorsAndCountersAreTheSameInEveryMode) {
  // A declarative circuit that needs p = 2, under entangler noise so an
  // expectation value depends on its stream (and so shows the counter).
  // A p = 1 point fails its check phase (prepare throws); a NaN angle
  // passes it and fails evaluation (the pattern run meets a zero-
  // probability branch), with a different message per position.
  qaoa::ParamCircuit pc(4);
  for (int layer = 0; layer < 2; ++layer) {
    for (int q = 0; q < 4; ++q) pc.rz(q, qaoa::Param::gamma(layer));
    for (int q = 0; q + 1 < 4; ++q) pc.cz(q, q + 1);
    for (int q = 0; q < 4; ++q) pc.rx(q, qaoa::Param::beta(layer));
  }
  Workload w = Workload::parameterized(
      qaoa::CostHamiltonian::maxcut(cycle_graph(4)), pc);
  w.with_entangler_noise(0.05);
  const real nan = std::numeric_limits<real>::quiet_NaN();
  const Angles shallow({0.3}, {0.2});
  const Angles nan_gamma({nan, 0.1}, {0.3, 0.2});
  const Angles nan_beta({0.3, 0.1}, {0.3, nan});
  std::vector<Angles> good = random_points(8, 2, 19);

  // Eight points, so every point is its own daemon slice at 2 and 4
  // workers: eval failures in slices 2 and 5, a check failure in 6.
  std::vector<Angles> with_check = good;
  with_check[2] = nan_beta;
  with_check[5] = nan_gamma;
  with_check[6] = shallow;
  std::vector<Angles> eval_only = good;
  eval_only[2] = nan_beta;
  eval_only[5] = nan_gamma;

  const std::string sock = "/tmp/mbq-shard-test-errors-" +
                           std::to_string(::getpid()) + ".sock";
  serve::DaemonOptions dopts;
  dopts.endpoints = {"unix:" + sock};
  dopts.workers = 2;
  dopts.worker_path = worker_path();
  serve::Daemon daemon(dopts);
  daemon.start();

  struct Outcome {
    std::string check_error, eval_error;
    real after_check = 0.0, after_eval = 0.0;
    std::uint64_t hits = 0, misses = 0;
  };
  const auto run = [&](const SessionOptions& o, const std::string& mode) {
    Session s(w, "mbqc", o);
    Outcome out;
    out.check_error = error_of([&] { s.expectation_batch(with_check); });
    out.after_check = s.expectation(good[0]);
    out.eval_error = error_of([&] { s.expectation_batch(eval_only); });
    out.after_eval = s.expectation(good[0]);
    out.hits = s.cache_hits();
    out.misses = s.cache_misses();
    if (o.num_processes > 1) {
      EXPECT_EQ(s.shard_workers(), o.num_processes) << mode;
    }
    return out;
  };

  const Outcome want = run(sharded_options(7, 1), "in-process");
  // The serial loop's errors: the check failure wins over the earlier
  // eval failures, then the lowest-index eval failure.
  EXPECT_NE(want.check_error.find("gamma[1]"), std::string::npos)
      << want.check_error;
  const auto error_at = [&](const Angles& a) {
    Session s(w, "mbqc", sharded_options(7, 1));
    return error_of([&] { s.expectation_batch(std::vector<Angles>{a}); });
  };
  ASSERT_FALSE(want.eval_error.empty());
  EXPECT_EQ(want.eval_error, error_at(nan_beta));
  EXPECT_NE(want.eval_error, error_at(nan_gamma));
  // Counters: the check failure consumed no index, so the next call
  // draws stream 0; the eval failure consumed its eight, so the call
  // after it draws stream 9.
  Session reference(w, "mbqc", sharded_options(7, 1));
  EXPECT_EQ(want.after_check, reference.expectation(good[0]));
  reference.expectation_batch(good);
  EXPECT_EQ(want.after_eval, reference.expectation(good[0]));

  SessionOptions remote = sharded_options(7, 1);
  remote.daemon_endpoint = "unix:" + sock;
  const std::vector<std::pair<std::string, SessionOptions>> modes = {
      {"2 processes", sharded_options(7, 2)},
      {"4 processes", sharded_options(7, 4)},
      {"remote", remote}};
  for (const auto& [mode, options] : modes) {
    const Outcome got = run(options, mode);
    EXPECT_EQ(got.check_error, want.check_error) << mode;
    EXPECT_EQ(got.eval_error, want.eval_error) << mode;
    EXPECT_EQ(got.after_check, want.after_check) << mode;
    EXPECT_EQ(got.after_eval, want.after_eval) << mode;
    EXPECT_EQ(got.hits, want.hits) << mode;
    EXPECT_EQ(got.misses, want.misses) << mode;
  }
  daemon.stop();
}

// --- merge-order independence ------------------------------------------

TEST(ShardTask, SliceMergeIsArrivalOrderIndependent) {
  // Execute a plan's slices independently and merge them in many
  // different arrival orders: every permutation must reproduce the
  // serial result bit for bit, because each slice's payload is a pure
  // function of (seed, global indices) and merging places it at its
  // global offset.  This is the exact property the serving daemon's
  // streaming dispatch leans on.
  const Workload w = Workload::maxcut(cycle_graph(6));
  const std::vector<Angles> points = random_points(3, 1, 77);
  const int shots = 20;
  const std::uint64_t total = points.size() * shots;

  Session serial(w, "mbqc", sharded_options(33, 1));
  const auto want_batch = serial.sample_batch(points, shots);
  std::vector<std::uint64_t> want;
  for (const SampleResult& r : want_batch)
    for (const auto& shot : r.shots) want.push_back(shot.x);
  ASSERT_EQ(want.size(), total);

  shard::Request whole;
  whole.kind = shard::TaskKind::kSample;
  whole.backend = "mbqc";
  whole.seed = 33;
  whole.workload = w;
  whole.points = points;
  whole.shots = shots;
  whole.base_call = 0;
  whole.begin = 0;
  whole.end = total;

  // Uneven 7-way plan over 60 pairs: slice boundaries cut through the
  // middle of points, the stress case for rebasing.
  const shard::ShardPlan plan(total, 7);
  struct Piece {
    std::uint64_t begin, end;
    std::vector<std::uint64_t> outcomes;
  };
  std::vector<Piece> pieces;
  for (const auto& [begin, end] : plan.ranges()) {
    const shard::SliceRequest slice = shard::rebase_slice(whole, begin, end);
    const shard::Response r = shard::execute_request(slice.request);
    ASSERT_TRUE(r.ok) << r.error_message;
    pieces.push_back({begin, end, r.outcomes});
  }
  ASSERT_GE(pieces.size(), 5u);

  std::vector<std::size_t> order(pieces.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(5);
  for (int trial = 0; trial < 12; ++trial) {
    if (trial < static_cast<int>(order.size()))
      std::rotate(order.begin(), order.begin() + trial, order.end());
    else
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.uniform_index(i)]);

    std::vector<std::uint64_t> merged(total, ~std::uint64_t{0});
    for (const std::size_t pi : order) {
      const Piece& p = pieces[pi];
      ASSERT_EQ(p.outcomes.size(), p.end - p.begin);
      std::copy(p.outcomes.begin(), p.outcomes.end(),
                merged.begin() + static_cast<std::ptrdiff_t>(p.begin));
    }
    EXPECT_EQ(merged, want) << "arrival order trial " << trial;
  }
}

}  // namespace
}  // namespace mbq

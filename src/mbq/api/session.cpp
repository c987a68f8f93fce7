#include "mbq/api/session.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <filesystem>

#include "mbq/api/registry.h"
#include "mbq/common/error.h"
#include "mbq/common/parallel.h"
#include "mbq/serve/client.h"
#include "mbq/serve/daemon.h"
#include "mbq/shard/protocol.h"
#include "mbq/shard/task.h"
#include "mbq/sim/collapse_threaded.h"

namespace mbq::api {

namespace {

int resolve_num_processes(int requested) {
  if (requested >= 1) return requested;
  if (const char* env = std::getenv("MBQ_NUM_PROCESSES"))
    if (const int n = std::atoi(env); n >= 1) return n;
  return 1;
}

/// A fresh endpoint for an embedded daemon, private to this process
/// (pid) and Session (sequence number).
std::string private_endpoint() {
  static std::atomic<unsigned> next{0};
  const std::string name = "mbq-session-" + std::to_string(::getpid()) +
                           "-" + std::to_string(next++) + ".sock";
  return "unix:" + (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

const Shot& SampleResult::best() const {
  MBQ_REQUIRE(!shots.empty(), "no shots recorded");
  const Shot* best = &shots.front();
  for (const Shot& s : shots)
    if (s.cost > best->cost) best = &s;
  return *best;
}

real SampleResult::mean_cost() const {
  MBQ_REQUIRE(!shots.empty(), "no shots recorded");
  real acc = 0.0;
  for (const Shot& s : shots) acc += s.cost;
  return acc / static_cast<real>(shots.size());
}

std::vector<std::int64_t> SampleResult::counts(int num_qubits) const {
  MBQ_REQUIRE(num_qubits >= 1,
              "histogram needs at least one qubit, got " << num_qubits);
  MBQ_REQUIRE(num_qubits <= 24,
              "counts(" << num_qubits << ") would allocate a 2^" << num_qubits
                        << "-entry dense histogram (>128 MiB); counts() "
                           "supports at most 24 qubits — aggregate the shots "
                           "directly for larger registers");
  std::vector<std::int64_t> out(std::size_t{1} << num_qubits, 0);
  for (const Shot& s : shots) {
    MBQ_REQUIRE(s.x < out.size(), "shot outcome " << s.x << " out of range");
    ++out[s.x];
  }
  return out;
}

std::map<std::uint64_t, std::int64_t> SampleResult::counts_map() const {
  std::map<std::uint64_t, std::int64_t> out;
  for (const Shot& s : shots) ++out[s.x];
  return out;
}

Session::Session(Workload workload, const std::string& backend_name,
                 SessionOptions options)
    : Session(std::move(workload),
              BackendRegistry::instance().create(backend_name), options) {
  // Record the exact key the user picked: it may carry configuration the
  // backend's own name() does not (e.g. "router-checked" names itself
  // "router"), and a worker process rebuilds the backend from this key.
  // Runtime-registered keys stay unset: they exist in THIS process's
  // registry only, so a worker could not rebuild them (no sharding).
  registry_key_ = BackendRegistry::instance().is_builtin(backend_name)
                      ? backend_name
                      : std::string{};
}

Session::Session(Workload workload, std::shared_ptr<Backend> backend,
                 SessionOptions options)
    : workload_(std::move(workload)),
      backend_(std::move(backend)),
      options_(options),
      rng_(options.seed) {
  MBQ_REQUIRE(backend_ != nullptr, "Session needs a backend");
  MBQ_REQUIRE(options_.cache_capacity >= 1, "cache capacity must be >= 1");
  if (options_.entangler_noise != 0.0) {
    MBQ_REQUIRE(workload_.entangler_noise() == 0.0 ||
                    workload_.entangler_noise() == options_.entangler_noise,
                "SessionOptions::entangler_noise = "
                    << options_.entangler_noise
                    << " conflicts with the workload's own noise level "
                    << workload_.entangler_noise());
    workload_.with_entangler_noise(options_.entangler_noise);
  }
  if (options_.precision != Precision::F64) {
    MBQ_REQUIRE(workload_.precision() == Precision::F64 ||
                    workload_.precision() == options_.precision,
                "SessionOptions::precision = "
                    << precision_name(options_.precision)
                    << " conflicts with the workload's own precision "
                    << precision_name(workload_.precision()));
    workload_.with_precision(options_.precision);
  }
  if (options_.kernel_threads > 0)
    thr::set_kernel_threads(options_.kernel_threads);
  num_processes_ = resolve_num_processes(options_.num_processes);
  daemon_endpoint_ = options_.daemon_endpoint;
  if (daemon_endpoint_.empty())
    if (const char* env = std::getenv("MBQ_DAEMON_ENDPOINT"))
      daemon_endpoint_ = env;
  // Instance-constructed sessions never shard (registry_key_ stays
  // empty): a worker rebuilds backends from a registry key, and a name
  // match alone cannot prove the instance carries the key's default
  // configuration — e.g. a RouterBackend with custom RouterOptions
  // still names itself "router", and a worker rebuilding "router"
  // would route differently, breaking bit-identity.  Construct by
  // registry name to opt into sharding.
}

Session::~Session() = default;

int Session::shard_workers() const {
  if (embedded_ == nullptr) return 0;
  int live = 0;
  for (const std::int64_t pid : embedded_->worker_pids())
    if (pid > 0) ++live;
  return live;
}

serve::DaemonClient* Session::executor(std::uint64_t items) {
  if (remote()) {
    // Remote mode was requested explicitly (options or environment), so
    // an impossible transport is an error, never a silent local run —
    // callers pointing a fleet of Sessions at one daemon must not
    // discover months later that half of them quietly computed locally.
    MBQ_REQUIRE(!registry_key_.empty(),
                "daemon transport requires a registry-named backend: a "
                "worker process cannot reproduce a backend INSTANCE from "
                "a name (construct the Session with a registry key)");
    const std::string reason = shard::unshardable_reason(workload_);
    MBQ_REQUIRE(reason.empty(), "workload cannot execute on daemon '"
                                    << daemon_endpoint_ << "': " << reason);
  } else {
    if (num_processes_ < 2 || items < 2 || registry_key_.empty() ||
        !shard::shardable(workload_))
      return nullptr;
    if (embedded_ == nullptr) {
      serve::DaemonOptions o;
      o.workers = num_processes_;
      o.worker_path = options_.worker_path;
      try {
        o.endpoints = {private_endpoint()};
        auto daemon = std::make_unique<serve::Daemon>(std::move(o));
        daemon->start();
        embedded_ = std::move(daemon);
      } catch (const std::exception&) {
        return nullptr;  // no worker executable: stay in-process
      }
    }
  }
  if (daemon_ == nullptr)
    daemon_ = std::make_unique<serve::DaemonClient>(
        remote() ? daemon_endpoint_ : embedded_->endpoint_string(),
        "mbq-session");
  return daemon_.get();
}

const Prepared* Session::peek_cache(const std::vector<real>& key) const {
  for (const CacheEntry& entry : cache_)
    if (entry.key == key) return entry.prepared.get();
  return nullptr;
}

std::string Session::unsupported_reason(const qaoa::Angles& a) const {
  // Hand the backend any cached artifact so checks that need the
  // compiled pattern (clifford) do not recompile it.
  return backend_->unsupported_reason(workload_, a, peek_cache(a.flat()));
}

void Session::require_supported(const qaoa::Angles& a) const {
  const std::string reason = unsupported_reason(a);
  MBQ_REQUIRE(reason.empty(),
              "backend '" << backend_->name() << "' cannot run this workload: "
                          << reason);
}

void Session::insert_cache(std::vector<real> key,
                           std::shared_ptr<const Prepared> prepared) {
  if (cache_.size() >= options_.cache_capacity) {
    const auto lru = std::min_element(
        cache_.begin(), cache_.end(), [](const auto& x, const auto& y) {
          return x.last_used < y.last_used;
        });
    cache_.erase(lru);
  }
  cache_.push_back({std::move(key), std::move(prepared), ++cache_clock_});
}

std::vector<std::shared_ptr<const Prepared>> Session::checked_prepared_batch(
    std::span<const qaoa::Angles> points) {
  const std::size_t n = points.size();
  std::vector<std::shared_ptr<const Prepared>> preps(n);
  std::vector<std::vector<real>> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = points[i].flat();

  // Serial pass: resolve cache hits; later in-batch duplicates of a
  // missing point share its artifact and count as hits, as they would in
  // the serial loop.
  constexpr std::size_t kHit = static_cast<std::size_t>(-1);
  std::vector<std::size_t> owner(n, kHit);  // point -> unique-miss slot
  std::vector<std::size_t> miss;            // first-occurrence point index
  for (std::size_t i = 0; i < n; ++i) {
    bool hit = false;
    for (CacheEntry& entry : cache_) {
      if (entry.key == keys[i]) {
        entry.last_used = ++cache_clock_;
        ++cache_hits_;
        preps[i] = entry.prepared;
        hit = true;
        break;
      }
    }
    if (hit) continue;
    bool duplicate = false;
    for (std::size_t m = 0; m < miss.size(); ++m)
      if (keys[miss[m]] == keys[i]) {
        owner[i] = m;
        ++cache_hits_;
        duplicate = true;
        break;
      }
    if (duplicate) continue;
    owner[i] = miss.size();
    miss.push_back(i);
  }

  // Parallel pass: support check + prepare for every unique miss.  The
  // backend is stateless, so checks and compilations are independent.
  std::vector<std::shared_ptr<const Prepared>> fresh(miss.size());
  std::vector<std::exception_ptr> errors(miss.size());
  parallel_for_grain(static_cast<std::int64_t>(miss.size()), 1,
                     [&](std::int64_t m) {
    try {
      const qaoa::Angles& a = points[miss[m]];
      const std::string reason =
          backend_->unsupported_reason(workload_, a, nullptr);
      MBQ_REQUIRE(reason.empty(),
                  "backend '" << backend_->name()
                              << "' cannot run this workload: " << reason);
      fresh[m] = backend_->prepare(workload_, a);
    } catch (...) {
      errors[m] = std::current_exception();
    }
  });
  // Serial pass: record misses and fill the cache in point order.
  // `miss` is in increasing point order, so a failure rethrows for the
  // lowest-indexed failing point with every earlier point already cached
  // and counted — the exact state the serial loop leaves behind.
  for (std::size_t m = 0; m < miss.size(); ++m) {
    if (errors[m]) std::rethrow_exception(errors[m]);
    ++cache_misses_;
    if (fresh[m] != nullptr) insert_cache(std::move(keys[miss[m]]), fresh[m]);
  }
  for (std::size_t i = 0; i < n; ++i)
    if (owner[i] != kHit) preps[i] = fresh[owner[i]];
  return preps;
}

real Session::expectation(const qaoa::Angles& a) {
  const auto prepared = checked_prepared_batch({&a, 1}).front();
  Rng eval_rng = rng_.stream(kExpectationStreamBase + expectation_calls_++);
  return backend_->expectation(workload_, a, eval_rng, prepared.get());
}

std::vector<real> Session::expectation_batch(
    std::span<const qaoa::Angles> points) {
  if (points.empty()) return {};
  shard::Request req = request(shard::TaskKind::kExpectation, points);
  req.stream_base = kExpectationStreamBase + expectation_calls_;
  req.end = points.size();
  return run(req, expectation_calls_, points.size()).values;
}

std::future<real> Session::expectation_async(const qaoa::Angles& a) {
  // Cache update and stream assignment happen on the calling thread (the
  // cache is not synchronized); only the stateless evaluation is
  // offloaded, so concurrent pending futures cannot race.
  auto prepared = checked_prepared_batch({&a, 1}).front();
  Rng eval_rng = rng_.stream(kExpectationStreamBase + expectation_calls_++);
  return std::async(std::launch::async,
                    [this, a, eval_rng, prepared]() mutable {
                      return backend_->expectation(workload_, a, eval_rng,
                                                   prepared.get());
                    });
}

SampleResult Session::sample(const qaoa::Angles& a, int shots) {
  return std::move(sample_batch({&a, 1}, shots).front());
}

std::vector<SampleResult> Session::sample_batch(
    std::span<const qaoa::Angles> points, int shots) {
  MBQ_REQUIRE(shots >= 1, "need at least one shot, got " << shots);
  const std::size_t n = points.size();
  std::vector<SampleResult> results(n);
  if (n == 0) return results;
  const auto su = static_cast<std::uint64_t>(shots);
  shard::Request req = request(shard::TaskKind::kSample, points);
  req.shots = su;
  req.base_call = sample_calls_;
  req.end = n * su;
  const shard::Response r = run(req, sample_calls_, n);
  for (std::size_t i = 0; i < n; ++i) {
    results[i].shots.resize(su);
    for (std::size_t s = 0; s < su; ++s) {
      const std::uint64_t x = r.outcomes[i * su + s];
      results[i].shots[s] = {x, workload_.cost().evaluate(x)};
    }
  }
  return results;
}

shard::Request Session::request(shard::TaskKind kind,
                                std::span<const qaoa::Angles> points) const {
  shard::Request req;
  req.kind = kind;
  req.backend = registry_key_;
  req.seed = options_.seed;
  req.workload = workload_;
  req.points.assign(points.begin(), points.end());
  return req;
}

shard::Response Session::run(const shard::Request& req,
                             std::uint64_t& counter, std::uint64_t count) {
  const auto preps = checked_prepared_batch(req.points);
  serve::DaemonClient* daemon = executor(req.end);
  counter += count;
  if (daemon == nullptr) {
    shard::Response r =
        shard::evaluate(*backend_, req, preps, options_.parallel_shots);
    if (!r.ok) throw Error(r.error_message);
    return r;
  }
  try {
    serve::DaemonClient::RunResult r = daemon->run(req);
    shard::Response out;
    out.outcomes = std::move(r.outcomes);
    out.values = std::move(r.values);
    return out;
  } catch (const serve::RemoteError& e) {
    // The request failed, the connection is still good.  A check-phase
    // error was raised before any stream was drawn.
    if (!e.in_eval()) counter -= count;
    throw;
  } catch (const Error&) {
    daemon_.reset();  // broken transport: reconnect on the next call
    throw;
  }
}

Shot Session::best_of(const qaoa::Angles& a, int shots) {
  return sample(a, shots).best();
}

opt::Objective Session::objective() {
  return [this](const std::vector<real>& flat) {
    return expectation(qaoa::Angles::from_flat(flat));
  };
}

opt::BatchObjective Session::batch_objective() {
  return [this](const std::vector<std::vector<real>>& flats) {
    std::vector<qaoa::Angles> points;
    points.reserve(flats.size());
    for (const auto& flat : flats)
      points.push_back(qaoa::Angles::from_flat(flat));
    return expectation_batch(points);
  };
}

}  // namespace mbq::api

#include "mbq/shard/task.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <mutex>

#include "mbq/api/registry.h"
#include "mbq/api/workload_spec.h"
#include "mbq/common/error.h"
#include "mbq/common/parallel.h"

namespace mbq::shard {

namespace {

Response error_response(std::uint64_t index, const std::string& what) {
  Response r;
  r.ok = false;
  r.error_index = index;
  r.error_message = what;
  return r;
}

/// Mirrors Session's support-check wording so a worker failure reads the
/// same as the in-process one.
void require_supported(const api::Backend& backend, const api::Workload& w,
                       const qaoa::Angles& a) {
  const std::string reason = backend.unsupported_reason(w, a, nullptr);
  MBQ_REQUIRE(reason.empty(),
              "backend '" << backend.name() << "' cannot run this workload: "
                          << reason);
}

// --- warm prepare cache ------------------------------------------------
// A small process-global LRU over prepare() artifacts, keyed by (backend
// registry name, spec fingerprint, exact angle values).  For the serving
// daemon's fleet it IS the warm cache: a repeated (workload, angles)
// pair from any client — or from the next round of a sharded Session's
// variational loop — skips compilation entirely.  Safe because prepare
// artifacts are immutable and backends are stateless — reusing one is
// exactly what Session's own LRU does; hits skip the support check for
// the same reason Session's do (entries are only inserted after it
// passed).  Not synchronized: only execute_request's prepare loop, which
// runs serially before any item fans out, touches it.

struct PrepCacheEntry {
  std::string backend;
  std::uint64_t fingerprint = 0;
  std::vector<real> angles;
  std::shared_ptr<const api::Prepared> prepared;
  std::uint64_t last_used = 0;
};

constexpr std::size_t kPrepCacheCapacity = 32;
std::vector<PrepCacheEntry> g_prep_cache;
std::uint64_t g_prep_clock = 0;

std::shared_ptr<const api::Prepared> cached_prepare(
    const api::Backend& backend, const std::string& backend_name,
    std::uint64_t fingerprint, const api::Workload& w, const qaoa::Angles& a) {
  const std::vector<real> key = a.flat();
  for (PrepCacheEntry& e : g_prep_cache) {
    if (e.fingerprint == fingerprint && e.backend == backend_name &&
        e.angles == key) {
      e.last_used = ++g_prep_clock;
      return e.prepared;
    }
  }
  require_supported(backend, w, a);
  auto prepared = backend.prepare(w, a);
  if (prepared == nullptr) return nullptr;  // nothing cacheable
  if (g_prep_cache.size() >= kPrepCacheCapacity) {
    g_prep_cache.erase(std::min_element(
        g_prep_cache.begin(), g_prep_cache.end(),
        [](const auto& x, const auto& y) { return x.last_used < y.last_used; }));
  }
  g_prep_cache.push_back(
      {backend_name, fingerprint, key, prepared, ++g_prep_clock});
  return prepared;
}

// --- warm workload cache -----------------------------------------------
// Every frame decodes a fresh Workload, whose cost-table memo would die
// with the frame; the workloads kept here carry theirs to the next
// request with the same spec.  Charged at their tables' full size
// whether built yet or not, and unsynchronized like the prepare cache.

struct WorkloadCacheEntry {
  std::uint64_t fingerprint = 0;
  api::Workload workload;
  std::uint64_t bytes = 0;
  std::uint64_t last_used = 0;
};

std::vector<WorkloadCacheEntry> g_workload_cache;
std::uint64_t g_workload_bytes = 0;
std::uint64_t g_workload_clock = 0;

bool same_bits(real a, real b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bitwise equality of two cost functions' Ising forms: equal forms
/// build equal tables.
bool same_cost(const qaoa::CostHamiltonian& a, const qaoa::CostHamiltonian& b) {
  if (a.num_qubits() != b.num_qubits() ||
      !same_bits(a.constant(), b.constant()) ||
      a.terms().size() != b.terms().size())
    return false;
  for (std::size_t i = 0; i < a.terms().size(); ++i) {
    const qaoa::IsingTerm& x = a.terms()[i];
    const qaoa::IsingTerm& y = b.terms()[i];
    if (!same_bits(x.coeff, y.coeff) || x.support != y.support) return false;
  }
  return true;
}

}  // namespace

api::Workload warm_workload(const api::Workload& w, std::uint64_t fingerprint) {
  for (WorkloadCacheEntry& e : g_workload_cache) {
    if (e.fingerprint == fingerprint &&
        same_cost(e.workload.cost(), w.cost())) {
      e.last_used = ++g_workload_clock;
      return e.workload;
    }
  }
  // A table holds 2^n reals and n may reach 63, so compare exponents
  // before shifting.
  constexpr int kMaxKeptQubits =
      std::countr_zero(kWarmTableBytes / sizeof(real));
  if (w.num_qubits() > kMaxKeptQubits) return w;
  const std::uint64_t bytes = std::uint64_t{sizeof(real)} << w.num_qubits();
  while (g_workload_bytes + bytes > kWarmTableBytes) {
    const auto lru = std::min_element(
        g_workload_cache.begin(), g_workload_cache.end(),
        [](const auto& x, const auto& y) { return x.last_used < y.last_used; });
    g_workload_bytes -= lru->bytes;
    g_workload_cache.erase(lru);
  }
  g_workload_bytes += bytes;
  g_workload_cache.push_back({fingerprint, w, bytes, ++g_workload_clock});
  return w;
}

Response evaluate(
    const api::Backend& backend, const Request& req,
    std::span<const std::shared_ptr<const api::Prepared>> preps,
    std::int64_t grain) {
  const bool sample = req.kind == TaskKind::kSample;
  const auto count = static_cast<std::int64_t>(req.end - req.begin);
  Response out;
  if (sample)
    out.outcomes.resize(static_cast<std::size_t>(count));
  else
    out.values.resize(static_cast<std::size_t>(count));
  const Rng root(req.seed);

  // The lowest failing index and its message: the failure the serial
  // loop would hit first, whatever order the items ran in.
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::uint64_t failed = kNone;
  std::mutex mutex;  // guards failed and out.error_message
  const auto fail = [&](std::uint64_t t, const char* what) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (t < failed) {
      failed = t;
      out.error_message = what;
    }
  };
  parallel_for_grain(count, grain, [&](std::int64_t k) {
    const std::uint64_t t = req.begin + static_cast<std::uint64_t>(k);
    try {
      if (sample) {
        const std::uint64_t i = t / req.shots;
        Rng rng = root.stream(req.base_call + i).stream(t % req.shots);
        out.outcomes[k] = backend.sample_one(req.workload, req.points[i], rng,
                                             preps[i].get());
      } else {
        Rng rng = root.stream(req.stream_base + t);
        out.values[k] = backend.expectation(req.workload, req.points[t], rng,
                                            preps[t].get());
      }
    } catch (const std::exception& e) {
      fail(t, e.what());
    } catch (...) {
      fail(t, "unknown exception");
    }
  });
  if (failed == kNone) return out;
  Response r = error_response(failed, out.error_message);
  r.error_in_eval = true;
  return r;
}

Response execute_request(Request req) {
  try {
    const bool sample = req.kind == TaskKind::kSample;
    MBQ_REQUIRE(!sample || req.shots >= 1, "sample request needs shots >= 1");
    const std::uint64_t space =
        sample ? req.points.size() * req.shots : req.points.size();
    MBQ_REQUIRE(req.end <= space, "request slice end "
                                      << req.end
                                      << " exceeds its index space of "
                                      << space);
    const std::shared_ptr<api::Backend> backend =
        api::BackendRegistry::instance().create(req.backend);
    const std::uint64_t fingerprint =
        api::spec_fingerprint(req.workload.spec());
    req.workload = warm_workload(req.workload, fingerprint);
    std::vector<std::shared_ptr<const api::Prepared>> preps(req.points.size());
    // t walks the first index of every point the slice touches.
    for (std::uint64_t t = req.begin; t < req.end;) {
      const std::uint64_t i = sample ? t / req.shots : t;
      try {
        preps[i] = cached_prepare(*backend, req.backend, fingerprint,
                                  req.workload, req.points[i]);
      } catch (const std::exception& e) {
        return error_response(t, e.what());
      }
      t = sample ? (i + 1) * req.shots : t + 1;
    }
    // A worker waits on its channel between slices, so its team's threads
    // are asleep when a slice arrives, and waking them costs more than a
    // small slice's items take.  Its items share a team only when they
    // hold kParallelGrain amplitudes in all (items x 2^n); below that
    // they run in turn, each with the worker's whole share for its
    // kernels.
    const int n = req.workload.num_qubits();
    return evaluate(
        *backend, req, preps,
        std::max<std::int64_t>(kParallelGrain >> std::min(n, 62), 1));
  } catch (const std::exception& e) {
    return error_response(req.begin, e.what());
  }
}

}  // namespace mbq::shard

// A third-order PUBO through the declarative workload pipeline: the new
// CostHamiltonian::pubo frontend expands x_i x_j x_k monomials into the
// paper's per-term gadgets (Sec. II-C "extends to higher-order cost
// functions"), the workload lowers to a serializable WorkloadSpec, the
// router picks the cheapest capable backend per angle point, and — with
// num_processes = 2 — sampling shards across two worker processes with
// merged results contractually bit-identical to the in-process path.
//
// Problem: a tiny weighted MAX-3-SAT-flavoured instance.  Each clause
// over three 0/1 variables contributes its weight when satisfied; the
// "all three true" bonus/penalty terms are the order-3 monomials.

#include <iostream>

#include "mbq/api/api.h"
#include "mbq/common/bits.h"
#include "mbq/opt/grid.h"
#include "mbq/qaoa/qaoa.h"
#include "mbq/shard/protocol.h"

int main() {
  using namespace mbq;

  // c(x) = 0.25 + 1.5 x0 x1 x2 - 2 x2 x3 + 0.5 x4 + 0.75 x1 x3 x4
  //        + 1.25 x5 - 0.5 x0 x5   (maximized over x in {0,1}^6)
  const int n = 6;
  const std::vector<qaoa::PuboTerm> terms = {
      {1.5, {0, 1, 2}}, {-2.0, {2, 3}}, {0.5, {4}},
      {0.75, {1, 3, 4}}, {1.25, {5}},   {-0.5, {0, 5}},
  };
  const api::Workload workload = api::Workload::pubo(n, terms, 0.25);
  std::cout << "third-order PUBO on " << n << " variables: max term order "
            << workload.cost().max_order() << ", "
            << workload.cost().terms().size() << " Ising terms after the "
            << "x_i = (1 - Z_i)/2 expansion\n";

  // Exact optimum by brute force, for reference.
  real best_c = -1e300;
  std::uint64_t best_x = 0;
  for (std::uint64_t x = 0; x < (1ULL << n); ++x)
    if (const real c = workload.cost().evaluate(x); c > best_c) {
      best_c = c;
      best_x = x;
    }
  std::cout << "optimum: c(" << bitstring(best_x, n) << ") = " << best_c
            << "\n\n";

  // The workload is pure data: show the spec wire format in action.
  const auto frame = api::serialize_spec(workload.spec());
  std::cout << "WorkloadSpec wire format: " << frame.size()
            << " bytes; shardable: "
            << (shard::shardable(workload) ? "yes" : "no") << "\n";

  // Route report at generic angles: 6 qubits is beyond the zx policy and
  // the pattern is non-Clifford, so the dense reference runs it.
  const qaoa::Angles probe({0.4}, {0.6});
  api::RouterBackend router;
  const api::RouteDecision d = router.route(workload, probe);
  std::cout << "router decision: " << d.backend_name << " (" << d.reason
            << ")\n\n";

  // Coarse grid for decent p=1 angles on the router-backed session,
  // sharded across two worker processes.
  api::SessionOptions opt;
  opt.seed = 17;
  opt.num_processes = 2;
  api::Session session(workload, "router", opt);
  const auto objective = [&](const std::vector<real>& v) {
    return session.expectation(qaoa::Angles({v[0]}, {v[1]}));
  };
  const auto seed_pt = opt::grid_search(
      objective, {{-kPi + kPi / 7, kPi - kPi / 7, 7},
                  {-kPi / 2 + kPi / 14, kPi / 2 - kPi / 14, 7}});
  const qaoa::Angles angles({seed_pt.x[0]}, {seed_pt.x[1]});
  std::cout << "grid-seeded <C> = " << seed_pt.value << " at gamma = "
            << angles.gamma[0] << ", beta = " << angles.beta[0] << "\n";

  const api::SampleResult result = session.sample(angles, 512);
  const api::Shot best = result.best();
  std::cout << "sharded sampling across " << session.shard_workers()
            << " worker processes: best of " << result.shots.size()
            << " shots: c(" << bitstring(best.x, n) << ") = " << best.cost
            << " (optimum " << best_c << ")\n";
  if (session.shard_workers() == 0) {
    // num_processes was explicitly 2: a fallback here means the worker
    // binary was not found, and the bit-identity check below would be
    // vacuous — fail loudly so CI notices.
    std::cout << "ERROR: sharding fell back in-process (mbq_worker not "
                 "found?)\n";
    return 1;
  }

  // The determinism contract: an in-process session with the same seed
  // reproduces the sharded run bit for bit (sample streams depend only
  // on (seed, sample-call index, shot), and this is call 0 for both).
  api::SessionOptions serial_opt;
  serial_opt.seed = 17;
  serial_opt.num_processes = 1;
  api::Session serial(workload, "router", serial_opt);
  const api::SampleResult replay = serial.sample(angles, 512);
  bool identical = replay.shots.size() == result.shots.size();
  for (std::size_t s = 0; identical && s < replay.shots.size(); ++s)
    identical = replay.shots[s].x == result.shots[s].x;
  std::cout << "in-process replay bit-identical: "
            << (identical ? "yes" : "NO") << "\n";
  return identical ? 0 : 1;
}

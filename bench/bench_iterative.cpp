// E16 — iterative quantum optimization (Sec. V outlook; refs [56], [60],
// [61]): correlation-guided contraction where every expectation value is
// obtained through the measurement-based protocol, compared against
// plain (non-iterative) QAOA sampling at the same depth, greedy rounding
// and the exact optimum.

#include <iostream>

#include "mbq/api/session.h"
#include "mbq/common/rng.h"
#include "mbq/common/table.h"
#include "mbq/core/iterative.h"
#include "mbq/graph/generators.h"
#include "mbq/opt/exact.h"
#include "mbq/qaoa/analytic.h"
#include "mbq/qaoa/qaoa.h"

int main() {
  using namespace mbq;
  Rng rng(57);

  std::cout << "# E16 — iterative (quantum-enhanced greedy) MBQC "
               "optimization\n\n";

  struct Case {
    std::string name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"cycle C8", cycle_graph(8)});
  cases.push_back({"Petersen", petersen_graph()});
  cases.push_back({"3-regular n=10", random_regular_graph(10, 3, rng)});
  cases.push_back({"G(9,14)", random_gnm_graph(9, 14, rng)});

  Table t({"instance", "C_max", "iterative value", "iterative ratio",
           "plain p=1 QAOA best of 64", "SA baseline", "rounds"});

  for (const auto& cs : cases) {
    const std::vector<real> w(cs.g.num_edges(), 1.0);
    const auto cost = qaoa::CostHamiltonian::maxcut(cs.g);
    const auto exact = opt::brute_force_maximum(cost);

    Rng it_rng(1);
    const core::IterativeResult iter =
        core::iterative_maxcut(cs.g, w, {}, it_rng);

    // Plain QAOA at p=1 optimum, best of 64 shots through the protocol.
    const auto p1 = qaoa::maxcut_p1_grid_optimum(cs.g, 32);
    api::Session session(api::Workload::qaoa(cost), "mbqc", {.seed = 2});
    const api::Shot plain =
        session.best_of(qaoa::Angles({p1.gamma}, {p1.beta}), 64);

    opt::AnnealOptions sa_opt;
    sa_opt.sweeps = 60;
    Rng sa_rng(3);
    const auto sa = opt::simulated_annealing(cost, sa_opt, sa_rng);

    t.row()
        .add(cs.name)
        .add(exact.value, 4)
        .add(iter.value, 4)
        .add(iter.value / exact.value, 4)
        .add(plain.cost, 4)
        .add(sa.value, 4)
        .add(static_cast<std::int64_t>(iter.rounds.size()));
  }
  t.print(std::cout);
  std::cout << "The iterative scheme matches or beats one-shot sampling at "
               "the same depth\nby re-optimizing angles on every contracted "
               "(weighted) residual instance —\nthe Sec. V observation that "
               "MBQC expectation estimation slots directly\ninto iterative "
               "solvers.\n";
  return 0;
}

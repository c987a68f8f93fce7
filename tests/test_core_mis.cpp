// MIS in the MBQC paradigm (Sec. IV): the compiled pattern reproduces the
// constraint-preserving ansatz and never leaves the feasible subspace.

#include <gtest/gtest.h>

#include <bit>

#include "mbq/common/rng.h"
#include "mbq/core/mis.h"
#include "mbq/graph/generators.h"
#include "mbq/mbqc/runner.h"
#include "mbq/opt/exact.h"
#include "mbq/qaoa/mixers.h"

namespace mbq::core {
namespace {

using qaoa::Angles;

TEST(MisMbqc, PatternMatchesCircuitStatevector) {
  Rng rng(1);
  for (const Graph& g : {path_graph(3), cycle_graph(4)}) {
    const int n = g.num_vertices();
    const Angles a = Angles::random(1, rng);
    // Reference: the gate-model ansatz from |0...0>.
    Statevector sv(n);
    qaoa::mis_qaoa_circuit(g, a).apply_to(sv);
    // MBQC pattern.
    const CompiledPattern cp = compile_mis_qaoa(g, a);
    Rng run_rng(2);
    for (int i = 0; i < 3; ++i) {
      const auto r = mbqc::run(cp.pattern, run_rng);
      ASSERT_NEAR(fidelity(r.output_state, sv.amplitudes()), 1.0, 1e-9)
          << g.str();
    }
  }
}

TEST(MisMbqc, OutputsStayFeasible) {
  Rng rng(3);
  const Graph g = cycle_graph(5);
  const Angles a = Angles::random(2, rng);
  const CompiledPattern cp = compile_mis_qaoa(g, a);
  Rng run_rng(4);
  const auto r = mbqc::run(cp.pattern, run_rng);
  // All probability mass on independent sets.
  real infeasible = 0.0;
  for (std::uint64_t x = 0; x < r.output_state.size(); ++x)
    if (!qaoa::is_independent_set(g, x))
      infeasible += std::norm(r.output_state[x]);
  EXPECT_NEAR(infeasible, 0.0, 1e-10);
}

TEST(MisMbqc, GadgetCountsExponentialInDegree) {
  EXPECT_EQ(mis_partial_mixer_gadget_count(star_graph(5), 0), 16);  // 2^4
  EXPECT_EQ(mis_partial_mixer_gadget_count(star_graph(5), 1), 2);   // 2^1
  EXPECT_EQ(mis_mixer_layer_gadget_count(cycle_graph(4)), 4 * 4);   // 2^2 each
}

TEST(MisMbqc, FindsMaximumIndependentSetOnSmallGraph) {
  // P3: MIS = {0, 2}, size 2.  Optimized shallow ansatz + sampling should
  // find it.
  const Graph g = path_graph(3);
  Rng rng(5);
  const Angles a({0.7}, {0.9});
  const CompiledPattern cp = compile_mis_qaoa(g, a);
  Rng run_rng(6);
  std::uint64_t best_x = 0;
  int best_size = -1;
  for (int shot = 0; shot < 32; ++shot) {
    const auto r = mbqc::run(cp.pattern, run_rng);
    real u = run_rng.uniform();
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < r.output_state.size(); ++i) {
      u -= std::norm(r.output_state[i]);
      if (u <= 0.0) {
        x = i;
        break;
      }
    }
    ASSERT_TRUE(qaoa::is_independent_set(g, x));
    const int size = std::popcount(x);
    if (size > best_size) {
      best_size = size;
      best_x = x;
    }
  }
  EXPECT_EQ(best_size, 2);
  EXPECT_TRUE(best_x == 0b101);
}

TEST(MisMbqc, GreedyBaselineOnPetersen) {
  // The Petersen graph has independence number 4; greedy achieves it.
  const Graph g = petersen_graph();
  const std::uint64_t set = opt::greedy_mis(g);
  EXPECT_TRUE(qaoa::is_independent_set(g, set));
  EXPECT_EQ(std::popcount(set), 4);
}

}  // namespace
}  // namespace mbq::core

// QAOA layer tests: Hamiltonians, circuit-vs-fast-path agreement, and the
// analytic p=1 MaxCut oracle.

#include <gtest/gtest.h>

#include <cmath>

#include "mbq/common/bits.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/graph/generators.h"
#include "mbq/qaoa/analytic.h"
#include "mbq/qaoa/hamiltonian.h"
#include "mbq/qaoa/qaoa.h"

namespace mbq::qaoa {
namespace {

TEST(Hamiltonian, MaxCutValues) {
  const Graph g = cycle_graph(4);
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  // 0101 pattern cuts all 4 edges; 0000 cuts none; 0001 cuts 2.
  EXPECT_NEAR(c.evaluate(parse_bitstring("0101")), 4.0, kTol);
  EXPECT_NEAR(c.evaluate(parse_bitstring("0000")), 0.0, kTol);
  EXPECT_NEAR(c.evaluate(parse_bitstring("1000")), 2.0, kTol);
  EXPECT_FALSE(c.has_linear_terms());
  EXPECT_EQ(c.max_order(), 2);
  EXPECT_EQ(c.interaction_graph(), g);
}

TEST(Hamiltonian, QuboMatchesDirectEvaluation) {
  // c(x) = 2 x0 - 3 x1 + 1.5 x0 x2 - 0.5 x1 x2 + 7.
  const std::vector<real> lin{2.0, -3.0, 0.0};
  const std::vector<std::pair<Edge, real>> quad{{{0, 2}, 1.5},
                                                {{1, 2}, -0.5}};
  const CostHamiltonian c = CostHamiltonian::qubo(3, lin, quad, 7.0);
  for (std::uint64_t x = 0; x < 8; ++x) {
    const real x0 = get_bit(x, 0), x1 = get_bit(x, 1), x2 = get_bit(x, 2);
    const real expect = 2 * x0 - 3 * x1 + 1.5 * x0 * x2 - 0.5 * x1 * x2 + 7;
    EXPECT_NEAR(c.evaluate(x), expect, kTol) << "x=" << x;
  }
}

TEST(Hamiltonian, TermMergingAndCancellation) {
  CostHamiltonian c(3);
  c.add_term({0, 1}, 0.5);
  c.add_term({1, 0}, 0.5);  // merges
  EXPECT_EQ(c.terms().size(), 1u);
  EXPECT_NEAR(c.terms()[0].coeff, 1.0, kTol);
  c.add_term({2, 2}, 4.0);  // Z^2 = I: pure constant
  EXPECT_NEAR(c.constant(), 4.0, kTol);
  EXPECT_EQ(c.terms().size(), 1u);
}

TEST(Hamiltonian, CostTableMatchesEvaluate) {
  // Bit-exact on every x, at every thread budget: consumers fold <C>
  // over the table in place of per-x evaluate() and promise the same
  // double.  n = 13 is two kParallelGrain blocks, so at budget 4 a real
  // thread team builds it.
  Rng rng(1);
  std::vector<std::pair<const char*, CostHamiltonian>> cases;
  cases.emplace_back("maxcut n=6",
                     CostHamiltonian::maxcut(random_gnm_graph(6, 9, rng)));
  const int n = 13;
  const Graph g = random_gnm_graph(n, 2 * n, rng);
  std::vector<real> weights(g.num_edges());
  for (real& w : weights) w = rng.uniform(0.1, 2.0);
  cases.emplace_back("weighted maxcut",
                     CostHamiltonian::maxcut_weighted(g, weights));
  std::vector<real> linear(n);
  for (real& l : linear) l = rng.uniform(-1.0, 1.0);
  std::vector<std::pair<Edge, real>> quad;
  for (const Edge& e : g.edges()) quad.push_back({e, rng.uniform(-1.0, 1.0)});
  cases.emplace_back("qubo", CostHamiltonian::qubo(n, linear, quad, 0.37));
  std::vector<PuboTerm> monomials;
  for (int t = 0; t < 12; ++t) {
    const std::vector<int> vars = {t, (t + 3) % n, (t + 7) % n};
    monomials.push_back(
        {rng.uniform(-1.0, 1.0), {vars.begin(), vars.begin() + 1 + t % 3}});
  }
  cases.emplace_back("pubo", CostHamiltonian::pubo(n, monomials, -0.21));
  struct ThreadGuard {
    ~ThreadGuard() { set_num_threads(0); }
  } guard;
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const auto& [name, c] : cases) {
      const auto table = c.cost_table();
      ASSERT_EQ(table.size(), std::size_t{1} << c.num_qubits()) << name;
      for (std::uint64_t x = 0; x < table.size(); ++x)
        ASSERT_EQ(table[x], c.evaluate(x))
            << name << " threads=" << threads << " x=" << x;
    }
  }
  EXPECT_EQ(cases.back().second.max_order(), 3);
  EXPECT_TRUE(cases[2].second.has_linear_terms());
}

TEST(Hamiltonian, PenalizedMis) {
  const Graph g = path_graph(3);
  const CostHamiltonian c = CostHamiltonian::mis_penalized(g, 2.0);
  EXPECT_NEAR(c.evaluate(parse_bitstring("101")), 2.0, kTol);  // IS of size 2
  EXPECT_NEAR(c.evaluate(parse_bitstring("110")), 0.0, kTol);  // 2 - 2
  EXPECT_NEAR(c.evaluate(parse_bitstring("111")), -1.0, kTol);  // 3 - 4
}

TEST(Angles, FlattenRoundTrip) {
  const Angles a({0.1, 0.2}, {0.3, 0.4});
  const Angles b = Angles::from_flat(a.flat());
  EXPECT_EQ(a.gamma, b.gamma);
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.p(), 2);
  EXPECT_THROW(Angles({0.1}, {}), Error);
}

TEST(Qaoa, CircuitMatchesFastPath) {
  Rng rng(2);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform_index(2));
    const Graph g = random_gnm_graph(n, std::min(6, n * (n - 1) / 2), rng);
    const CostHamiltonian c = CostHamiltonian::maxcut(g);
    const Angles a = Angles::random(1 + static_cast<int>(rng.uniform_index(3)),
                                    rng);
    // Path 1: explicit circuit.
    Statevector sv(n);
    qaoa_circuit(c, a).apply_to(sv);
    // Path 2: fast diagonal.
    const Statevector fast = qaoa_state(c, a);
    EXPECT_NEAR(sv.fidelity_with(fast), 1.0, 1e-9) << "trial " << trial;
    // Expectations agree too.
    const auto table = c.cost_table();
    EXPECT_NEAR(sv.expectation_diagonal(table), qaoa_expectation(c, a, &table),
                1e-9);
  }
}

TEST(Qaoa, ExpectationAtZeroAnglesIsMeanCost) {
  // gamma = beta = 0: state stays |+...+>, <C> = average cost.
  const Graph g = petersen_graph();
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  const Angles a({0.0}, {0.0});
  // Mean cut of a random bipartition = |E|/2.
  EXPECT_NEAR(qaoa_expectation(c, a), g.num_edges() / 2.0, 1e-9);
}

TEST(Qaoa, SamplingConcentratesOnGoodCuts) {
  // On C4 at good angles, samples should beat the random-guess mean.
  const Graph g = cycle_graph(4);
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  const P1Optimum opt = maxcut_p1_grid_optimum(g, 48);
  Rng rng(3);
  const auto samples =
      qaoa_sample(c, Angles({opt.gamma}, {opt.beta}), 500, rng);
  real mean = 0.0;
  for (auto x : samples) mean += c.evaluate(x);
  mean /= samples.size();
  EXPECT_GT(mean, 2.4);  // random guessing gives 2.0
}

// --- analytic p=1 oracle ---

TEST(AnalyticP1, MatchesSimulatorOnManyGraphs) {
  Rng rng(4);
  std::vector<Graph> graphs;
  graphs.push_back(path_graph(4));
  graphs.push_back(cycle_graph(5));
  graphs.push_back(complete_graph(4));
  graphs.push_back(star_graph(5));
  graphs.push_back(petersen_graph());
  graphs.push_back(random_gnm_graph(6, 8, rng));
  for (const Graph& g : graphs) {
    const CostHamiltonian c = CostHamiltonian::maxcut(g);
    const auto table = c.cost_table();
    for (int trial = 0; trial < 4; ++trial) {
      const real gamma = rng.angle();
      const real beta = rng.uniform(-kPi / 2, kPi / 2);
      const real analytic = maxcut_p1_expectation(g, gamma, beta);
      const real simulated =
          qaoa_expectation(c, Angles({gamma}, {beta}), &table);
      ASSERT_NEAR(analytic, simulated, 1e-9)
          << g.str() << " gamma=" << gamma << " beta=" << beta;
    }
  }
}

TEST(AnalyticP1, TriangleFreeSpecialization) {
  // On triangle-free graphs the lambda term vanishes.
  const Graph g = cycle_graph(6);
  const real gamma = 0.7, beta = 0.3;
  for (const Edge& e : g.edges()) {
    const real full = maxcut_p1_edge_expectation(g, e, gamma, beta);
    const real tf = 0.5 + 0.25 * std::sin(4 * beta) * std::sin(gamma) *
                              (std::pow(std::cos(gamma), 1) +
                               std::pow(std::cos(gamma), 1));
    EXPECT_NEAR(full, tf, 1e-12);
  }
}

TEST(AnalyticP1, GridOptimumBeatsRandom) {
  const Graph g = cycle_graph(8);
  const P1Optimum opt = maxcut_p1_grid_optimum(g, 48);
  // Known: ring of even length, p=1 optimum achieves 3/4 ratio (<C>/|E| =
  // 0.75) in the large-n limit; 8-ring is very close.
  EXPECT_GT(opt.value / g.num_edges(), 0.74);
  EXPECT_LT(opt.value / g.num_edges(), 0.80);
}

}  // namespace
}  // namespace mbq::qaoa

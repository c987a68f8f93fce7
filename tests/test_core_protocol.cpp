// End-to-end protocol tests: expectation through the adaptive MBQC
// protocol equals the gate-model value; sampling statistics are
// consistent; classical post-processing of byproducts matches quantum
// corrections.

#include <gtest/gtest.h>

#include "mbq/api/mbqc_backend.h"
#include "mbq/api/session.h"
#include "mbq/common/rng.h"
#include "mbq/graph/generators.h"
#include "mbq/opt/exact.h"
#include "mbq/qaoa/analytic.h"
#include "mbq/qaoa/qaoa.h"

namespace mbq::core {
namespace {

using api::MbqcBackend;
using api::Session;
using api::Workload;
using qaoa::Angles;
using qaoa::CostHamiltonian;

/// <C> through one adaptive run of the compiled measurement pattern.
real mbqc_expectation(const Workload& w, const Angles& a, Rng& rng,
                      CorrectionMode mode = CorrectionMode::Quantum) {
  return MbqcBackend(mode).expectation(w, a, rng, nullptr);
}

TEST(Protocol, ExpectationMatchesGateModel) {
  Rng rng(1);
  const Graph g = cycle_graph(4);
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  for (int p : {1, 2}) {
    const Angles a = Angles::random(p, rng);
    const real gate = qaoa::qaoa_expectation(c, a);
    Rng run_rng(p);
    const real mbqc_val = mbqc_expectation(Workload::qaoa(c), a, run_rng);
    EXPECT_NEAR(mbqc_val, gate, 1e-9) << "p=" << p;
  }
}

TEST(Protocol, ExpectationMatchesAnalyticP1) {
  const Graph g = petersen_graph();
  const real gamma = 0.4, beta = 0.25;
  Rng rng(2);
  EXPECT_NEAR(mbqc_expectation(Workload::maxcut(g), Angles({gamma}, {beta}),
                               rng),
              qaoa::maxcut_p1_expectation(g, gamma, beta), 1e-9);
}

TEST(Protocol, ClassicalModeMatchesQuantumMode) {
  Rng rng(3);
  const Workload w = Workload::maxcut(complete_graph(3));
  const Angles a = Angles::random(2, rng);
  Rng r1(4), r2(4);
  EXPECT_NEAR(mbqc_expectation(w, a, r1, CorrectionMode::Quantum),
              mbqc_expectation(w, a, r2, CorrectionMode::ClassicalPostProcess),
              1e-9);
}

TEST(Protocol, SampleMeanTracksExpectation) {
  const Graph g = cycle_graph(4);
  const qaoa::P1Optimum opt = qaoa::maxcut_p1_grid_optimum(g, 32);
  const Angles a({opt.gamma}, {opt.beta});
  Session session(Workload::maxcut(g), "mbqc", {.seed = 5});
  const real mean = session.sample(a, 400).mean_cost();
  EXPECT_NEAR(mean, session.expectation(a), 0.25);  // statistical tolerance
}

TEST(Protocol, ClassicalSamplingAlsoUnbiased) {
  const CostHamiltonian c = CostHamiltonian::maxcut(cycle_graph(4));
  const Angles a({0.6}, {0.4});
  Session classical(Workload::qaoa(c), "mbqc-classical", {.seed = 7});
  EXPECT_NEAR(classical.sample(a, 400).mean_cost(),
              qaoa::qaoa_expectation(c, a), 0.25);
}

TEST(Protocol, BestOfFindsOptimumOnEasyInstance) {
  const Graph g = cycle_graph(4);
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  const qaoa::P1Optimum popt = qaoa::maxcut_p1_grid_optimum(g, 32);
  Session session(Workload::qaoa(c), "mbqc", {.seed = 8});
  const api::Shot best =
      session.best_of(Angles({popt.gamma}, {popt.beta}), 64);
  const auto exact = opt::brute_force_maximum(c);
  EXPECT_NEAR(best.cost, exact.value, 1e-9);  // C4 optimum found in 64 shots
}

TEST(Protocol, FusedLinearStyleAgrees) {
  Rng rng(9);
  const CostHamiltonian c = CostHamiltonian::qubo(
      3, {1.0, -0.5, 0.25}, {{{0, 1}, 0.8}, {{1, 2}, -0.6}}, 0.0);
  const Angles a = Angles::random(2, rng);
  const Workload gadget = Workload::qaoa(c);
  const Workload fused =
      Workload::qaoa(c).with_linear_style(LinearTermStyle::FusedIntoMixer);
  Rng r1(10), r2(10);
  EXPECT_NEAR(mbqc_expectation(gadget, a, r1), mbqc_expectation(fused, a, r2),
              1e-9);
}

}  // namespace
}  // namespace mbq::core

// The paper's main result (Sec. III): the compiled measurement patterns
// reproduce gate-model QAOA exactly — for arbitrary depth p, arbitrary
// angles, and arbitrary QUBO (and higher-order) cost functions — while
// matching the resource formulas of Sec. III-A and admitting gflow
// (determinism).

#include <gtest/gtest.h>

#include "mbq/common/rng.h"
#include "mbq/core/compiler.h"
#include "mbq/core/resources.h"
#include "mbq/graph/generators.h"
#include "mbq/mbqc/gflow.h"
#include "mbq/mbqc/runner.h"
#include "mbq/mbqc/scheduler.h"
#include "mbq/mbqc/standardize.h"
#include "mbq/qaoa/qaoa.h"

namespace mbq::core {
namespace {

using qaoa::Angles;
using qaoa::CostHamiltonian;

/// Reference QAOA state via the fast gate-model simulator.
std::vector<cplx> reference_state(const CostHamiltonian& c, const Angles& a) {
  return qaoa_state(c, a).amplitudes();
}

void expect_equivalent_sampled(const CostHamiltonian& c, const Angles& a,
                               const CompileOptions& opt, int runs = 6) {
  const CompiledPattern cp = compile_qaoa(c, a, opt);
  const auto expect = reference_state(c, a);
  Rng rng(12345);
  for (int i = 0; i < runs; ++i) {
    const mbqc::RunResult r = mbqc::run(cp.pattern, rng);
    ASSERT_NEAR(fidelity(r.output_state, expect), 1.0, 1e-9)
        << "run " << i << " p=" << a.p();
  }
}

TEST(Compiler, SingleEdgeAllBranchesExhaustive) {
  // Smallest instance: MaxCut on one edge, p=1 — every branch checked.
  Graph g(2);
  g.add_edge(0, 1);
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  const Angles a({0.67}, {0.31});
  const CompiledPattern cp = compile_qaoa(c, a);
  EXPECT_EQ(cp.pattern.num_measurements(), 5);  // 1 gadget + 4 mixer
  const auto expect = reference_state(c, a);
  for (const auto& b : mbqc::run_all_branches(cp.pattern))
    ASSERT_NEAR(fidelity(b.output_state, expect), 1.0, 1e-9);
}

TEST(Compiler, SingleEdgeDepthTwoExhaustive) {
  // p = 2 on one edge: 10 measurements, all 1024 branches enumerated.
  // This is the strongest determinism statement we can check directly:
  // every possible sequence of measurement outcomes, corrected, yields
  // the same state.
  Graph g(2);
  g.add_edge(0, 1);
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  const Angles a({0.43, -0.91}, {0.77, 0.28});
  const CompiledPattern cp = compile_qaoa(c, a);
  ASSERT_EQ(cp.pattern.num_measurements(), 10);
  const auto expect = reference_state(c, a);
  for (const auto& b : mbqc::run_all_branches(cp.pattern, 10))
    ASSERT_NEAR(fidelity(b.output_state, expect), 1.0, 1e-9);
}

TEST(Compiler, LinearTermExhaustiveBranches) {
  // Single vertex with linear + single edge (the full Eq. 12 anatomy),
  // p = 1: edge gadget + linear gadget + two mixer chains = 6
  // measurements, 64 branches.
  CostHamiltonian c(2, 0.0);
  c.add_term({0, 1}, -0.5);
  c.add_term({0}, 0.4);
  const Angles a({0.9}, {-0.6});
  const CompiledPattern cp = compile_qaoa(c, a);
  ASSERT_EQ(cp.pattern.num_measurements(), 6);
  const auto expect = reference_state(c, a);
  for (const auto& b : mbqc::run_all_branches(cp.pattern, 6))
    ASSERT_NEAR(fidelity(b.output_state, expect), 1.0, 1e-9);
}

TEST(Compiler, MaxCutFamiliesAndDepths) {
  Rng rng(7);
  std::vector<Graph> graphs;
  graphs.push_back(path_graph(3));
  graphs.push_back(cycle_graph(4));
  graphs.push_back(complete_graph(3));  // triangles exercise P_u parities
  graphs.push_back(star_graph(4));
  for (const Graph& g : graphs) {
    const CostHamiltonian c = CostHamiltonian::maxcut(g);
    for (int p : {1, 2, 3}) {
      const Angles a = Angles::random(p, rng);
      expect_equivalent_sampled(c, a, {}, 3);
    }
  }
}

TEST(Compiler, GeneralQuboWithLinearTermsBothStyles) {
  Rng rng(8);
  const std::vector<real> lin{0.7, -1.1, 0.4};
  const std::vector<std::pair<Edge, real>> quad{{{0, 1}, 1.0},
                                                {{1, 2}, -0.8},
                                                {{0, 2}, 0.5}};
  const CostHamiltonian c = CostHamiltonian::qubo(3, lin, quad, 2.0);
  EXPECT_TRUE(c.has_linear_terms());
  for (int p : {1, 2}) {
    const Angles a = Angles::random(p, rng);
    CompileOptions gadget;
    gadget.linear_style = LinearTermStyle::Gadget;
    expect_equivalent_sampled(c, a, gadget, 3);
    CompileOptions fused;
    fused.linear_style = LinearTermStyle::FusedIntoMixer;
    expect_equivalent_sampled(c, a, fused, 3);
  }
}

TEST(Compiler, HigherOrderPubo) {
  // 3-local term: the "extends to higher-order cost functions" claim.
  CostHamiltonian c(3, 0.0);
  c.add_term({0, 1, 2}, 0.9);
  c.add_term({0, 1}, -0.4);
  c.add_term({2}, 0.6);
  Rng rng(9);
  const Angles a = Angles::random(2, rng);
  expect_equivalent_sampled(c, a, {}, 4);
}

TEST(Compiler, ResourceCountsMatchPaperFormulasExactly) {
  // Pure-quadratic QUBO: N_Q = p(|E| + 2|V|), N_E = p(2|E| + 2|V|).
  Rng rng(10);
  for (const Graph& g : {cycle_graph(5), complete_graph(4), path_graph(6)}) {
    const CostHamiltonian c = CostHamiltonian::maxcut(g);
    for (int p : {1, 2, 3}) {
      const Angles a = Angles::random(p, rng);
      const CompiledPattern cp = compile_qaoa(c, a);
      const ResourceEstimate r = measure_resources(c, p, cp);
      const int V = g.num_vertices(), E = g.num_edges();
      EXPECT_EQ(r.paper_ancilla_bound, p * (E + 2 * V));
      EXPECT_EQ(r.paper_entangler_bound, p * (2 * E + 2 * V));
      EXPECT_EQ(r.ancillas, r.paper_ancilla_bound);      // bound is tight
      EXPECT_EQ(r.entanglers, r.paper_entangler_bound);  // bound is tight
      EXPECT_EQ(r.measurements, r.paper_ancilla_bound);  // all but outputs
      EXPECT_EQ(r.total_wires, V + r.ancillas);
    }
  }
}

TEST(Compiler, LinearTermsAddOneQubitOneEntanglerPerVertex) {
  // Sec. III-A: "at most one additional qubit and entangling gate for
  // each vertex per QAOA layer" in the general QUBO case.
  const Graph g = cycle_graph(4);
  const int V = 4, E = 4, p = 2;
  CostHamiltonian c = CostHamiltonian::maxcut(g);
  for (int q = 0; q < V; ++q) c.add_term({q}, 0.3);
  Rng rng(11);
  const Angles a = Angles::random(p, rng);
  const CompiledPattern cp = compile_qaoa(c, a);
  const ResourceEstimate r = measure_resources(c, p, cp);
  EXPECT_EQ(r.ancillas, p * (E + 2 * V) + p * V);
  EXPECT_EQ(r.entanglers, p * (2 * E + 2 * V) + p * V);
  // The fused variant removes that overhead entirely.
  CompileOptions fused;
  fused.linear_style = LinearTermStyle::FusedIntoMixer;
  const CompiledPattern cp2 = compile_qaoa(c, a, fused);
  EXPECT_EQ(cp2.pattern.num_prepared() - V, p * (E + 2 * V));
}

TEST(Compiler, CompiledPatternsHaveGFlow) {
  Rng rng(12);
  for (const Graph& g : {path_graph(3), complete_graph(3)}) {
    const CostHamiltonian c = CostHamiltonian::maxcut(g);
    for (int p : {1, 2}) {
      const CompiledPattern cp = compile_qaoa(c, Angles::random(p, rng));
      const mbqc::OpenGraph og = mbqc::open_graph_from_pattern(cp.pattern);
      const auto gf = mbqc::find_gflow(og);
      ASSERT_TRUE(gf.has_value()) << g.str() << " p=" << p;
      EXPECT_TRUE(mbqc::verify_gflow(og, *gf));
    }
  }
}

TEST(Compiler, StandardizedAndScheduledStayEquivalent) {
  Rng rng(13);
  const Graph g = cycle_graph(3);
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  const Angles a = Angles::random(2, rng);
  const CompiledPattern cp = compile_qaoa(c, a);
  const auto expect = reference_state(c, a);

  const mbqc::Pattern std_form = mbqc::standardize(cp.pattern);
  EXPECT_TRUE(mbqc::is_standard(std_form));
  const mbqc::Schedule sched = mbqc::schedule_for_reuse(cp.pattern);
  // Reuse keeps the live register near the problem size.
  EXPECT_LE(sched.peak_live, g.num_vertices() + 2);

  Rng run_rng(14);
  for (int i = 0; i < 3; ++i) {
    const auto r1 = mbqc::run(std_form, run_rng);
    ASSERT_NEAR(fidelity(r1.output_state, expect), 1.0, 1e-9);
    const auto r2 = mbqc::run(sched.pattern, run_rng);
    ASSERT_NEAR(fidelity(r2.output_state, expect), 1.0, 1e-9);
  }
}

TEST(Compiler, TailoredCircuitTranslation) {
  // compile_circuit_tailored on a mixed circuit acting on |+...+>.
  Rng rng(15);
  Circuit c(3);
  c.rz(0, 0.4).cz(0, 1).h(2).phase_gadget({0, 1, 2}, 0.7).rx(1, -0.5).t(0);
  const CompiledPattern cp = compile_circuit_tailored(c);
  Statevector sv = Statevector::all_plus(3);
  c.apply_to(sv);
  Rng run_rng(16);
  for (int i = 0; i < 4; ++i) {
    const auto r = mbqc::run(cp.pattern, run_rng);
    ASSERT_NEAR(fidelity(r.output_state, sv.amplitudes()), 1.0, 1e-9);
  }
}

TEST(Compiler, MeasurementOrderMatchesPaper) {
  // Sec. III fixes the deterministic order per layer: the edge-ancilla
  // (YZ) measurements come first, then the per-vertex mixer chains
  // (XY).  Verify the compiled command stream has that structure, layer
  // by layer.
  const Graph g = cycle_graph(4);
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  const int p = 3;
  Rng rng(20);
  const CompiledPattern cp = compile_qaoa(c, Angles::random(p, rng));
  // Collect the plane sequence of measurements.
  std::vector<MeasBasis> planes;
  for (const auto& cmd : cp.pattern.commands())
    if (const auto* m = std::get_if<mbqc::CmdMeasure>(&cmd))
      planes.push_back(m->plane);
  const int per_layer = g.num_edges() + 2 * g.num_vertices();
  ASSERT_EQ(static_cast<int>(planes.size()), p * per_layer);
  for (int k = 0; k < p; ++k) {
    for (int i = 0; i < g.num_edges(); ++i)
      EXPECT_EQ(planes[k * per_layer + i], MeasBasis::YZ)
          << "layer " << k << " gadget " << i;
    for (int i = g.num_edges(); i < per_layer; ++i)
      EXPECT_EQ(planes[k * per_layer + i], MeasBasis::XY)
          << "layer " << k << " mixer step " << i;
  }
}

TEST(Compiler, AdaptiveDomainsReproducePaperParities) {
  // The mixer's second J measurement must carry the (-1)^{m_u} beta
  // adaptation: its s-domain is exactly the outcome of the first J
  // measurement of the same vertex chain (paper Eq. (9)); and the edge
  // gadget of layer 2 must depend on the X-frame parities of layer 1
  // (the P_u mechanism).
  Graph g(2);
  g.add_edge(0, 1);
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  Rng rng(21);
  const CompiledPattern cp = compile_qaoa(c, Angles::random(2, rng));
  std::vector<const mbqc::CmdMeasure*> ms;
  for (const auto& cmd : cp.pattern.commands())
    if (const auto* m = std::get_if<mbqc::CmdMeasure>(&cmd))
      ms.push_back(m);
  // Layer 1: [gadget, u-wire, u-anc, v-wire, v-anc] = signals 0..4.
  ASSERT_EQ(ms.size(), 10u);
  // First wire measurement (J(0) step) has empty domains on layer 1.
  EXPECT_TRUE(ms[1]->s_domain.empty());
  // Its ancilla partner adapts by the wire outcome: s-domain = {s1}.
  EXPECT_EQ(ms[2]->s_domain, SignalExpr(ms[1]->outcome));
  // Layer 2 gadget sign-adapts by BOTH vertices' X frames (the mixer
  // outputs' frames are the layer-1 ancilla outcomes).
  EXPECT_EQ(ms[5]->plane, MeasBasis::YZ);
  SignalExpr expected;
  expected ^= SignalExpr(ms[2]->outcome);
  expected ^= SignalExpr(ms[4]->outcome);
  EXPECT_EQ(ms[5]->s_domain, expected);
}

TEST(Compiler, DegreeBoundedUnfusing) {
  // Sec. III: the resource graph "can be compiled in a straight-forward
  // way into [hardware] graphs via un-fusing nodes".  With a degree
  // bound, hub vertices are teleported through identity J-chains; the
  // resource graph respects the bound and the semantics are unchanged.
  const Graph g = star_graph(6);  // hub degree 5
  const CostHamiltonian c = CostHamiltonian::maxcut(g);
  Rng rng(30);
  const Angles a = Angles::random(2, rng);

  const CompiledPattern unbounded = compile_qaoa(c, a);
  const auto [gu, wu] = unbounded.pattern.entanglement_graph();
  EXPECT_GT(gu.max_degree(), 4);  // the hub exceeds small bounds

  CompileOptions opt;
  opt.max_wire_degree = 4;
  const CompiledPattern bounded = compile_qaoa(c, a, opt);
  const auto [gb, wb] = bounded.pattern.entanglement_graph();
  EXPECT_LE(gb.max_degree(), 4);
  // Un-fusing costs ancillas but preserves the computation exactly.
  EXPECT_GT(bounded.pattern.num_prepared(), unbounded.pattern.num_prepared());
  const auto expect = reference_state(c, a);
  Rng run_rng(31);
  for (int i = 0; i < 3; ++i) {
    const auto r = mbqc::run(bounded.pattern, run_rng);
    ASSERT_NEAR(fidelity(r.output_state, expect), 1.0, 1e-9);
  }
  // Determinism survives the transformation.
  const auto og = mbqc::open_graph_from_pattern(bounded.pattern);
  const auto gf = mbqc::find_gflow(og);
  ASSERT_TRUE(gf.has_value());
  EXPECT_TRUE(mbqc::verify_gflow(og, *gf));
}

TEST(Compiler, DegreeBoundValidation) {
  const CostHamiltonian c = CostHamiltonian::maxcut(cycle_graph(3));
  Rng rng(32);
  CompileOptions opt;
  opt.max_wire_degree = 2;  // < 3: cannot even host gadget + teleports
  EXPECT_THROW(compile_qaoa(c, Angles::random(1, rng), opt), Error);
}

TEST(Compiler, TailoredBeatsGenericOnDiagonalGates) {
  // Diagonal gates cost zero teleportations in the tailored translation.
  Circuit c(2);
  c.rz(0, 0.3).rz(1, 0.8).cz(0, 1).s(0).t(1);
  const CompiledPattern tailored = compile_circuit_tailored(c);
  // 2 initial wires + 4 gadget ancillas, no J ancillas.
  EXPECT_EQ(tailored.pattern.num_prepared(), 2 + 4);
}

TEST(Compiler, ExactZeroMergedTermEmitsNothing) {
  // add_term(s, w) then add_term(s, -w) leaves a term whose coefficient
  // is exactly 0.0; its gadget angle is 0, and a zero-angle gadget emits
  // no command at all, so the pattern is the one without the term.
  const CostHamiltonian without = CostHamiltonian::maxcut(cycle_graph(4));
  CostHamiltonian with_zero = without;
  with_zero.add_term({0, 2}, 0.75);
  with_zero.add_term({0, 2}, -0.75);
  ASSERT_EQ(with_zero.terms().size(), without.terms().size() + 1);
  Rng rng(41);
  const Angles a = Angles::random(2, rng);
  EXPECT_EQ(compile_qaoa(with_zero, a).pattern.str(),
            compile_qaoa(without, a).pattern.str());
}

TEST(Compiler, ZeroAngleDiagonalGatesEmitNothing) {
  // Rz(q, 0) and a zero-angle PhaseGadget are the identity; the tailored
  // translation emits nothing for them.
  Circuit base(3);
  base.h(0).cz(0, 1).rz(2, 0.4).phase_gadget({0, 1, 2}, 0.7).rx(1, -0.5);
  Circuit padded(3);
  padded.h(0).rz(1, 0.0).cz(0, 1).rz(2, 0.4).phase_gadget({0, 2}, 0.0);
  padded.phase_gadget({0, 1, 2}, 0.7).rx(1, -0.5);
  ASSERT_EQ(padded.size(), base.size() + 2);
  EXPECT_EQ(compile_circuit_tailored(padded).pattern.str(),
            compile_circuit_tailored(base).pattern.str());
}

}  // namespace
}  // namespace mbq::core

// Parameterized property sweeps (TEST_P): the core invariants checked
// systematically across graph families, depths, gates, angles and seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "mbq/api/api.h"
#include "mbq/common/bits.h"
#include "mbq/common/rng.h"
#include "mbq/core/compiler.h"
#include "mbq/graph/generators.h"
#include "mbq/linalg/unitaries.h"
#include "mbq/mbqc/compiled.h"
#include "mbq/mbqc/from_circuit.h"
#include "mbq/mbqc/gflow.h"
#include "mbq/mbqc/runner.h"
#include "mbq/qaoa/qaoa.h"
#include "mbq/sim/statevector.h"
#include "mbq/stab/tableau.h"
#include "mbq/zx/builder.h"
#include "mbq/zx/tensor_eval.h"

namespace mbq {
namespace {

Graph make_family(const std::string& family, int n, Rng& rng) {
  if (family == "path") return path_graph(n);
  if (family == "cycle") return cycle_graph(n);
  if (family == "complete") return complete_graph(n);
  if (family == "star") return star_graph(n);
  if (family == "gnm") return random_gnm_graph(n, std::min(2 * n, n * (n - 1) / 2), rng);
  throw Error("unknown family " + family);
}

// ---------------------------------------------------------------------
// Sweep 1: MBQC-QAOA == gate-model QAOA over (family, p).

using FamilyDepth = std::tuple<std::string, int>;

class EquivalenceSweep : public ::testing::TestWithParam<FamilyDepth> {};

TEST_P(EquivalenceSweep, PatternReproducesQaoaState) {
  const auto [family, p] = GetParam();
  Rng rng(static_cast<std::uint64_t>(p) * 101 + family.size());
  const Graph g = make_family(family, 4, rng);
  const auto cost = qaoa::CostHamiltonian::maxcut(g);
  const qaoa::Angles a = qaoa::Angles::random(p, rng);
  const auto cp = core::compile_qaoa(cost, a);
  const auto expect = qaoa::qaoa_state(cost, a);
  Rng run_rng(p);
  for (int i = 0; i < 2; ++i) {
    const auto r = mbqc::run(cp.pattern, run_rng);
    ASSERT_NEAR(fidelity(r.output_state, expect.amplitudes()), 1.0, 1e-9);
  }
  // Determinism certificate.
  const auto og = mbqc::open_graph_from_pattern(cp.pattern);
  const auto gf = mbqc::find_gflow(og);
  ASSERT_TRUE(gf.has_value());
  EXPECT_TRUE(mbqc::verify_gflow(og, *gf));
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndDepths, EquivalenceSweep,
    ::testing::Combine(::testing::Values("path", "cycle", "complete", "star",
                                         "gnm"),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<FamilyDepth>& info) {
      return std::get<0>(info.param) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Sweep 2: the ZZ gadget across a dense angle grid, every branch.

class GadgetAngleSweep : public ::testing::TestWithParam<int> {};

TEST_P(GadgetAngleSweep, ZZGadgetExactEverywhere) {
  const real theta = -kPi + kTwoPi * GetParam() / 16.0;
  mbqc::Pattern p;
  p.add_prep(0);
  p.add_prep(1);
  p.add_prep(2);
  p.add_entangle(0, 2);
  p.add_entangle(1, 2);
  const signal_t m = p.add_measure(2, MeasBasis::YZ, theta);
  p.add_correct_z(0, SignalExpr(m));
  p.add_correct_z(1, SignalExpr(m));
  p.set_outputs({0, 1});
  Statevector ref = Statevector::all_plus(2);
  ref.apply_exp_zs(theta, {0, 1});
  for (const auto& b : mbqc::run_all_branches(p))
    ASSERT_NEAR(fidelity(b.output_state, ref.amplitudes()), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AngleGrid, GadgetAngleSweep,
                         ::testing::Range(0, 16));

// ---------------------------------------------------------------------
// Sweep 3: every gate kind through BOTH pattern translators.

class TranslatorGateSweep : public ::testing::TestWithParam<int> {};

Circuit single_gate_circuit(int kind_index) {
  Circuit c(2);
  switch (kind_index) {
    case 0: c.h(0); break;
    case 1: c.x(1); break;
    case 2: c.y(0); break;
    case 3: c.z(1); break;
    case 4: c.s(0); break;
    case 5: c.sdg(1); break;
    case 6: c.t(0); break;
    case 7: c.tdg(1); break;
    case 8: c.rx(0, 0.73); break;
    case 9: c.rz(1, -1.21); break;
    case 10: c.cz(0, 1); break;
    case 11: c.cx(1, 0); break;
    case 12: c.phase_gadget({0, 1}, 0.61); break;
    case 13: c.controlled_exp_x(0, {1}, 0.57, 0); break;
    default: throw Error("bad gate index");
  }
  return c;
}

TEST_P(TranslatorGateSweep, BothTranslationsMatchStatevector) {
  const Circuit c = single_gate_circuit(GetParam());
  Statevector ref = Statevector::all_plus(2);
  c.apply_to(ref);

  const mbqc::Pattern generic = mbqc::pattern_from_circuit(c, true);
  const auto tailored = core::compile_circuit_tailored(c);

  Rng rng(GetParam());
  for (int i = 0; i < 3; ++i) {
    const auto rg = mbqc::run(generic, rng);
    ASSERT_NEAR(fidelity(rg.output_state, ref.amplitudes()), 1.0, 1e-9)
        << "generic translation";
    const auto rt = mbqc::run(tailored.pattern, rng);
    ASSERT_NEAR(fidelity(rt.output_state, ref.amplitudes()), 1.0, 1e-9)
        << "tailored translation";
  }
}

INSTANTIATE_TEST_SUITE_P(AllGateKinds, TranslatorGateSweep,
                         ::testing::Range(0, 14));

// ---------------------------------------------------------------------
// Sweep 4: weighted MaxCut QUBOs over random seeds.

class WeightedMaxcutSweep : public ::testing::TestWithParam<int> {};

TEST_P(WeightedMaxcutSweep, WeightedInstancesReproduce) {
  Rng rng(GetParam());
  const Graph g = random_gnm_graph(4, 5, rng);
  std::vector<real> w(5);
  for (auto& x : w) x = rng.uniform(-2.0, 2.0);
  const auto cost = qaoa::CostHamiltonian::maxcut_weighted(g, w);
  // Weighted cut values match a direct computation.
  for (std::uint64_t x = 0; x < 16; ++x) {
    real cut = 0.0;
    const auto& es = g.edges();
    for (std::size_t i = 0; i < es.size(); ++i)
      if (get_bit(x, es[i].u) != get_bit(x, es[i].v)) cut += w[i];
    ASSERT_NEAR(cost.evaluate(x), cut, 1e-9);
  }
  // And the MBQC protocol reproduces <C>.
  const qaoa::Angles a = qaoa::Angles::random(2, rng);
  Rng run_rng(GetParam() + 100);
  ASSERT_NEAR(api::MbqcBackend().expectation(api::Workload::qaoa(cost), a,
                                             run_rng, nullptr),
              qaoa::qaoa_expectation(cost, a), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedMaxcutSweep, ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Sweep 5: graph-state diagrams match the stabilizer construction across
// families.

class GraphStateSweep
    : public ::testing::TestWithParam<std::string> {};

TEST_P(GraphStateSweep, ZxStateMatchesCzConstruction) {
  Rng rng(1);
  const Graph g = make_family(GetParam(), 5, rng);
  const zx::Diagram d = zx::graph_state_diagram(g);
  const Matrix m = zx::evaluate_matrix(d);
  Statevector sv = Statevector::all_plus(g.num_vertices());
  for (const Edge& e : g.edges()) sv.apply_cz(e.u, e.v);
  for (std::size_t i = 0; i < m.rows(); ++i)
    ASSERT_NEAR(std::abs(m(i, 0) - sv.amplitudes()[i]), 0.0, 1e-9);
  // Stabilizer check: K_v = X_v prod_{w~v} Z_w for every vertex.
  Tableau t = Tableau::graph_state(g);
  for (int v = 0; v < g.num_vertices(); ++v) {
    std::uint64_t xm = 1ULL << v, zm = 0;
    for (int w : g.neighbors(v)) zm |= 1ULL << w;
    ASSERT_EQ(t.expectation(PauliString(xm, zm, g.num_vertices())), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, GraphStateSweep,
                         ::testing::Values("path", "cycle", "complete",
                                           "star", "gnm"));

// ---------------------------------------------------------------------
// Sweep 6: api::SampleResult accessors are mutually consistent across
// random seeds — counts() sums to the shot total, best() is the max-cost
// shot, mean_cost() is the arithmetic mean of per-shot costs.

class SampleResultSweep : public ::testing::TestWithParam<int> {};

TEST_P(SampleResultSweep, AccessorsAreConsistent) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const int n = 4;
  const Graph g = random_gnm_graph(n, 5, rng);
  api::Session session(api::Workload::maxcut(g), "statevector",
                       {.seed = seed * 977 + 1});
  const qaoa::Angles a = qaoa::Angles::random(1, rng);
  const int shots = 256;
  const api::SampleResult r = session.sample(a, shots);
  ASSERT_EQ(r.shots.size(), static_cast<std::size_t>(shots));

  // counts(n): one bin per bitstring, totals the shot count, and every
  // outcome fits the register.
  const auto counts = r.counts(n);
  ASSERT_EQ(counts.size(), std::size_t{1} << n);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
            shots);
  for (const api::Shot& s : r.shots) {
    ASSERT_LT(s.x, std::uint64_t{1} << n);
    ASSERT_NEAR(s.cost, session.workload().cost().evaluate(s.x), 1e-12);
  }
  for (std::uint64_t x = 0; x < counts.size(); ++x) {
    const auto expected = static_cast<std::int64_t>(
        std::count_if(r.shots.begin(), r.shots.end(),
                      [x](const api::Shot& s) { return s.x == x; }));
    ASSERT_EQ(counts[x], expected) << "bin " << x;
  }

  // best(): the maximum cost over the shots.
  real max_cost = r.shots.front().cost;
  real sum = 0.0;
  for (const api::Shot& s : r.shots) {
    max_cost = std::max(max_cost, s.cost);
    sum += s.cost;
  }
  EXPECT_EQ(r.best().cost, max_cost);
  EXPECT_NEAR(r.mean_cost(), sum / shots, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SampleResultSweep, ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Sweep 7: compiled vs interpreted pattern execution over ~200 random
// standardized patterns (random entanglement graphs, measurement planes
// and signal domains): same seeds must give the same outcome streams,
// the same peak live width, and output states matching to 1e-12.

mbqc::Pattern random_standardized_pattern(Rng& rng) {
  const int n = 3 + static_cast<int>(rng.uniform_index(4));  // 3..6 wires
  const int outputs = 1 + static_cast<int>(rng.uniform_index(2));
  mbqc::Pattern p;
  for (int w = 0; w < n; ++w) p.add_prep(w);
  // Random entanglement graph over the wires (standard form: all E
  // commands up front), always including a spanning path so nothing is
  // trivially disconnected.
  for (int w = 0; w + 1 < n; ++w) p.add_entangle(w, w + 1);
  const Graph extra = random_gnp_graph(n, 0.4, rng);
  for (const Edge& e : extra.edges())
    if (e.v != e.u + 1) p.add_entangle(e.u, e.v);

  const MeasBasis planes[] = {MeasBasis::Z, MeasBasis::X, MeasBasis::XY,
                              MeasBasis::YZ};
  auto random_domain = [&](int measured) {
    SignalExpr d;
    for (int v = 0; v < measured; ++v)
      if (rng.coin()) d ^= SignalExpr(static_cast<signal_t>(v));
    return d;
  };
  for (int w = 0; w < n - outputs; ++w)
    p.add_measure(w, planes[rng.uniform_index(4)], rng.angle(),
                  random_domain(w), random_domain(w));
  std::vector<int> outs;
  for (int w = n - outputs; w < n; ++w) {
    const int m = n - outputs;
    if (rng.coin()) p.add_correct_x(w, random_domain(m));
    if (rng.coin()) p.add_correct_z(w, random_domain(m));
    outs.push_back(w);
  }
  p.set_outputs(std::move(outs));
  return p;
}

class CompiledExecutorSweep : public ::testing::TestWithParam<int> {};

TEST_P(CompiledExecutorSweep, CompiledAgreesWithInterpreter) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int i = 0; i < 25; ++i) {
    const mbqc::Pattern p = random_standardized_pattern(rng);
    mbqc::PatternExecutor executor(
        std::make_shared<const mbqc::CompiledPattern>(p));
    const std::uint64_t seed = rng.next();
    Rng interpreted_rng(seed);
    Rng compiled_rng(seed);
    for (int rep = 0; rep < 3; ++rep) {
      const mbqc::RunResult want = mbqc::run_interpreted(p, interpreted_rng);
      const mbqc::RunResult got = executor.run(compiled_rng);
      ASSERT_EQ(want.outcomes, got.outcomes) << "pattern " << i << "\n"
                                             << p.str();
      ASSERT_EQ(want.peak_live, got.peak_live) << "pattern " << i;
      ASSERT_EQ(want.output_state.size(), got.output_state.size());
      for (std::size_t k = 0; k < want.output_state.size(); ++k)
        ASSERT_LT(std::abs(want.output_state[k] - got.output_state[k]), 1e-12)
            << "pattern " << i << " amplitude " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledExecutorSweep, ::testing::Range(0, 8));

TEST(SampleResultCounts, RejectsOversizedRegistersDescriptively) {
  // Regression: counts() must refuse n > 24 with an explanatory Error
  // instead of silently allocating a 2^n histogram.
  api::SampleResult r;
  r.shots = {{3, 1.0}, {5, 2.0}};
  EXPECT_EQ(r.counts(3).size(), 8u);
  EXPECT_THROW(r.counts(0), Error);
  try {
    r.counts(25);
    FAIL() << "counts(25) did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("24"), std::string::npos) << what;
    EXPECT_NE(what.find("2^25"), std::string::npos) << what;
  }
  EXPECT_THROW(r.counts(63), Error);
}

// ---------------------------------------------------------------------
// Sweep 8: serialize(lower(w)) -> parse -> execute is bit-identical to
// direct execution across every serializable ansatz kind, seeds
// {0, 1, 42}, and process counts {1, 2, 4} — the WorkloadSpec wire
// format IS the workload, wherever and however it runs.

class SpecRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpecRoundTripSweep, SerializedSpecExecutesBitIdentically) {
  const std::uint64_t seed = GetParam();
  struct Case {
    const char* label;
    api::Workload w;
    const char* backend;
    qaoa::Angles a;
  };
  Rng graph_rng(9);
  const Graph gnm = random_gnm_graph(5, 6, graph_rng);
  qaoa::ParamCircuit xy(4);
  for (int q = 0; q < 4; ++q) xy.h(q);
  xy.x(0).x(2);
  xy.phase_gadget({0, 2}, qaoa::Param::gamma(0, -2.0));
  xy.phase_gadget({1, 3}, qaoa::Param::gamma(0, -2.0));
  xy.xy_ring({0, 1}, qaoa::Param::beta(0));
  xy.xy_ring({2, 3}, qaoa::Param::beta(0));
  const qaoa::Angles a1({0.45}, {0.65});
  const Case cases[] = {
      {"qaoa-maxcut", api::Workload::maxcut(cycle_graph(5)), "mbqc", a1},
      {"qaoa-pubo3",
       api::Workload::pubo(
           5, {{1.5, {0, 1, 2}}, {-0.75, {2, 3}}, {0.5, {3, 4, 0}}}, 0.25),
       "statevector", a1},
      {"mis", api::Workload::mis(gnm), "mbqc", a1},
      {"mis-weighted",
       api::Workload::mis_weighted(gnm, {1.5, 0.5, 2.0, 1.0, 0.25}), "mbqc",
       a1},
      {"param-circuit",
       api::Workload::parameterized(
           qaoa::CostHamiltonian::qubo(4, std::vector<real>(4, 0.0),
                                       {{{0, 2}, -1.0}, {{1, 3}, -1.0}}, 1.0),
           xy),
       "mbqc-classical", a1},
      {"noisy-qaoa",
       api::Workload::maxcut(cycle_graph(4)).with_entangler_noise(0.1),
       "mbqc", a1},
  };
  for (const Case& c : cases) {
    const api::Workload decoded = api::Workload::from_spec(
        api::parse_spec(api::serialize_spec(c.w.spec())));
    api::SessionOptions direct_opt;
    direct_opt.seed = seed;
    direct_opt.num_processes = 1;
    api::Session direct(c.w, c.backend, direct_opt);
    const api::SampleResult want = direct.sample(c.a, 12);
    const real want_e = direct.expectation(c.a);
    for (const int processes : {1, 2, 4}) {
      api::SessionOptions opt;
      opt.seed = seed;
      opt.num_processes = processes;
      api::Session session(decoded, c.backend, opt);
      const api::SampleResult got = session.sample(c.a, 12);
      ASSERT_EQ(got.shots.size(), want.shots.size());
      for (std::size_t s = 0; s < want.shots.size(); ++s) {
        ASSERT_EQ(got.shots[s].x, want.shots[s].x)
            << c.label << " @" << processes << "p seed " << seed << " shot "
            << s;
        ASSERT_EQ(got.shots[s].cost, want.shots[s].cost)
            << c.label << " @" << processes << "p seed " << seed;
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(session.expectation(c.a)),
                std::bit_cast<std::uint64_t>(want_e))
          << c.label << " @" << processes << "p seed " << seed;
      if (processes > 1) {
        EXPECT_GT(session.shard_workers(), 0)
            << c.label << " @" << processes
            << "p: serializable workloads must not fall back";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecRoundTripSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL));

}  // namespace
}  // namespace mbq

// The declarative WorkloadSpec IR: PUBO / weighted-MIS frontends,
// declarative ParamCircuit ansätze, the entangler-noise knob, the exact
// binary codec, the canonical JSON text codec (byte-stable round trips,
// exact f64 reproduction, strict malformed-input rejection), and — the
// acceptance bar — process-sharded execution of every serializable
// ansatz kind bit-identical to the in-process path with NO silent
// fallback.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "mbq/api/api.h"
#include "mbq/api/workload_spec_json.h"
#include "mbq/common/bits.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/common/serialize.h"
#include "mbq/graph/generators.h"
#include "mbq/qaoa/hea.h"
#include "mbq/qaoa/mixers.h"
#include "mbq/shard/protocol.h"

namespace mbq {
namespace {

using api::AnsatzKind;
using api::SampleResult;
using api::Session;
using api::SessionOptions;
using api::Workload;
using api::WorkloadSpec;
using api::spec_from_json;
using api::spec_to_json;
using qaoa::Angles;
using qaoa::CostHamiltonian;
using qaoa::Param;
using qaoa::ParamCircuit;
using qaoa::PuboTerm;

SessionOptions session_options(std::uint64_t seed, int processes) {
  SessionOptions o;
  o.seed = seed;
  // Explicit at every call site: tier-1 runs under MBQ_NUM_PROCESSES=2
  // in CI, and the env default (num_processes = 0) would silently shard
  // the "in-process" half of the comparisons.
  o.num_processes = processes;
  return o;
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

/// Round-trip through the binary spec codec.
Workload round_tripped(const Workload& w) {
  return Workload::from_spec(api::parse_spec(api::serialize_spec(w.spec())));
}

CostHamiltonian ring_cost(int n) {
  CostHamiltonian c(n, 0.25);
  for (int q = 0; q < n; ++q) c.add_term({q, (q + 1) % n}, 0.5 + 0.125 * q);
  return c;
}

/// A third-order PUBO instance: c(x) over 6 vars with monomials of order
/// 1, 2 and 3 (all coefficients exact binary fractions).
Workload third_order_pubo() {
  const std::vector<PuboTerm> terms = {
      {1.5, {0, 1, 2}}, {-2.0, {2, 3}},    {0.5, {4}},
      {0.75, {1, 3, 4}}, {1.25, {5}},      {-0.5, {0, 5}},
  };
  return Workload::pubo(6, terms, 0.25);
}

Workload weighted_mis_workload() {
  Rng rng(7);
  const Graph g = random_gnm_graph(5, 6, rng);
  return Workload::mis_weighted(g, {1.5, 0.5, 2.0, 1.0, 0.25});
}

/// The XY-mixer one-hot ansatz of examples/coloring_xy.cpp as a
/// declarative ParamCircuit (no closure anywhere).
Workload xy_declarative_workload(int p) {
  const int n = 4;  // 2 vertices x 2 colors
  std::vector<std::pair<Edge, real>> quad = {{{0, 2}, -1.0}, {{1, 3}, -1.0}};
  const auto cost =
      CostHamiltonian::qubo(n, std::vector<real>(n, 0.0), quad, 1.0);
  ParamCircuit pc(n);
  for (int q = 0; q < n; ++q) pc.h(q);
  pc.x(0).x(2);
  for (int layer = 0; layer < p; ++layer) {
    for (const auto& t : cost.terms())
      pc.phase_gadget(t.support, Param::gamma(layer, 2.0 * t.coeff));
    pc.xy_ring({0, 1}, Param::beta(layer));
    pc.xy_ring({2, 3}, Param::beta(layer));
  }
  return Workload::parameterized(cost, std::move(pc));
}

// --- CostHamiltonian frontends ----------------------------------------

TEST(PuboFrontend, MatchesBruteForceMonomials) {
  const std::vector<PuboTerm> terms = {
      {1.5, {0, 1, 2}}, {-2.0, {2, 3}}, {0.5, {4}}, {0.75, {1, 3, 4}}};
  const real constant = 0.25;
  const auto c = CostHamiltonian::pubo(5, terms, constant);
  EXPECT_EQ(c.max_order(), 3);
  for (std::uint64_t x = 0; x < 32; ++x) {
    real want = constant;
    for (const auto& t : terms) {
      real prod = t.coeff;
      for (int v : t.vars) prod *= get_bit(x, v);
      want += prod;
    }
    EXPECT_NEAR(c.evaluate(x), want, 1e-12) << "x = " << x;
  }
}

TEST(PuboFrontend, RepeatedVariablesCollapse) {
  // x_i^2 = x_i: {0,0,1} is the SAME monomial as {0,1}.
  const auto a = CostHamiltonian::pubo(2, {{1.0, {0, 0, 1}}});
  const auto b = CostHamiltonian::pubo(2, {{1.0, {0, 1}}});
  for (std::uint64_t x = 0; x < 4; ++x)
    EXPECT_NEAR(a.evaluate(x), b.evaluate(x), 1e-15);
}

TEST(PuboFrontend, ExactCancellationsDropOut) {
  // Monomials that cancel exactly must not leave zero-coefficient
  // Ising terms behind (they would inflate max_order() and compile to
  // dead gadgets).
  const auto c = CostHamiltonian::pubo(
      3, {{1.0, {0, 1, 2}}, {-1.0, {0, 1, 2}}, {0.5, {0}}});
  EXPECT_EQ(c.max_order(), 1);
  for (const auto& t : c.terms()) EXPECT_NE(t.coeff, 0.0);
  for (std::uint64_t x = 0; x < 8; ++x)
    EXPECT_NEAR(c.evaluate(x), 0.5 * get_bit(x, 0), 1e-15);
}

TEST(PuboFrontend, ValidatesInput) {
  EXPECT_THROW(CostHamiltonian::pubo(3, {{1.0, {0, 3}}}), Error);
  EXPECT_THROW(CostHamiltonian::pubo(3, {{1.0, {-1}}}), Error);
  std::vector<int> wide(17);
  for (int i = 0; i < 17; ++i) wide[i] = i;
  EXPECT_THROW(CostHamiltonian::pubo(20, {{1.0, wide}}), Error);
}

TEST(WeightedIndependentSet, EvaluatesWeightedSetSize) {
  const std::vector<real> w = {1.5, 0.5, 2.0};
  const auto c = CostHamiltonian::weighted_independent_set(w);
  for (std::uint64_t x = 0; x < 8; ++x) {
    real want = 0.0;
    for (int i = 0; i < 3; ++i) want += get_bit(x, i) * w[i];
    EXPECT_NEAR(c.evaluate(x), want, 1e-12);
  }
}

// --- input validation regressions (satellite) -------------------------

TEST(CostValidation, MaxcutWeightedRejectsWrongWeightCount) {
  const Graph g = cycle_graph(4);
  EXPECT_THROW(CostHamiltonian::maxcut_weighted(g, {1.0, 2.0}), Error);
  EXPECT_THROW(CostHamiltonian::maxcut_weighted(g, {}), Error);
  EXPECT_NO_THROW(
      CostHamiltonian::maxcut_weighted(g, {1.0, 2.0, 3.0, 4.0}));
}

TEST(CostValidation, QuboRejectsSelfEdgesDuplicatesAndOutOfRange) {
  const std::vector<real> lin(3, 0.0);
  EXPECT_THROW(CostHamiltonian::qubo(3, lin, {{{1, 1}, 1.0}}), Error);
  EXPECT_THROW(CostHamiltonian::qubo(3, lin, {{{0, 3}, 1.0}}), Error);
  EXPECT_THROW(CostHamiltonian::qubo(3, lin, {{{-1, 0}, 1.0}}), Error);
  // Duplicates (in either orientation) would silently sum coefficients.
  EXPECT_THROW(
      CostHamiltonian::qubo(3, lin, {{{0, 1}, 1.0}, {{0, 1}, 2.0}}), Error);
  EXPECT_THROW(
      CostHamiltonian::qubo(3, lin, {{{0, 1}, 1.0}, {{1, 0}, 2.0}}), Error);
  EXPECT_NO_THROW(
      CostHamiltonian::qubo(3, lin, {{{0, 1}, 1.0}, {{1, 2}, 2.0}}));
  EXPECT_THROW(CostHamiltonian::qubo(2, lin, {}), Error);  // lin size != n
}

// --- Workload accessors ------------------------------------------------

TEST(WorkloadSpecApi, AccessorsThrowDescriptivelyOnWrongKind) {
  const Workload w = Workload::maxcut(cycle_graph(3));
  try {
    w.mis_graph();
    FAIL() << "mis_graph() on a qaoa workload must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("qaoa"), std::string::npos)
        << "throw message should name the actual ansatz: " << e.what();
    EXPECT_NE(std::string(e.what()).find("known kinds: " +
                                         api::ansatz_kind_listing()),
              std::string::npos)
        << "throw message should list every kind: " << e.what();
  }
  EXPECT_THROW(w.mis_weights(), Error);
  EXPECT_THROW(w.param_circuit(), Error);
  EXPECT_FALSE(w.has_custom_builder());

  const Workload m = weighted_mis_workload();
  EXPECT_EQ(m.mis_weights().size(), 5u);
  EXPECT_NO_THROW(m.mis_graph());
}

TEST(WorkloadSpecApi, FactoriesLowerToValidatedSpecs) {
  for (const Workload& w :
       {Workload::maxcut(cycle_graph(4)), third_order_pubo(),
        weighted_mis_workload(), xy_declarative_workload(1)}) {
    EXPECT_NO_THROW(w.spec().validate());
    EXPECT_TRUE(w.spec().serializable());
  }
  const Workload c = Workload::custom(
      CostHamiltonian::maxcut(cycle_graph(3)),
      [](const Angles&) { return Circuit(3); });
  EXPECT_FALSE(c.spec().serializable());
  EXPECT_TRUE(c.has_custom_builder());
  ByteWriter out;
  EXPECT_THROW(api::encode_spec(out, c.spec()), Error);
}

TEST(WorkloadSpecApi, FromSpecValidates) {
  WorkloadSpec bad;
  bad.kind = AnsatzKind::MisConstrained;  // no graph attached
  bad.cost = CostHamiltonian::independent_set_size(3);
  EXPECT_THROW(Workload::from_spec(bad), Error);

  WorkloadSpec mismatched;
  mismatched.kind = AnsatzKind::MisConstrained;
  mismatched.cost = CostHamiltonian::independent_set_size(3);
  mismatched.graph = std::make_shared<const Graph>(path_graph(3));
  mismatched.vertex_weights = {1.0, 2.0};  // 2 weights, 3 vertices
  EXPECT_THROW(Workload::from_spec(mismatched), Error);

  WorkloadSpec noisy;
  noisy.cost = CostHamiltonian::maxcut(cycle_graph(3));
  noisy.entangler_noise = 1.5;
  EXPECT_THROW(Workload::from_spec(noisy), Error);
}

// --- ParamCircuit ------------------------------------------------------

TEST(ParamCircuitIr, InstantiateMatchesHandBuiltCircuit) {
  ParamCircuit pc(2);
  pc.h(0).rz(1, Param::gamma(0, 2.0, 0.5)).rx(0, Param::beta(0, -1.0));
  pc.phase_gadget({0, 1}, Param::constant(0.75)).cz(0, 1);
  const Angles a({0.3}, {0.7});
  Circuit want(2);
  want.h(0).rz(1, 2.0 * 0.3 + 0.5).rx(0, -0.7);
  want.phase_gadget({0, 1}, 0.75).cz(0, 1);
  EXPECT_EQ(pc.instantiate(a).str(), want.str());
  EXPECT_EQ(pc.min_gamma(), 1);
  EXPECT_EQ(pc.min_beta(), 1);
}

TEST(ParamCircuitIr, InstantiateRejectsMissingLayers) {
  ParamCircuit pc(1);
  pc.rz(0, Param::gamma(2));
  EXPECT_EQ(pc.min_gamma(), 3);
  EXPECT_THROW(pc.instantiate(Angles({0.1}, {0.2})), Error);
  EXPECT_NO_THROW(
      pc.instantiate(Angles({0.1, 0.2, 0.3}, {0.0, 0.0, 0.0})));
}

TEST(ParamCircuitIr, AppendValidates) {
  ParamCircuit pc(2);
  EXPECT_THROW(pc.h(2), Error);
  EXPECT_THROW(pc.cz(0, 0), Error);
  EXPECT_THROW(pc.rz(0, Param::gamma(-1)), Error);
  EXPECT_THROW(pc.controlled_exp_x(0, {1}, Param::constant(0.1), 2), Error);
  EXPECT_THROW(pc.phase_gadget({}, Param::constant(0.1)), Error);
  // Canonicality: angle expressions / ctrl values on gates that have
  // none are rejected (they would break spec equal-encoding).
  EXPECT_THROW(pc.append({GateKind::H, {0}, Param::gamma(0)}), Error);
  EXPECT_THROW(pc.append({GateKind::H, {0}, Param::constant(0.0), 1}),
               Error);
}

TEST(ParamCircuitIr, HeaTemplateMatchesHeaCircuit) {
  Rng rng(3);
  const Graph coupling = path_graph(3);
  const auto params = qaoa::HeaParameters::random(2, 3, rng);
  const Circuit direct = qaoa::hea_circuit(coupling, params);
  const Circuit declarative = qaoa::hea_param_circuit(coupling, 2)
                                  .instantiate(qaoa::hea_angles(params));
  EXPECT_EQ(declarative.str(), direct.str());

  // A jagged theta — or a width that disagrees with the circuit it
  // will bind to — must throw, not silently shift the layer*n + q
  // packing.
  qaoa::HeaParameters jagged = params;
  jagged.theta[1].pop_back();
  EXPECT_THROW(qaoa::hea_angles(jagged), Error);
  EXPECT_THROW(qaoa::hea_angles(params, 4), Error);
}

TEST(ParamCircuitIr, XyRingMatchesMixerCircuit) {
  ParamCircuit pc(4);
  pc.xy_ring({0, 1, 2}, Param::beta(0));
  const real beta = 0.45;
  const Circuit want = qaoa::xy_mixer_ring(4, {0, 1, 2}, beta);
  EXPECT_EQ(pc.instantiate(Angles({0.0}, {beta})).str(), want.str());
}

TEST(ParamCircuitIr, DeclarativeWorkloadMatchesCustomClosure) {
  // The declarative XY workload and the same ansatz as a closure must be
  // indistinguishable: equal reference states, equal sampled streams.
  const Workload declarative = xy_declarative_workload(2);
  const auto cost = declarative.cost();
  const api::Workload closure = Workload::custom(
      cost, [cost](const Angles& a) {
        Circuit circ(4);
        for (int q = 0; q < 4; ++q) circ.h(q);
        circ.x(0).x(2);
        for (int layer = 0; layer < a.p(); ++layer) {
          for (const auto& t : cost.terms())
            circ.phase_gadget(t.support, 2.0 * a.gamma[layer] * t.coeff);
          circ.append(qaoa::xy_mixer_ring(4, {0, 1}, a.beta[layer]));
          circ.append(qaoa::xy_mixer_ring(4, {2, 3}, a.beta[layer]));
        }
        return circ;
      });
  const Angles a({0.4, -0.3}, {0.6, 0.2});
  const auto sv_a = declarative.reference_state(a).amplitudes();
  const auto sv_b = closure.reference_state(a).amplitudes();
  ASSERT_EQ(sv_a.size(), sv_b.size());
  for (std::size_t i = 0; i < sv_a.size(); ++i)
    EXPECT_EQ(sv_a[i], sv_b[i]) << "amplitude " << i;

  for (const char* backend : {"statevector", "mbqc"}) {
    Session sd(declarative, backend, session_options(11, 1));
    Session sc(closure, backend, session_options(11, 1));
    expect_same_shots(sd.sample(a, 24), sc.sample(a, 24), backend);
  }
}

// --- spec codec round trips -------------------------------------------

TEST(SpecCodec, RoundTripsEverySerializableKindBitExactly) {
  const Workload qaoa_w = [] {
    Workload w = Workload::maxcut(cycle_graph(5));
    w.with_linear_style(core::LinearTermStyle::FusedIntoMixer)
        .with_max_wire_degree(4)
        .with_entangler_noise(0.05);
    return w;
  }();
  const Workload pubo_w = third_order_pubo();
  const Workload mis_w = Workload::mis(path_graph(4));
  const Workload wmis_w = weighted_mis_workload();
  const Workload xy_w = xy_declarative_workload(2);
  const Workload hea_w = Workload::parameterized(
      CostHamiltonian::maxcut(path_graph(3)),
      qaoa::hea_param_circuit(path_graph(3), 2));

  for (const Workload* w :
       {&qaoa_w, &pubo_w, &mis_w, &wmis_w, &xy_w, &hea_w}) {
    const auto frame = api::serialize_spec(w->spec());
    const WorkloadSpec back = api::parse_spec(frame);
    // Bit-exact: re-encoding the decoded spec reproduces the frame.
    EXPECT_EQ(api::serialize_spec(back), frame)
        << ansatz_kind_name(w->ansatz());
    EXPECT_EQ(back.kind, w->ansatz());
    EXPECT_EQ(back.cost.num_qubits(), w->num_qubits());
    EXPECT_EQ(back.cost.constant(), w->cost().constant());
    ASSERT_EQ(back.cost.terms().size(), w->cost().terms().size());
    for (std::size_t t = 0; t < back.cost.terms().size(); ++t) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back.cost.terms()[t].coeff),
                std::bit_cast<std::uint64_t>(w->cost().terms()[t].coeff));
      EXPECT_EQ(back.cost.terms()[t].support, w->cost().terms()[t].support);
    }
    EXPECT_EQ(back.linear_style, w->linear_style());
    EXPECT_EQ(back.max_wire_degree, w->max_wire_degree());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.entangler_noise),
              std::bit_cast<std::uint64_t>(w->entangler_noise()));
  }

  // Structured members survive: the MIS graph/weights and the gate list.
  const WorkloadSpec wmis_back =
      api::parse_spec(api::serialize_spec(wmis_w.spec()));
  EXPECT_EQ(*wmis_back.graph, wmis_w.mis_graph());
  EXPECT_EQ(wmis_back.vertex_weights, wmis_w.mis_weights());
  const WorkloadSpec xy_back =
      api::parse_spec(api::serialize_spec(xy_w.spec()));
  EXPECT_EQ(*xy_back.circuit, xy_w.param_circuit());
}

TEST(SpecCodec, RejectsMalformedFrames) {
  auto frame = api::serialize_spec(third_order_pubo().spec());
  auto truncated = frame;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(api::parse_spec(truncated), Error);

  auto bad_kind = frame;
  bad_kind[0] = static_cast<std::byte>(0x7F);
  EXPECT_THROW(api::parse_spec(bad_kind), Error);

  auto custom_kind = frame;
  custom_kind[0] =
      static_cast<std::byte>(AnsatzKind::CustomCircuit);
  EXPECT_THROW(api::parse_spec(custom_kind), Error);

  auto trailing = frame;
  trailing.push_back(std::byte{0});
  EXPECT_THROW(api::parse_spec(trailing), Error);

  // Kind byte 4 is unassigned: a frame that earlier versions decoded
  // (the hea-line name and {layers} payload after the cost) must not.
  auto registered = api::serialize_spec(Workload::qaoa(ring_cost(3)).spec());
  registered[0] = std::byte{4};
  ByteWriter hea_line;
  hea_line.str("hea-line");
  hea_line.i32_vec(std::vector<int>{1});
  hea_line.f64_vec(std::vector<real>{});
  const auto payload = hea_line.take();
  registered.insert(registered.end(), payload.begin(), payload.end());
  EXPECT_THROW(api::parse_spec(registered), Error);
}

TEST(SpecCodec, RoundTrippedWorkloadExecutesBitIdentically) {
  const Angles a({0.5, -0.4}, {0.3, 0.8});
  struct Case {
    Workload w;
    const char* backend;
  };
  const Case cases[] = {
      {third_order_pubo(), "statevector"},
      {third_order_pubo(), "mbqc"},
      {weighted_mis_workload(), "mbqc"},
      {xy_declarative_workload(2), "mbqc-classical"},
  };
  for (const Case& c : cases) {
    Session direct(c.w, c.backend, session_options(42, 1));
    Session decoded(round_tripped(c.w), c.backend, session_options(42, 1));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(direct.expectation(a)),
              std::bit_cast<std::uint64_t>(decoded.expectation(a)))
        << c.backend;
    expect_same_shots(decoded.sample(a, 16), direct.sample(a, 16),
                      c.backend);
  }
}

// --- frontends agree across backends ----------------------------------

TEST(Frontends, PuboAndWeightedMisAgreeAcrossBackends) {
  const Angles a({0.35}, {0.55});
  for (const Workload& w : {third_order_pubo(), weighted_mis_workload()}) {
    Session sv(w, "statevector", session_options(1, 1));
    Session mb(w, "mbqc", session_options(1, 1));
    EXPECT_NEAR(sv.expectation(a), mb.expectation(a), 1e-9)
        << ansatz_kind_name(w.ansatz());
  }
}

TEST(Frontends, WeightedMisSamplesStayIndependentSets) {
  const Workload w = weighted_mis_workload();
  Session s(w, "mbqc", session_options(5, 1));
  const SampleResult r = s.sample(Angles({0.65}, {0.85}), 64);
  for (const api::Shot& shot : r.shots) {
    EXPECT_TRUE(qaoa::is_independent_set(w.mis_graph(), shot.x));
    EXPECT_NEAR(shot.cost, w.cost().evaluate(shot.x), 1e-12);
  }
}

TEST(Frontends, AllOnesWeightsReproduceUnweightedMisExactly) {
  const Graph g = path_graph(4);
  const Angles a({0.4}, {0.9});
  Session unweighted(Workload::mis(g), "mbqc", session_options(3, 1));
  Session weighted(Workload::mis_weighted(g, {1.0, 1.0, 1.0, 1.0}), "mbqc",
                   session_options(3, 1));
  expect_same_shots(weighted.sample(a, 32), unweighted.sample(a, 32),
                    "all-ones weighted MIS");
}

// --- noise knob --------------------------------------------------------

TEST(NoiseKnob, OnlyMeasurementBackendsAcceptNoisyWorkloads) {
  Workload w = Workload::maxcut(cycle_graph(4));
  w.with_entangler_noise(0.1);
  const Angles a({0.5}, {0.3});
  for (const char* backend : {"statevector", "clifford", "zx"}) {
    Session s(w, backend, session_options(1, 1));
    EXPECT_NE(s.unsupported_reason(a), "") << backend;
    EXPECT_THROW(s.expectation(a), Error) << backend;
  }
  for (const char* backend : {"mbqc", "mbqc-classical"}) {
    Session s(w, backend, session_options(1, 1));
    EXPECT_EQ(s.unsupported_reason(a), "") << backend;
    EXPECT_NO_THROW(s.sample(a, 8)) << backend;
  }
}

TEST(NoiseKnob, RouterRoutesNoisyWorkloadsToMbqc) {
  // 6 qubits: above the router's zx tiny-instance policy, so the
  // noiseless route is statevector and the only noise difference is the
  // new capability gate.
  Workload noiseless = Workload::maxcut(cycle_graph(6));
  Workload noisy = noiseless;
  noisy.with_entangler_noise(0.1);
  const Angles a({0.5}, {0.3});  // generic (non-Clifford) angles
  api::RouterBackend router;
  EXPECT_EQ(router.route(noiseless, a).backend_name, "statevector");
  const api::RouteDecision d = router.route(noisy, a);
  EXPECT_EQ(d.backend_name, "mbqc");
  EXPECT_TRUE(router.capabilities().supports_noise);

  Session s(noisy, "router", session_options(2, 1));
  EXPECT_NO_THROW(s.sample(a, 8));

  // Cross-check mode must NOT pair two noise-capable adapters on a
  // noisy workload: each evaluates an independent stochastic
  // trajectory, so they legitimately disagree beyond any tolerance.
  api::RouterOptions cc;
  cc.candidates = {"mbqc", "mbqc-classical"};
  cc.cross_check = true;
  const api::RouterBackend checked(cc);
  const api::RouteDecision noisy_d = checked.route(noisy, a);
  EXPECT_EQ(noisy_d.backend_name, "mbqc");
  EXPECT_EQ(noisy_d.cross_check_backend, "");
  Rng rng(1);
  EXPECT_NO_THROW(checked.expectation(noisy, a, rng, nullptr));
  // Noiseless workloads keep the second adapter.
  EXPECT_EQ(checked.route(noiseless, a).cross_check_backend,
            "mbqc-classical");
}

TEST(NoiseKnob, OutOfRangeProbabilityThrows) {
  EXPECT_THROW(Workload::maxcut(cycle_graph(4)).with_entangler_noise(1.5),
               Error);
}

TEST(NoiseKnob, NoisySamplingIsThreadCountInvariant) {
  Workload w = Workload::maxcut(cycle_graph(4));
  w.with_entangler_noise(0.15);
  const Angles a({0.5}, {0.3});
  Session s1(w, "mbqc", session_options(13, 1));
  set_num_threads(1);
  const SampleResult serial = s1.sample(a, 32);
  set_num_threads(8);
  Session s8(w, "mbqc", session_options(13, 1));
  const SampleResult parallel = s8.sample(a, 32);
  set_num_threads(0);
  expect_same_shots(parallel, serial, "noisy thread sweep");
}

// --- capability gates --------------------------------------------------

TEST(Capabilities, MaxTermOrderGatesHigherOrderCosts) {
  // A backend bounded at order 2 must reject the third-order PUBO with a
  // reason naming the offending order; unlimited backends accept it.
  class Order2Backend final : public api::Backend {
   public:
    std::string name() const override { return "order2"; }
    api::Capabilities capabilities() const override {
      api::Capabilities caps;
      caps.max_term_order = 2;
      return caps;
    }
    real expectation(const Workload&, const Angles&, Rng&,
                     const api::Prepared*) const override {
      return 0.0;
    }
    std::uint64_t sample_one(const Workload&, const Angles&, Rng&,
                             const api::Prepared*) const override {
      return 0;
    }
  };
  const Order2Backend bounded;
  const Angles a({0.5}, {0.3});
  const std::string reason =
      bounded.unsupported_reason(third_order_pubo(), a, nullptr);
  EXPECT_NE(reason.find("order"), std::string::npos) << reason;
  EXPECT_EQ(bounded.unsupported_reason(Workload::maxcut(cycle_graph(4)), a,
                                       nullptr),
            "");
  // The built-in adapters are order-unlimited: the paper's per-term
  // gadget covers |S| > 2.
  for (const char* backend : {"statevector", "mbqc"}) {
    Session s(third_order_pubo(), backend, session_options(1, 1));
    EXPECT_EQ(s.unsupported_reason(a), "") << backend;
  }
}

// --- process sharding: the acceptance bar ------------------------------

TEST(SpecSharding, WeightedMisAndPuboShardBitIdenticallyWithNoFallback) {
  const Angles a({0.5, -0.4}, {0.3, 0.8});
  const std::vector<Angles> points = {a, Angles({0.1, 0.2}, {0.3, 0.4}),
                                      Angles({-0.7, 0.6}, {0.2, -0.1})};
  for (const Workload& w : {weighted_mis_workload(), third_order_pubo()}) {
    const std::string kind = ansatz_kind_name(w.ansatz());
    for (const char* backend : {"statevector", "mbqc"}) {
      Session serial(w, backend, session_options(21, 1));
      Session sharded(w, backend, session_options(21, 2));
      expect_same_shots(sharded.sample(a, 32), serial.sample(a, 32),
                        kind + std::string("/") + backend);
      // The acceptance criterion: the call actually crossed process
      // boundaries — no silent in-process fallback.
      EXPECT_GT(sharded.shard_workers(), 0) << kind << "/" << backend;

      const auto serial_vals = serial.expectation_batch(points);
      const auto sharded_vals = sharded.expectation_batch(points);
      ASSERT_EQ(serial_vals.size(), sharded_vals.size());
      for (std::size_t i = 0; i < serial_vals.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(serial_vals[i]),
                  std::bit_cast<std::uint64_t>(sharded_vals[i]))
            << kind << "/" << backend << " point " << i;
    }
  }
}

TEST(SpecSharding, DeclarativeAndNoisyWorkloadsShardToo) {
  const Angles a2({0.5, -0.4}, {0.3, 0.8});
  // The 1-layer HEA over 3 qubits reads gamma[0..2]/beta[0..2] (one slot
  // per (layer, qubit) — see hea_param_circuit).
  const Angles hea_a({0.5, -0.4, 0.2}, {0.3, 0.8, -0.6});
  Workload noisy = Workload::maxcut(cycle_graph(4));
  noisy.with_entangler_noise(0.1);
  struct Case {
    Workload w;
    const char* backend;
    Angles a;
  };
  const Case cases[] = {
      {xy_declarative_workload(2), "statevector", a2},
      {xy_declarative_workload(2), "mbqc", a2},
      {Workload::parameterized(qaoa::CostHamiltonian::maxcut(path_graph(3)),
                               qaoa::hea_param_circuit(path_graph(3), 1)),
       "mbqc", hea_a},
      {noisy, "mbqc", a2},
  };
  for (const Case& c : cases) {
    EXPECT_TRUE(shard::shardable(c.w));
    Session serial(c.w, c.backend, session_options(33, 1));
    Session sharded(c.w, c.backend, session_options(33, 2));
    expect_same_shots(sharded.sample(c.a, 24), serial.sample(c.a, 24),
                      std::string(c.backend) + "/" +
                          ansatz_kind_name(c.w.ansatz()));
    EXPECT_GT(sharded.shard_workers(), 0)
        << c.backend << "/" << ansatz_kind_name(c.w.ansatz());
  }
}

TEST(SpecSharding, OnlyCustomClosuresFallBack) {
  const auto cost = CostHamiltonian::maxcut(cycle_graph(3));
  const Workload custom = Workload::custom(cost, [](const Angles& a) {
    Circuit c(3);
    for (int q = 0; q < 3; ++q) c.rz(q, a.gamma.front());
    return c;
  });
  EXPECT_FALSE(shard::shardable(custom));
  Session s(custom, "statevector", session_options(4, 2));
  EXPECT_NO_THROW(s.sample(Angles({0.2}, {0.4}), 16));
  EXPECT_EQ(s.shard_workers(), 0) << "custom workloads must fall back";
}

// --- spec fingerprints -------------------------------------------------

TEST(SpecFingerprint, IsInvariantUnderCodecRoundTrips) {
  // The fingerprint hashes the exact codec bytes, so
  // fingerprint(decode(encode(spec))) == fingerprint(spec) for every
  // serializable ansatz — the property the daemon's warm cache needs to
  // recognize a workload that traveled through the wire protocol.
  const std::vector<Workload> workloads = {
      Workload::maxcut(cycle_graph(4)), third_order_pubo(),
      weighted_mis_workload(), xy_declarative_workload(2)};
  for (const Workload& w : workloads) {
    const std::uint64_t fp = api::spec_fingerprint(w.spec());
    EXPECT_EQ(api::spec_fingerprint(w.spec()), fp) << "not deterministic";
    EXPECT_EQ(api::spec_fingerprint(round_tripped(w).spec()), fp)
        << "round trip changed the fingerprint";
    EXPECT_EQ(api::spec_fingerprint(round_tripped(round_tripped(w)).spec()),
              fp);
  }
  // No pointer or process-lifetime dependence: an independently rebuilt
  // equal workload fingerprints equal.
  EXPECT_EQ(api::spec_fingerprint(Workload::maxcut(cycle_graph(4)).spec()),
            api::spec_fingerprint(workloads[0].spec()));
}

TEST(SpecFingerprint, DistinguishesWhatTheCodecDistinguishes) {
  const std::vector<Workload> distinct = {
      Workload::maxcut(cycle_graph(4)),
      Workload::maxcut(cycle_graph(5)),        // different graph
      Workload::maxcut(path_graph(4)),         // same size, different edges
      third_order_pubo(),
      weighted_mis_workload(),
      xy_declarative_workload(1),
      xy_declarative_workload(2),              // different layer count
  };
  for (std::size_t i = 0; i < distinct.size(); ++i)
    for (std::size_t j = i + 1; j < distinct.size(); ++j)
      EXPECT_NE(api::spec_fingerprint(distinct[i].spec()),
                api::spec_fingerprint(distinct[j].spec()))
          << "workloads " << i << " and " << j << " collide";

  // The noise knob is part of the identity: a recompile-relevant field.
  Workload noisy = Workload::maxcut(cycle_graph(4));
  const std::uint64_t clean_fp = api::spec_fingerprint(noisy.spec());
  noisy.with_entangler_noise(0.125);
  EXPECT_NE(api::spec_fingerprint(noisy.spec()), clean_fp);
}

TEST(SpecFingerprint, CustomCircuitsThrowInsteadOfLying) {
  const Workload c = Workload::custom(
      CostHamiltonian::maxcut(cycle_graph(3)),
      [](const Angles&) { return Circuit(3); });
  EXPECT_THROW(api::spec_fingerprint(c.spec()), Error);
}

TEST(SpecFingerprint, Fnv1a64MatchesThePublishedVectors) {
  const auto hash = [](std::string_view s) {
    return api::fnv1a64(std::as_bytes(std::span<const char>(s.data(),
                                                            s.size())));
  };
  // Reference values of the standard FNV-1a 64 parameters.
  EXPECT_EQ(hash(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(hash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(hash("foobar"), 0x85944171f73967e8ULL);
  // Seed chaining: hashing "ab" equals hashing "b" seeded with hash("a").
  EXPECT_EQ(hash("ab"),
            api::fnv1a64(std::as_bytes(std::span<const char>("b", 1)),
                         hash("a")));
}


// --- JSON text codec --------------------------------------------------

TEST(SpecJson, RoundTripsEveryKindByteStably) {
  const std::vector<WorkloadSpec> specs = {
      Workload::qaoa(ring_cost(3)).spec(),
      Workload::mis_weighted(cycle_graph(4), {0.5, 1.0, 1.5, 2.0}).spec(),
      Workload::parameterized(ring_cost(2), [] {
        ParamCircuit pc(2);
        pc.h(0).cx(0, 1);
        pc.phase_gadget({0, 1}, Param::gamma(0, 2.0, 0.125));
        pc.rx(1, Param::beta(0, 2.0));
        pc.controlled_exp_x(0, {1}, Param::beta(0, 1.0), 1);
        return pc;
      }()).spec(),
  };
  for (const WorkloadSpec& spec : specs) {
    const std::string text = spec_to_json(spec);
    const WorkloadSpec back = spec_from_json(text);
    // Canonical emission: JSON -> spec -> JSON is byte-stable, and the
    // binary codec agrees bit for bit.
    EXPECT_EQ(spec_to_json(back), text);
    EXPECT_EQ(api::serialize_spec(back), api::serialize_spec(spec));
    // And through the binary codec and back to text.
    const WorkloadSpec rebuilt = api::parse_spec(api::serialize_spec(back));
    EXPECT_EQ(spec_to_json(rebuilt), text);
  }
}

TEST(SpecJson, ReproducesDoublesExactlyIncludingNonFinite) {
  // 0.1 has no finite binary expansion; the codec must reproduce the
  // exact bits, not a close decimal.
  CostHamiltonian c(2, 0.1);
  c.add_term({0}, 0.1 + 0.2);  // the classic 0.30000000000000004
  c.add_term({0, 1}, -0.0);    // negative zero survives too
  WorkloadSpec spec = Workload::qaoa(c).spec();
  const WorkloadSpec back = spec_from_json(spec_to_json(spec));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.cost.constant()),
            std::bit_cast<std::uint64_t>(spec.cost.constant()));
  for (std::size_t t = 0; t < spec.cost.terms().size(); ++t)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.cost.terms()[t].coeff),
              std::bit_cast<std::uint64_t>(spec.cost.terms()[t].coeff));

  // Non-finite reals ride as IEEE-754 bit-pattern hex strings.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::string text =
      "{\"mbq_spec\": 1, \"kind\": \"qaoa\","
      " \"cost\": {\"num_qubits\": 1, \"constant\": \"inf\","
      " \"terms\": [{\"coeff\": \"0x7ff8000000000000\", \"support\": [0]}]}}";
  const WorkloadSpec exotic = spec_from_json(text);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(exotic.cost.constant()),
            std::bit_cast<std::uint64_t>(inf));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(exotic.cost.terms()[0].coeff),
            std::bit_cast<std::uint64_t>(nan));
  // ...and they round trip byte-stably through the canonical emitter.
  EXPECT_EQ(spec_to_json(spec_from_json(spec_to_json(exotic))),
            spec_to_json(exotic));
}

TEST(SpecJson, OptionalKnobsDefaultLikeAFreshSpec) {
  const WorkloadSpec minimal = spec_from_json(
      "{\"mbq_spec\": 1, \"kind\": \"qaoa\","
      " \"cost\": {\"num_qubits\": 2,"
      " \"terms\": [{\"coeff\": 1.0, \"support\": [0, 1]}]}}");
  EXPECT_EQ(minimal.linear_style, core::LinearTermStyle::Gadget);
  EXPECT_EQ(minimal.max_wire_degree, 0);
  EXPECT_EQ(minimal.entangler_noise, 0.0);
  EXPECT_EQ(minimal.cost.constant(), 0.0);
}

TEST(SpecJson, RejectsMalformedInput) {
  const std::string good =
      "{\"mbq_spec\": 1, \"kind\": \"qaoa\","
      " \"cost\": {\"num_qubits\": 2,"
      " \"terms\": [{\"coeff\": 1.0, \"support\": [0, 1]}]}}";
  ASSERT_NO_THROW(spec_from_json(good));

  const std::vector<std::pair<std::string, std::string>> bad = {
      {"trailing garbage", good + " x"},
      {"truncated", good.substr(0, good.size() / 2)},
      {"not an object", "[1, 2, 3]"},
      {"wrong version",
       "{\"mbq_spec\": 2, \"kind\": \"qaoa\","
       " \"cost\": {\"num_qubits\": 1, \"terms\": []}}"},
      {"missing kind",
       "{\"mbq_spec\": 1,"
       " \"cost\": {\"num_qubits\": 1, \"terms\": []}}"},
      {"unknown kind",
       "{\"mbq_spec\": 1, \"kind\": \"vqe\","
       " \"cost\": {\"num_qubits\": 1, \"terms\": []}}"},
      {"custom is not serializable",
       "{\"mbq_spec\": 1, \"kind\": \"custom\","
       " \"cost\": {\"num_qubits\": 1, \"terms\": []}}"},
      {"unknown linear_style",
       "{\"mbq_spec\": 1, \"kind\": \"qaoa\", \"linear_style\": \"loop\","
       " \"cost\": {\"num_qubits\": 1, \"terms\": []}}"},
      {"bad hex real",
       "{\"mbq_spec\": 1, \"kind\": \"qaoa\","
       " \"cost\": {\"num_qubits\": 1, \"constant\": \"0x12xyz\","
       " \"terms\": []}}"},
      {"non-integer int",
       "{\"mbq_spec\": 1, \"kind\": \"qaoa\","
       " \"cost\": {\"num_qubits\": 1.5, \"terms\": []}}"},
      {"edge triple",
       "{\"mbq_spec\": 1, \"kind\": \"mis\","
       " \"cost\": {\"num_qubits\": 3, \"terms\": []},"
       " \"graph\": {\"num_vertices\": 3, \"edges\": [[0, 1, 2]]},"
       " \"vertex_weights\": [1, 1, 1]}"},
      {"unknown gate kind",
       "{\"mbq_spec\": 1, \"kind\": \"param-circuit\","
       " \"cost\": {\"num_qubits\": 1, \"terms\": []},"
       " \"circuit\": {\"num_qubits\": 1, \"gates\": [{\"kind\": \"ccz\","
       " \"qubits\": [0], \"angle\": {\"source\": \"constant\","
       " \"index\": 0, \"scale\": 0, \"offset\": 0}, \"ctrl_value\": 0}]}}"},
      {"unknown param source",
       "{\"mbq_spec\": 1, \"kind\": \"param-circuit\","
       " \"cost\": {\"num_qubits\": 1, \"terms\": []},"
       " \"circuit\": {\"num_qubits\": 1, \"gates\": [{\"kind\": \"rz\","
       " \"qubits\": [0], \"angle\": {\"source\": \"delta\","
       " \"index\": 0, \"scale\": 1, \"offset\": 0}, \"ctrl_value\": 0}]}}"},
      // Decoded by earlier versions; "registered" is no kind any more.
      {"registered kind",
       "{\"mbq_spec\": 1, \"kind\": \"registered\","
       " \"cost\": {\"num_qubits\": 2, \"terms\": []},"
       " \"registered\": {\"name\": \"hea-line\", \"ints\": [1],"
       " \"reals\": []}}"},
      // A bit string is "0x" and exactly 16 hex digits: no sign, no
      // whitespace, no 17th digit.
      {"signed hex real",
       "{\"mbq_spec\": 1, \"kind\": \"qaoa\","
       " \"cost\": {\"num_qubits\": 1,"
       " \"constant\": \"0x-4010000000000000\", \"terms\": []}}"},
      {"space in hex real",
       "{\"mbq_spec\": 1, \"kind\": \"qaoa\","
       " \"cost\": {\"num_qubits\": 1,"
       " \"constant\": \"0x 3ff0000000000000\", \"terms\": []}}"},
      {"17-digit hex real",
       "{\"mbq_spec\": 1, \"kind\": \"qaoa\","
       " \"cost\": {\"num_qubits\": 1,"
       " \"constant\": \"0x13ff0000000000000\", \"terms\": []}}"},
      // A u-escape is four hex digits naming an ASCII code point.
      {"non-hex \\u escape",
       "{\"mbq_spec\": 1, \"kind\": \"qa\\u6fzza\","
       " \"cost\": {\"num_qubits\": 1, \"terms\": []}}"},
      {"non-ASCII \\u escape",
       "{\"mbq_spec\": 1, \"kind\": \"qa\\u016fa\","
       " \"cost\": {\"num_qubits\": 1, \"terms\": []}}"},
  };
  for (const auto& [label, text] : bad)
    EXPECT_THROW(spec_from_json(text), Error) << label;
}

}  // namespace
}  // namespace mbq

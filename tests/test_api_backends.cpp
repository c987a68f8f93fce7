// The acceptance test of the unified backend API: every registered
// backend is an interchangeable implementation of the same mathematical
// object.  For random small MaxCut/QUBO instances and random angles at
// p = 1, 2, all supporting backends must agree on expectation() to 1e-9
// (the paper's Eq. 12 as an API property), and sample() histograms must
// pass a chi-squared sanity check against the statevector Born
// distribution.  Session-level behaviors — caching, thread-count
// independent sampling, registry errors — are covered here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mbq/api/api.h"
#include "mbq/api/prepared.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/graph/generators.h"
#include "mbq/qaoa/analytic.h"
#include "mbq/qaoa/mixers.h"

namespace mbq::api {
namespace {

using qaoa::Angles;
using qaoa::CostHamiltonian;

/// Random QUBO with both linear and quadratic terms.
Workload random_qubo_workload(int n, Rng& rng) {
  const Graph g = random_gnm_graph(n, std::min(2 * n, n * (n - 1) / 2), rng);
  CostHamiltonian c = CostHamiltonian::maxcut(g);
  for (int q = 0; q < n; ++q)
    if (rng.coin()) c.add_term({q}, rng.uniform(-0.5, 0.5));
  return Workload::qaoa(std::move(c));
}

/// Chi-squared statistic of observed counts against the model Born
/// distribution, pooling low-expectation bins.
real chi_squared(const std::vector<std::int64_t>& counts,
                 const std::vector<real>& probs, int* dof) {
  const std::int64_t shots =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  real stat = 0.0;
  real pooled_expected = 0.0;
  real pooled_observed = 0.0;
  *dof = 0;
  for (std::size_t x = 0; x < counts.size(); ++x) {
    const real expected = probs[x] * static_cast<real>(shots);
    if (expected < 5.0) {  // pool sparse bins, the standard validity rule
      pooled_expected += expected;
      pooled_observed += static_cast<real>(counts[x]);
      continue;
    }
    const real d = static_cast<real>(counts[x]) - expected;
    stat += d * d / expected;
    ++*dof;
  }
  if (pooled_expected >= 5.0) {
    const real d = pooled_observed - pooled_expected;
    stat += d * d / pooled_expected;
    ++*dof;
  }
  *dof = std::max(*dof - 1, 1);
  return stat;
}

TEST(Registry, BuiltinsPresent) {
  auto& registry = BackendRegistry::instance();
  for (const char* name :
       {"statevector", "mbqc", "mbqc-classical", "clifford", "zx"})
    EXPECT_TRUE(registry.contains(name)) << name;
  EXPECT_THROW(registry.create("no-such-backend"), Error);
}

TEST(Registry, CustomBackendRegisters) {
  auto& registry = BackendRegistry::instance();
  ASSERT_FALSE(registry.contains("statevector-alias"));
  registry.add("statevector-alias",
               [] { return std::make_shared<StatevectorBackend>(); });
  EXPECT_TRUE(registry.contains("statevector-alias"));
  EXPECT_THROW(registry.add("statevector-alias",
                            [] { return std::make_shared<StatevectorBackend>(); }),
               Error);
  EXPECT_EQ(registry.create("statevector-alias")->name(), "statevector");
}

TEST(BackendEquivalence, AllBackendsAgreeOnExpectation) {
  Rng rng(11);
  for (int instance = 0; instance < 3; ++instance) {
    Workload w = instance == 0 ? Workload::maxcut(cycle_graph(5))
                               : random_qubo_workload(4 + instance, rng);
    for (int p : {1, 2}) {
      const Angles a = Angles::random(p, rng);
      Session reference(w, "statevector");
      const real expected = reference.expectation(a);
      for (const std::string& name : BackendRegistry::instance().names()) {
        Session session(w, name);
        if (!session.unsupported_reason(a).empty()) continue;  // clifford
        EXPECT_NEAR(session.expectation(a), expected, 1e-9)
            << name << " instance " << instance << " p=" << p;
      }
    }
  }
}

TEST(BackendEquivalence, MbqcExpectationIsBitIdenticalToEvaluateFold) {
  // mbqc's <C> folds |amp|^2 over the workload's cost table.  Replaying
  // the same run on an equal rng stream and folding per-amplitude
  // cost().evaluate() must give the same double, not one within 1e-9.
  Rng gen(43);
  const int sk_n = 13;  // 2^13 >= kParallelGrain: a team builds the table
  static_assert((std::int64_t{1} << sk_n) >= kParallelGrain);
  const Graph sk = complete_graph(sk_n);
  std::vector<real> sk_weights(sk.num_edges());
  for (real& s : sk_weights) s = gen.coin() ? 1.0 : -1.0;
  std::vector<real> linear(6);
  for (real& l : linear) l = gen.uniform(-1.0, 1.0);
  const Graph ring = cycle_graph(6);
  std::vector<std::pair<Edge, real>> quad;
  for (const Edge& e : ring.edges())
    quad.push_back({e, gen.uniform(-1.0, 1.0)});
  const std::vector<qaoa::PuboTerm> pubo = {
      {0.7, {0, 1, 2}}, {-0.4, {2, 3, 4}}, {0.3, {1, 4}}, {0.5, {0}}};
  const std::vector<std::pair<const char*, Workload>> cases = {
      {"sk n=13", Workload::maxcut_weighted(sk, sk_weights)},
      {"qubo", Workload::qaoa(CostHamiltonian::qubo(6, linear, quad, 0.37))},
      {"pubo order 3", Workload::pubo(5, pubo, -0.2)},
      {"f32", Workload::maxcut(cycle_graph(6)).with_precision(Precision::F32)},
      {"noisy", Workload::maxcut(cycle_graph(5)).with_entangler_noise(0.05)},
  };
  int classical_flips = 0;
  for (const auto& [label, w] : cases) {
    const Angles a = Angles::random(2, gen);
    for (const char* name : {"mbqc", "mbqc-classical"}) {
      const auto backend = BackendRegistry::instance().create(name);
      const auto prep = backend->prepare(w, a);
      const std::uint64_t seed = gen.uniform_index(1u << 30);
      Rng rng(seed);
      const real got = backend->expectation(w, a, rng, prep.get());

      mbqc::ExecOptions opts;
      opts.entangler_noise = w.entangler_noise();
      opts.precision = w.precision();
      Rng replay(seed);
      const mbqc::RunResult r =
          mbqc::thread_local_executor(executable_of(prep.get()), opts)
              .run(replay);
      const core::CompiledPattern& cp = pattern_of(prep.get());
      std::uint64_t flip = 0;
      for (int q = 0; q < w.num_qubits(); ++q)
        if (!cp.final_fx[q].empty() && cp.final_fx[q].evaluate(r.outcomes))
          flip |= std::uint64_t{1} << q;
      real want = 0.0;
      for (std::uint64_t x = 0; x < r.output_state.size(); ++x)
        want += std::norm(r.output_state[x]) * w.cost().evaluate(x ^ flip);
      EXPECT_EQ(got, want) << label << " on " << name;
      if (std::string(name) == "mbqc-classical") classical_flips += flip != 0;
    }
  }
  EXPECT_GT(classical_flips, 0);  // the x ^ flip index is exercised
}

TEST(BackendEquivalence, CliffordAnglesRunOnAllBackends) {
  // gamma = pi/2 with unit MaxCut weights (w = +-1/2 per edge plus the
  // constant) and beta = pi/4 compile to pi/2-multiple pattern angles.
  Rng rng(13);
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({kPi / 2}, {kPi / 4});
  Session reference(w, "statevector");
  const real expected = reference.expectation(a);
  int ran = 0;
  for (const std::string& name : BackendRegistry::instance().names()) {
    Session session(w, name);
    ASSERT_EQ(session.unsupported_reason(a), "") << name;
    EXPECT_NEAR(session.expectation(a), expected, 1e-9) << name;
    ++ran;
  }
  EXPECT_GE(ran, 5);  // including "clifford"
  // And the clifford backend indeed rejects generic angles.
  Session clifford(w, "clifford");
  EXPECT_NE(clifford.unsupported_reason(Angles::random(1, rng)), "");
}

TEST(BackendEquivalence, SampleHistogramsMatchStatevector) {
  Rng rng(17);
  const Graph g = cycle_graph(4);
  const Workload w = Workload::maxcut(g);
  const Angles a = Angles::random(1, rng);
  const int n = g.num_vertices();
  const int shots = 4096;

  // Model distribution from the reference state.
  const Statevector sv = w.reference_state(a);
  std::vector<real> probs(sv.dim());
  for (std::uint64_t x = 0; x < sv.dim(); ++x)
    probs[x] = std::norm(sv.amplitudes()[x]);

  for (const std::string& name : BackendRegistry::instance().names()) {
    Session session(w, name, {.seed = 99});
    if (!session.unsupported_reason(a).empty()) continue;
    const SampleResult result = session.sample(a, shots);
    ASSERT_EQ(result.shots.size(), static_cast<std::size_t>(shots));
    int dof = 0;
    const real stat = chi_squared(result.counts(n), probs, &dof);
    // Very loose gate: ~5x the dof catches wrong distributions while
    // keeping the false-positive rate negligible.
    EXPECT_LT(stat, 5.0 * dof + 30.0) << name << " chi2=" << stat;
  }
}

TEST(BackendEquivalence, MisAnsatzAgreesAcrossSupportingBackends) {
  Rng rng(19);
  const Graph g = path_graph(4);
  const Workload w = Workload::mis(g);
  const Angles a = Angles::random(1, rng);
  Session reference(w, "statevector");
  Session mbqc(w, "mbqc");
  EXPECT_NEAR(mbqc.expectation(a), reference.expectation(a), 1e-9);
  // Every sample is a valid independent set by construction (Sec. IV).
  for (const Shot& s : mbqc.sample(a, 64).shots)
    EXPECT_TRUE(qaoa::is_independent_set(g, s.x));
}

TEST(BackendEquivalence, CustomCircuitAnsatzAgrees) {
  Rng rng(23);
  const Graph g = cycle_graph(3);
  CostHamiltonian c = CostHamiltonian::maxcut(g);
  const auto builder = [n = g.num_vertices(), c](const Angles& a) {
    Circuit circ(n);
    for (int k = 0; k < a.p(); ++k) {
      for (const auto& t : c.terms())
        circ.phase_gadget(t.support, 2.0 * a.gamma[k] * t.coeff);
      for (int q = 0; q < n; ++q) circ.rx(q, 2.0 * a.beta[k]);
    }
    return circ;
  };
  const Workload w = Workload::custom(c, builder);
  const Angles a = Angles::random(2, rng);
  Session reference(w, "statevector");
  Session mbqc(w, "mbqc");
  EXPECT_NEAR(mbqc.expectation(a), reference.expectation(a), 1e-9);
}

TEST(Session, SamplingIsReproducibleAndThreadCountIndependent) {
  struct ThreadGuard {
    ~ThreadGuard() { set_num_threads(0); }
  } guard;
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.6}, {0.4});
  Session s1(w, "mbqc", {.seed = 7});
  Session s2(w, "mbqc", {.seed = 7});
  set_num_threads(1);
  const SampleResult r1 = s1.sample(a, 64);
  set_num_threads(4);
  const SampleResult r2 = s2.sample(a, 64);
  ASSERT_EQ(r1.shots.size(), r2.shots.size());
  for (std::size_t i = 0; i < r1.shots.size(); ++i)
    EXPECT_EQ(r1.shots[i].x, r2.shots[i].x) << i;
  // Distinct calls draw distinct streams.
  const SampleResult r3 = s1.sample(a, 64);
  bool any_differ = false;
  for (std::size_t i = 0; i < r1.shots.size(); ++i)
    any_differ |= (r1.shots[i].x != r3.shots[i].x);
  EXPECT_TRUE(any_differ);
}

TEST(Session, PatternCacheHitsOnRepeatedAngles) {
  const Workload w = Workload::maxcut(cycle_graph(4));
  const Angles a({0.3}, {0.2});
  const Angles b({0.9}, {-0.4});
  Session session(w, "mbqc");
  session.expectation(a);
  session.expectation(a);
  session.sample(a, 4);
  session.expectation(b);
  EXPECT_EQ(session.cache_misses(), 2u);  // a, b
  EXPECT_EQ(session.cache_hits(), 2u);    // repeat a twice
  EXPECT_EQ(session.cache_entries(), 2u);
}

TEST(Session, CacheEvictsLeastRecentlyUsed) {
  const Workload w = Workload::maxcut(cycle_graph(3));
  Session session(w, "statevector", {.cache_capacity = 2});
  session.expectation(Angles({0.1}, {0.1}));
  session.expectation(Angles({0.2}, {0.2}));
  session.expectation(Angles({0.1}, {0.1}));  // refresh the first entry
  session.expectation(Angles({0.3}, {0.3}));  // evicts (0.2, 0.2)
  EXPECT_EQ(session.cache_entries(), 2u);
  session.expectation(Angles({0.1}, {0.1}));  // still cached: was refreshed
  EXPECT_EQ(session.cache_hits(), 2u);
  EXPECT_EQ(session.cache_misses(), 3u);
}

TEST(Session, ObjectiveDrivesOptimizerThroughBackend) {
  const Workload w = Workload::maxcut(cycle_graph(4));
  Session session(w, "statevector");
  auto objective = session.objective();
  const real at_zero = objective({0.0, 0.0});
  EXPECT_NEAR(at_zero, 2.0, 1e-9);  // <cut> of C4 in |+...+> is |E|/2
  const auto p1 = qaoa::maxcut_p1_grid_optimum(cycle_graph(4), 32);
  EXPECT_GT(objective({p1.gamma, p1.beta}), at_zero + 0.1);
  EXPECT_GT(session.cache_entries(), 0u);
}

TEST(Session, UnsupportedWorkloadThrowsWithReason) {
  const Workload w = Workload::mis(path_graph(3));
  Session clifford_session(w, "clifford");
  // MIS patterns at generic angles are not Clifford.
  Rng rng(29);
  EXPECT_THROW(clifford_session.expectation(Angles::random(1, rng)), Error);
}

TEST(Rng, StreamsAreStableAndDecorrelated) {
  Rng root(5);
  Rng a = root.stream(0);
  Rng b = root.stream(0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c = root.stream(1);
  Rng d = root.stream(0);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c.next() == d.next());
  EXPECT_LT(same, 4);
}

}  // namespace
}  // namespace mbq::api

// Runtime-dispatched SIMD collapse kernels: randomized scalar-vs-vector
// bitwise differentials on every table entry, end-to-end bit-identity of
// amplitudes / outcome streams / norms across every ISA this host can
// run (with a forced-scalar leg that exists on every host), and the
// MBQ_SIMD parse / reject-at-dispatch behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "mbq/common/cpu.h"
#include "mbq/common/error.h"
#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/core/compiler.h"
#include "mbq/graph/generators.h"
#include "mbq/linalg/unitaries.h"
#include "mbq/mbqc/compiled.h"
#include "mbq/qaoa/qaoa.h"
#include "mbq/sim/collapse_kernels.h"
#include "mbq/sim/collapse_threaded.h"
#include "mbq/sim/dynamic_statevector.h"

namespace mbq {
namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

bool same_fold(double a, double b) { return bits(a) == bits(b); }
bool same_bits(double a, double b) { return same_fold(a, b); }

bool same_bits(const cplx& a, const cplx& b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

::testing::AssertionResult buffers_bit_equal(const std::vector<cplx>& want,
                                             const std::vector<cplx>& got) {
  if (want.size() != got.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!same_bits(want[i], got[i]))
      return ::testing::AssertionFailure()
             << "amplitude " << i << ": (" << got[i].real() << ", "
             << got[i].imag() << ") != (" << want[i].real() << ", "
             << want[i].imag() << ")";
  return ::testing::AssertionSuccess();
}

/// Restores the process-global kernel table no matter how a test exits.
struct IsaGuard {
  SimdIsa saved;
  IsaGuard() : saved(active_simd_isa()) {}
  // force_simd_isa throws when a flavor fails its self-check; a throwing
  // destructor would end the binary, so record it as this test's failure.
  ~IsaGuard() {
    try {
      force_simd_isa(saved);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "restoring " << isa_name(saved) << ": " << e.what();
    }
  }
};

/// Restores the thread budget no matter how a test exits.
struct ThreadGuard {
  int saved;
  ThreadGuard() : saved(num_threads()) {}
  ~ThreadGuard() { set_num_threads(saved); }
};

std::vector<cplx> random_amps(Rng& rng, std::size_t n) {
  std::vector<cplx> v(n);
  for (auto& a : v)
    a = cplx{rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0};
  return v;
}

/// The gain a fused measure leaves pending: 1 (none) or a random value
/// in (0.5, 2).
double random_gain(Rng& rng) {
  return rng.uniform_index(2) == 0 ? 1.0 : 0.5 + 1.5 * rng.uniform();
}

cplx random_eff(Rng& rng, int kind_sel) {
  const double r = rng.uniform() * 2.0 - 1.0;
  const double i = rng.uniform() * 2.0 - 1.0;
  switch (kind_sel) {
    case 0: return cplx{r, 0.0};   // EffKind::Real
    case 1: return cplx{0.0, i};   // EffKind::Imag
    default: return cplx{r, i};    // EffKind::Generic
  }
}

TEST(SimdKernels, SupportedListAlwaysIncludesScalar) {
  const auto isas = supported_simd_isas();
  ASSERT_FALSE(isas.empty());
  bool has_scalar = false;
  for (SimdIsa isa : isas) {
    has_scalar |= (isa == SimdIsa::Scalar);
    const CollapseKernels* k = kernels_for_isa(isa);
    ASSERT_NE(k, nullptr) << isa_name(isa);
    EXPECT_EQ(k->isa, isa);
  }
  EXPECT_TRUE(has_scalar);
}

TEST(SimdKernels, EveryHostFlavorPassesTheSelfCheckBattery) {
  for (SimdIsa isa : supported_simd_isas())
    EXPECT_TRUE(verify_kernels(*kernels_for_isa(isa))) << isa_name(isa);
}

// Randomized per-entry differential, beyond the fixed-size dispatch
// battery: random sizes (including remainders the vector flavors must
// delegate), random masks, random effect kinds — every output amplitude
// and every returned fold compared bit-for-bit against scalar.
TEST(SimdKernels, RandomizedKernelsMatchScalarBitwise) {
  const CollapseKernels& s = scalar_kernels();
  Rng rng(20240819);
  for (SimdIsa isa : supported_simd_isas()) {
    if (isa == SimdIsa::Scalar) continue;
    const CollapseKernels& k = *kernels_for_isa(isa);
    for (int rep = 0; rep < 40; ++rep) {
      const std::size_t n = 1 + rng.uniform_index(400);
      const auto x = random_amps(rng, n);
      const double sc = rng.uniform() + 0.25;
      const double g = random_gain(rng);

      EXPECT_PRED2(same_fold, s.fold_norms(x.data(), n),
                   k.fold_norms(x.data(), n));
      EXPECT_PRED2(same_fold, s.fold_norms_scaled(x.data(), n, g, sc),
                   k.fold_norms_scaled(x.data(), n, g, sc));
      EXPECT_PRED2(same_fold, s.prep_total_fold(x.data(), n, g, sc),
                   k.prep_total_fold(x.data(), n, g, sc));

      auto a = x, b = x;
      s.scale(a.data(), n, sc);
      k.scale(b.data(), n, sc);
      EXPECT_TRUE(buffers_bit_equal(a, b));
    }
    // Structured kernels want power-of-two registers, like the simulator.
    for (int rep = 0; rep < 30; ++rep) {
      const int nq = 1 + rng.uniform_index(8);  // 2..256 amplitudes
      const std::uint64_t dim = std::uint64_t{1} << nq;
      const auto x = random_amps(rng, dim);
      const cplx e0 = random_eff(rng, rng.uniform_index(3));
      const cplx e1 = random_eff(rng, rng.uniform_index(3));
      const int q = rng.uniform_index(nq);
      const std::uint64_t pmask = rng.uniform_index(dim);
      const double sc = rng.uniform() + 0.25;
      const double g = random_gain(rng);

      std::vector<cplx> oa(dim / 2), ob(dim / 2);
      EXPECT_PRED2(same_fold,
                   s.collapse_pairs(x.data(), oa.data(), dim / 2, q, e0, e1),
                   k.collapse_pairs(x.data(), ob.data(), dim / 2, q, e0, e1));
      EXPECT_TRUE(buffers_bit_equal(oa, ob));

      oa.assign(dim, cplx{});
      ob.assign(dim, cplx{});
      EXPECT_PRED2(
          same_fold,
          s.prep_collapse(x.data(), oa.data(), dim, pmask, e0, e1, g, sc),
          k.prep_collapse(x.data(), ob.data(), dim, pmask, e0, e1, g, sc));
      EXPECT_TRUE(buffers_bit_equal(oa, ob));

      s.teleport_collapse(x.data(), oa.data(), dim, q, pmask, e0, e1, g, sc);
      k.teleport_collapse(x.data(), ob.data(), dim, q, pmask, e0, e1, g, sc);
      EXPECT_TRUE(buffers_bit_equal(oa, ob));

      const std::uint64_t eq = rng.uniform_index(dim);
      const std::uint64_t par = rng.uniform_index(dim);
      const bool neg = rng.uniform_index(2) != 0;
      auto pa = x, pb = x;
      s.sign_pass(pa.data(), dim, eq, par, neg);
      k.sign_pass(pb.data(), dim, eq, par, neg);
      EXPECT_TRUE(buffers_bit_equal(pa, pb));

      const std::uint64_t xmask = std::uint64_t{1} << rng.uniform_index(nq);
      pa = x;
      pb = x;
      s.pauli_swap_pass(pa.data(), dim, xmask, par, eq, neg);
      k.pauli_swap_pass(pb.data(), dim, xmask, par, eq, neg);
      EXPECT_TRUE(buffers_bit_equal(pa, pb));

      std::uint64_t masks[3];
      const int count = 1 + rng.uniform_index(3);
      for (int c = 0; c < count; ++c) masks[c] = rng.uniform_index(dim);
      pa = x;
      pb = x;
      s.cz_masks_pass(pa.data(), dim, masks, count);
      k.cz_masks_pass(pb.data(), dim, masks, count);
      EXPECT_TRUE(buffers_bit_equal(pa, pb));
    }
  }
}

// A scripted DynamicStatevector run — primitive gates, every fused
// kernel, sampled and removed measurements — executed once per ISA with
// identical seeds.  Amplitudes, outcome streams and the norm must match
// the scalar leg bit-for-bit.
struct ScriptResult {
  std::vector<int> outcomes;
  std::vector<cplx> amps;
  double norm;
};

ScriptResult run_script(SimdIsa isa, std::uint64_t seed) {
  force_simd_isa(isa);
  DynamicStatevector dsv;
  Rng rng(seed);
  dsv.add_wire(0);
  dsv.add_wire(1, /*plus=*/false);
  dsv.add_wire(2);
  dsv.apply_h(1);
  dsv.apply_1q(1, gates::rz(0.37));
  dsv.apply_cz(0, 2);
  dsv.add_wire_plus_cz(3, 0b101);  // CZ against positions 0 and 2
  const std::uint64_t cz_masks[2] = {0b0011, 0b1100};
  dsv.apply_cz_masks(cz_masks, 2);
  dsv.apply_pauli_masks(0b0010, 0b0100, true);
  ScriptResult r;
  r.outcomes.push_back(dsv.prep_cz_measure(
      4, 0b0101, measurement_basis(MeasBasis::XY, 0.3), rng));
  r.outcomes.push_back(dsv.prep_cz_teleport_measure(
      5, 0b1000, 1, measurement_basis(MeasBasis::YZ, 0.9), rng));
  r.outcomes.push_back(
      dsv.measure_remove(2, measurement_basis(MeasBasis::X, 0.0), rng));
  dsv.normalize();
  r.amps = dsv.state_in_order(dsv.wire_order());
  r.norm = dsv.norm();
  return r;
}

TEST(SimdKernels, StatevectorScriptBitIdenticalAcrossIsas) {
  IsaGuard guard;
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const ScriptResult want = run_script(SimdIsa::Scalar, seed);
    for (SimdIsa isa : supported_simd_isas()) {
      const ScriptResult got = run_script(isa, seed);
      SCOPED_TRACE(std::string("isa=") + isa_name(isa) +
                   " seed=" + std::to_string(seed));
      EXPECT_EQ(want.outcomes, got.outcomes);
      EXPECT_TRUE(buffers_bit_equal(want.amps, got.amps));
      EXPECT_EQ(bits(want.norm), bits(got.norm));
    }
  }
}

// End-to-end: compiled QAOA pattern sampling.  The sampled readouts and
// the per-shot measurement outcome streams must be identical under every
// flavor — the property the shard merge layer relies on when a fleet
// mixes hosts.  The forced-scalar leg always runs, even on hosts with
// no vector unit.  The second input's peak register (15 wires: p = 2
// MaxCut on C14) lies above thr::kChunkCutoffDim, so its sweeps run
// chunked, and each flavor × thread count × precision must replay the
// scalar single-threaded tape at the same precision bit for bit.
TEST(SimdKernels, SampledStreamsIdenticalAcrossIsas) {
  IsaGuard guard;
  ThreadGuard thread_guard;
  Rng setup(5);
  const qaoa::Angles angles = qaoa::Angles::random(2, setup);
  const auto compile = [&](int n) {
    const auto cost = qaoa::CostHamiltonian::maxcut(cycle_graph(n));
    return std::make_shared<const mbqc::CompiledPattern>(
        core::compile_qaoa(cost, angles).pattern);
  };

  struct Leg {
    std::vector<std::uint64_t> xs;
    std::vector<std::vector<int>> outcomes;
    int peak_live = 0;
  };
  auto run_leg = [&](const std::shared_ptr<const mbqc::CompiledPattern>& cp,
                     const mbqc::ExecOptions& opts, SimdIsa isa,
                     std::uint64_t seed, int shots) {
    force_simd_isa(isa);
    Leg leg;
    mbqc::PatternExecutor exec(cp, opts);
    Rng rng(seed);
    for (int shot = 0; shot < shots; ++shot) {
      const auto sampled = exec.run_sample(rng);
      leg.xs.push_back(sampled.x);
      leg.outcomes.push_back(exec.last_outcomes());
      leg.peak_live = std::max(leg.peak_live, sampled.peak_live);
    }
    return leg;
  };

  const auto small = compile(6);
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    const Leg want = run_leg(small, {}, SimdIsa::Scalar, seed, 32);
    for (SimdIsa isa : supported_simd_isas()) {
      const Leg got = run_leg(small, {}, isa, seed, 32);
      SCOPED_TRACE(std::string("isa=") + isa_name(isa) +
                   " seed=" + std::to_string(seed));
      EXPECT_EQ(want.xs, got.xs);
      EXPECT_EQ(want.outcomes, got.outcomes);
    }
  }

  const auto large = compile(14);
  for (Precision prec : {Precision::F64, Precision::F32}) {
    mbqc::ExecOptions opts;
    opts.precision = prec;
    set_num_threads(1);
    const Leg want = run_leg(large, opts, SimdIsa::Scalar, 17, 2);
    ASSERT_GT(std::uint64_t{1} << want.peak_live, thr::kChunkCutoffDim);
    for (SimdIsa isa : supported_simd_isas()) {
      for (int threads : {1, 2, 3}) {
        if (isa == SimdIsa::Scalar && threads == 1) continue;
        set_num_threads(threads);
        const Leg got = run_leg(large, opts, isa, 17, 2);
        SCOPED_TRACE(std::string("n=14 isa=") + isa_name(isa) + " threads=" +
                     std::to_string(threads) + " " + precision_name(prec));
        EXPECT_EQ(want.xs, got.xs);
        EXPECT_EQ(want.outcomes, got.outcomes);
      }
    }
  }
}

TEST(SimdKernels, ParseSimdIsaRoundTripsAndRejectsGarbage) {
  EXPECT_EQ(parse_simd_isa("scalar"), SimdIsa::Scalar);
  EXPECT_EQ(parse_simd_isa("avx2"), SimdIsa::Avx2);
  EXPECT_EQ(parse_simd_isa("avx512"), SimdIsa::Avx512);
  EXPECT_EQ(parse_simd_isa("neon"), SimdIsa::Neon);
  for (SimdIsa isa :
       {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512, SimdIsa::Neon})
    EXPECT_EQ(parse_simd_isa(isa_name(isa)), isa);
  EXPECT_THROW(parse_simd_isa("sse9"), Error);
  EXPECT_THROW(parse_simd_isa("AVX2"), Error);  // names are lowercase
  EXPECT_THROW(parse_simd_isa(""), Error);
}

TEST(SimdKernels, EnvOverrideReadsAndValidatesMbqSimd) {
  const char* old = std::getenv("MBQ_SIMD");
  const std::string saved = old ? old : "";
  ::setenv("MBQ_SIMD", "scalar", 1);
  EXPECT_EQ(simd_env_override(), SimdIsa::Scalar);
  ::setenv("MBQ_SIMD", "auto", 1);
  EXPECT_EQ(simd_env_override(), std::nullopt);
  ::setenv("MBQ_SIMD", "", 1);
  EXPECT_EQ(simd_env_override(), std::nullopt);
  ::setenv("MBQ_SIMD", "altivec", 1);
  EXPECT_THROW(simd_env_override(), Error);
  ::unsetenv("MBQ_SIMD");
  EXPECT_EQ(simd_env_override(), std::nullopt);
  if (old)
    ::setenv("MBQ_SIMD", saved.c_str(), 1);
}

// --- ranged chunk-driver entries ---------------------------------------
// The three *_range entries exist solely for the chunked drivers; they
// get the same treatment as every other table slot: randomized
// ISA-vs-scalar bitwise differentials, plus a scalar consistency check
// that concatenated slices reproduce the full pass.
TEST(SimdKernels, RandomizedRangedKernelsMatchScalarBitwise) {
  const CollapseKernels& s = scalar_kernels();
  Rng rng(20250809);
  for (SimdIsa isa : supported_simd_isas()) {
    const CollapseKernels& k = *kernels_for_isa(isa);
    for (int rep = 0; rep < 25; ++rep) {
      const int nq = 3 + rng.uniform_index(6);  // 8..256 amplitudes
      const std::uint64_t dim = std::uint64_t{1} << nq;
      const std::uint64_t ranks = dim / 2;
      const auto x = random_amps(rng, dim);
      const cplx e0 = random_eff(rng, rng.uniform_index(3));
      const cplx e1 = random_eff(rng, rng.uniform_index(3));
      const double sc = rng.uniform() + 0.25;
      const double g = random_gain(rng);
      // A third of the reps measure position 0 or 1, the J-step shape the
      // vector flavors gather below one register.
      const bool narrow = rep % 3 == 0;
      const int q = static_cast<int>(
          rng.uniform_index(narrow ? 2 : static_cast<std::uint64_t>(nq)));
      // teleport pmask keeps only bits above the measured wire.
      const std::uint64_t pmask =
          rng.uniform_index(dim) & ~((std::uint64_t{2} << q) - 1);

      // teleport_collapse_range: identical slice writes and STORED folds.
      std::uint64_t r0 = rng.uniform_index(ranks);
      std::uint64_t r1 = r0 + 1 + rng.uniform_index(ranks - r0);
      if (narrow && rep % 2 == 0 && ranks >= 8) {
        // Whole 8-rank blocks: the vector gather itself, not its scalar
        // delegation for off-quantum slices, meets the random bounds.
        r0 &= ~std::uint64_t{7};
        r1 = std::max(r0 + 8, r1 & ~std::uint64_t{7});
      }
      auto oa = random_amps(rng, dim);
      auto ob = oa;
      double la = 0, ha = 0, lb = 1, hb = 1;  // differing seeds: must be stored
      s.teleport_collapse_range(x.data(), oa.data(), dim, q, pmask, e0, e1,
                                g, sc, r0, r1, &la, &ha);
      k.teleport_collapse_range(x.data(), ob.data(), dim, q, pmask, e0, e1,
                                g, sc, r0, r1, &lb, &hb);
      EXPECT_TRUE(buffers_bit_equal(oa, ob));
      EXPECT_PRED2(same_fold, la, lb);
      EXPECT_PRED2(same_fold, ha, hb);

      // Scalar consistency: two covering slices == the full pass.
      std::vector<cplx> full(dim), sliced(dim);
      s.teleport_collapse(x.data(), full.data(), dim, q, pmask, e0, e1, g,
                          sc);
      const std::uint64_t mid = ranks / 2;
      double f0, f1, f2, f3;
      s.teleport_collapse_range(x.data(), sliced.data(), dim, q, pmask, e0,
                                e1, g, sc, 0, mid, &f0, &f1);
      s.teleport_collapse_range(x.data(), sliced.data(), dim, q, pmask, e0,
                                e1, g, sc, mid, ranks, &f2, &f3);
      EXPECT_TRUE(buffers_bit_equal(full, sliced));

      // mirror_cz_range (the upper half of add_wire_plus_cz, the lower
      // half already scaled by the caller).
      auto ga = random_amps(rng, 2 * dim);
      auto gb = ga;
      const std::uint64_t i0 = rng.uniform_index(dim);
      const std::uint64_t i1 = i0 + 1 + rng.uniform_index(dim - i0);
      const std::uint64_t gmask = rng.uniform_index(dim);
      s.mirror_cz_range(ga.data(), dim, i0, i1, gmask);
      k.mirror_cz_range(gb.data(), dim, i0, i1, gmask);
      EXPECT_TRUE(buffers_bit_equal(ga, gb));

      // pauli_swap_range over pair ranks of the top xmask bit.
      const std::uint64_t xmask = std::uint64_t{1} << rng.uniform_index(nq);
      const std::uint64_t zmask = rng.uniform_index(dim);
      const std::uint64_t eq = rng.uniform_index(dim);
      const bool neg = rng.uniform_index(2) != 0;
      const std::uint64_t p0 = rng.uniform_index(ranks);
      const std::uint64_t p1 = p0 + 1 + rng.uniform_index(ranks - p0);
      auto pa = x, pb = x;
      s.pauli_swap_range(pa.data(), xmask, zmask, eq, neg, p0, p1);
      k.pauli_swap_range(pb.data(), xmask, zmask, eq, neg, p0, p1);
      EXPECT_TRUE(buffers_bit_equal(pa, pb));

      // Scalar consistency: covering rank slices == the full pass.
      auto pf = x, ps = x;
      s.pauli_swap_pass(pf.data(), dim, xmask, zmask, eq, neg);
      s.pauli_swap_range(ps.data(), xmask, zmask, eq, neg, 0, mid);
      s.pauli_swap_range(ps.data(), xmask, zmask, eq, neg, mid, ranks);
      EXPECT_TRUE(buffers_bit_equal(pf, ps));
    }
  }
}

// --- chunked / threaded drivers ----------------------------------------

// Every thr:: driver at the chunk cutoff, for every host flavor, at
// thread counts {1, 2, 3, 8}: bit-identical to the scalar
// single-threaded leg.  The fused *_with_total drivers also run at half
// and twice the cutoff, and their totals must equal the unfused folds.
// Of the drivers that read a pending gain, prep_total_fold runs with
// g = 1 and a random g, the gadget with the random g (the register the
// interpreted prep writes from the settled x·g must fold to the same total)
// and the teleport alternating the two.  This is the thread sweep the
// dispatch-time driver battery, which runs on one thread, leaves out.
TEST(SimdKernels, ChunkedDriversBitIdenticalAcrossThreadCounts) {
  // The budget caps every team: raise it so t = 8 really runs 8 threads.
  ThreadGuard guard;
  set_num_threads(8);
  // Strides and mask bits sit around the chunk boundary: L - 1 inside a
  // chunk, L the lowest chunk-index bit, L + 1 above it.
  constexpr int L = std::countr_zero(thr::kChunkAmps);
  constexpr std::uint64_t dim = thr::kChunkCutoffDim;
  Rng rng(77);
  const auto x = random_amps(rng, 4 * dim);  // 2·dim pairs at the top size
  const std::vector<cplx> x2(x.begin(), x.begin() + 2 * dim);
  const cplx e0{0.6, -0.8}, e1{0.0, 0.7071067811865476};
  const double sc = 0.8125;
  const double gains[] = {1.0, 0.5 + 1.5 * rng.uniform()};
  const std::uint64_t pmask = 0x2BULL | (0x5ULL << (L - 1));
  const std::uint64_t cz_masks[3] = {0x3, (1ULL << L) | 0x18, 1ULL << (L - 1)};

  struct Results {
    std::vector<double> folds;
    std::vector<cplx> amps;
  };
  auto run = [&](const CollapseKernels& k, int t) {
    Results r;
    r.folds.push_back(thr::fold_norms(k, x.data(), 2 * dim, t));
    double totals[2];  // the doubled register's, per gain
    for (int gi = 0; gi < 2; ++gi) {
      totals[gi] = thr::prep_total_fold(k, x.data(), dim, gains[gi], sc, t);
      r.folds.push_back(totals[gi]);
    }

    auto sca = x2;
    thr::scale(k, sca.data(), 2 * dim, sc, t);
    r.amps.insert(r.amps.end(), sca.begin(), sca.end());

    // Every size the cutoff splits; at half of it only the doubled
    // register's total is chunked.
    for (const std::uint64_t d : {dim / 2, dim, 2 * dim}) {
      SCOPED_TRACE("d=" + std::to_string(d));
      std::vector<cplx> out(d);
      for (int q : {0, L, L + 1}) {  // stride < C, == C, > C
        const auto f = thr::collapse_pairs_with_total(k, x.data(), out.data(),
                                                      d, q, e0, e1, t);
        EXPECT_PRED2(same_fold, f.total,
                     thr::fold_norms(k, x.data(), 2 * d, t))
            << "q=" << q;
        r.folds.push_back(f.total);
        r.folds.push_back(f.proj);
        r.amps.insert(r.amps.end(), out.begin(), out.end());
      }

      const auto fp = thr::prep_collapse_with_total(
          k, x.data(), out.data(), d, pmask, e0, e1, gains[1], sc, t);
      std::vector<cplx> gad(x.begin(), x.begin() + 2 * d);
      thr::scale(k, gad.data(), d, gains[1], t);  // settle the gain
      thr::add_plus_cz(k, gad.data(), d, pmask, sc, t);
      EXPECT_PRED2(same_fold, fp.total,
                   thr::prep_total_fold(k, x.data(), d, gains[1], sc, t));
      EXPECT_PRED2(same_fold, fp.total,
                   thr::fold_norms(k, gad.data(), 2 * d, t));
      r.folds.push_back(fp.total);
      r.folds.push_back(fp.proj);
      r.amps.insert(r.amps.end(), out.begin(), out.end());
      r.amps.insert(r.amps.end(), gad.begin(), gad.end());
    }

    // The teleport at the J-step shapes, position 0 and the top position
    // (13), plus 1 and 2 (below one register) and the chunk stride L,
    // alternating the gains.  The fused Born total must equal
    // prep_total_fold's.
    std::vector<cplx> out(dim), folded(dim);
    int leg = 0;
    for (int q : {0, 1, 2, L, std::countr_zero(dim) - 1}) {
      SCOPED_TRACE("teleport q=" + std::to_string(q));
      const int gi = leg++ % 2;
      const std::uint64_t tp = (pmask & ~((std::uint64_t{2} << q) - 1)) |
                               (std::uint64_t{1} << q);
      const double f = thr::teleport_collapse_fold(
          k, x.data(), folded.data(), dim, q, tp, e0, e1, gains[gi], sc, t);
      const auto w = thr::teleport_collapse_with_total(
          k, x.data(), out.data(), dim, q, tp, e0, e1, gains[gi], sc, t);
      EXPECT_PRED2(same_fold, w.total, totals[gi]);
      EXPECT_PRED2(same_fold, w.proj, f);
      EXPECT_TRUE(buffers_bit_equal(folded, out));
      r.folds.push_back(w.total);
      r.folds.push_back(w.proj);
      r.amps.insert(r.amps.end(), out.begin(), out.end());
    }

    auto p = x2;
    thr::sign_pass(k, p.data(), 2 * dim, (1ULL << L) | 0x6,
                   (1ULL << (L - 1)) | 0x5, true, t);
    thr::cz_masks_pass(k, p.data(), 2 * dim, cz_masks, 3, t);
    thr::pauli_swap_pass(k, p.data(), 2 * dim, 1ULL << L, pmask,
                         (1ULL << (L + 1)) | 0x3, false, t);
    r.amps.insert(r.amps.end(), p.begin(), p.end());
    return r;
  };

  const Results want = run(scalar_kernels(), 1);
  for (SimdIsa isa : supported_simd_isas()) {
    const CollapseKernels& k = *kernels_for_isa(isa);
    for (int t : {1, 2, 3, 8}) {
      SCOPED_TRACE(std::string("isa=") + isa_name(isa) +
                   " threads=" + std::to_string(t));
      const Results got = run(k, t);
      ASSERT_EQ(want.folds.size(), got.folds.size());
      for (std::size_t i = 0; i < want.folds.size(); ++i)
        EXPECT_PRED2(same_fold, want.folds[i], got.folds[i]) << "fold " << i;
      EXPECT_TRUE(buffers_bit_equal(want.amps, got.amps));
    }
  }
}

// --- the other outcome's projection fold ------------------------------------
// A sampled fused measure projects the outcome its early draw guesses
// and reads the other outcome's fold off the same pass
// (DynamicStatevector::prep_cz_measure, prep_cz_teleport_measure).  Both
// identities, bit for bit, on every host flavor at threads {1, 2, 3, 8},
// in f64 and f32:
//  * J step, XY or X basis with the measured position q among the
//    partners: the teleport partials combined upper half first
//    (TeleportFolds::swapped) equal teleport_collapse_fold under the
//    other outcome's effects, on chunked registers, for q at 0, 1, 2,
//    top − 1 and top and partner masks with and without bits below q;
//  * gadget, YZ or Z basis: the projection folds under outcome 0's and
//    outcome 1's effects are equal, from 2^3 to 2^16 amplitudes.

template <class R>
const CollapseKernelsT<R>& flavor_kernels(SimdIsa isa) {
  if constexpr (std::is_same_v<R, double>)
    return *kernels_for_isa(isa);
  else
    return *kernels_for_isa_f32(isa);
}

template <class R>
bool same_r(R a, R b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The effect <b_m| of row `row` in the register's element type.
template <class R>
std::complex<R> effect(const Matrix& basis, int row, int m) {
  const cplx e = std::conj(basis(row, m));
  return {static_cast<R>(e.real()), static_cast<R>(e.imag())};
}

template <class R>
void check_other_outcome_folds() {
  using C = std::complex<R>;
  Rng rng(sizeof(R) == 8 ? 2024 : 2025);
  const R s = static_cast<R>(1.0 / std::sqrt(2.0));
  const auto amps = [&](std::uint64_t n) {
    std::vector<C> v(n);
    for (auto& a : v)
      a = {static_cast<R>(rng.uniform() * 2.0 - 1.0),
           static_cast<R>(rng.uniform() * 2.0 - 1.0)};
    return v;
  };
  int checks = 0;

  for (const int nq : {14, 15, 16}) {
    const std::uint64_t dim = std::uint64_t{1} << nq;
    ASSERT_TRUE(thr::chunked(dim));
    const auto x = amps(dim);
    std::vector<C> out(dim), other(dim);
    for (const int q : {0, 1, 2, nq - 2, nq - 1}) {
      const std::uint64_t qbit = std::uint64_t{1} << q;
      const std::uint64_t above = ~((qbit << 1) - 1);
      for (const std::uint64_t pm :
           {(rng.uniform_index(dim) & above) | qbit,
            rng.uniform_index(dim) | qbit | (q > 0 ? 1 : 0)}) {
        const Matrix basis =
            q % 2 == 0 ? measurement_basis(MeasBasis::XY, rng.angle())
                       : measurement_basis(MeasBasis::X, 0.0);
        const R g = static_cast<R>(random_gain(rng));
        for (SimdIsa isa : supported_simd_isas()) {
          const CollapseKernelsT<R>& k = flavor_kernels<R>(isa);
          for (int t : {1, 2, 3, 8}) {
            SCOPED_TRACE(std::string("isa=") + isa_name(isa) + " t=" +
                         std::to_string(t) + " dim=2^" + std::to_string(nq) +
                         " q=" + std::to_string(q) +
                         " pmask=" + std::to_string(pm));
            for (int m : {0, 1}) {
              const auto w = thr::teleport_collapse_with_total(
                  k, x.data(), out.data(), dim, q, pm, effect<R>(basis, 0, m),
                  effect<R>(basis, 1, m), g, s, t);
              const R f = thr::teleport_collapse_fold(
                  k, x.data(), other.data(), dim, q, pm,
                  effect<R>(basis, 0, 1 - m), effect<R>(basis, 1, 1 - m), g,
                  s, t);
              EXPECT_TRUE(same_r(w.swapped, f))
                  << "outcome " << m << ": " << w.swapped << " vs " << f;
              ++checks;
            }
          }
        }
      }
    }
  }

  for (int nq = 3; nq <= 16; ++nq) {
    const std::uint64_t dim = std::uint64_t{1} << nq;
    const auto x = amps(dim);
    std::vector<C> out(dim);
    for (int b = 0; b < 3; ++b) {
      const Matrix basis = b < 2 ? measurement_basis(MeasBasis::YZ, rng.angle())
                                 : measurement_basis(MeasBasis::Z, 0.0);
      const std::uint64_t pm = rng.uniform_index(dim);
      const R g = static_cast<R>(random_gain(rng));
      for (SimdIsa isa : supported_simd_isas()) {
        const CollapseKernelsT<R>& k = flavor_kernels<R>(isa);
        for (int t : {1, 2, 3, 8}) {
          SCOPED_TRACE(std::string("isa=") + isa_name(isa) + " t=" +
                       std::to_string(t) + " gadget dim=2^" +
                       std::to_string(nq) + " basis " + std::to_string(b));
          R folds[2];
          for (int m : {0, 1})
            folds[m] = thr::prep_collapse_with_total(
                           k, x.data(), out.data(), dim, pm,
                           effect<R>(basis, 0, m), effect<R>(basis, 1, m), g,
                           s, t)
                           .proj;
          EXPECT_TRUE(same_r(folds[0], folds[1]))
              << folds[0] << " vs " << folds[1];
          ++checks;
        }
      }
    }
  }
  EXPECT_GT(checks, 0);
}

TEST(SimdKernels, OtherOutcomeFoldComesFromTheSamePass) {
  ThreadGuard guard;
  set_num_threads(8);  // the budget caps every team
  check_other_outcome_folds<double>();
  check_other_outcome_folds<float>();
}

// A DynamicStatevector register ABOVE the chunk cutoff (15 wires =
// 2^15 amplitudes), driven through every fused measure path, swept over
// ISA flavors AND kernel thread counts: outcome streams, amplitudes and
// the norm must all match the scalar single-threaded leg bit-for-bit —
// the large-n face of the determinism contract.
ScriptResult run_big_script(SimdIsa isa, int threads, std::uint64_t seed) {
  force_simd_isa(isa);
  set_num_threads(threads);
  DynamicStatevector dsv;
  Rng rng(seed);
  for (int w = 0; w < 15; ++w) dsv.add_wire(w);
  const std::uint64_t cz_masks[2] = {(1ULL << 14) | 0x3, 0b110000};
  dsv.apply_cz_masks(cz_masks, 2);
  dsv.apply_1q(5, gates::rz(0.37));
  dsv.apply_1q(13, gates::rz(-1.1));
  dsv.apply_pauli_masks(1ULL << 3, 1ULL << 9, false);
  ScriptResult r;
  r.outcomes.push_back(dsv.prep_cz_measure(
      15, 0b101000000000101, measurement_basis(MeasBasis::XY, 0.3), rng));
  r.outcomes.push_back(dsv.prep_cz_teleport_measure(
      16, 0b1000000000010, 4, measurement_basis(MeasBasis::YZ, 0.9), rng));
  dsv.apply_h(2);
  r.outcomes.push_back(
      dsv.measure_remove(2, measurement_basis(MeasBasis::X, 0.0), rng));
  r.outcomes.push_back(
      dsv.measure_remove(7, measurement_basis(MeasBasis::XY, -0.4), rng));
  dsv.normalize();
  r.amps = dsv.state_in_order(dsv.wire_order());
  r.norm = dsv.norm();
  return r;
}

TEST(SimdKernels, LargeRegisterBitIdenticalAcrossThreadsAndIsas) {
  IsaGuard isa_guard;
  ThreadGuard thread_guard;
  const ScriptResult want = run_big_script(SimdIsa::Scalar, 1, 99);
  for (SimdIsa isa : supported_simd_isas()) {
    for (int t : {1, 2, 8}) {
      const ScriptResult got = run_big_script(isa, t, 99);
      SCOPED_TRACE(std::string("isa=") + isa_name(isa) +
                   " threads=" + std::to_string(t));
      EXPECT_EQ(want.outcomes, got.outcomes);
      EXPECT_TRUE(buffers_bit_equal(want.amps, got.amps));
      EXPECT_EQ(bits(want.norm), bits(got.norm));
    }
  }
}

TEST(SimdKernels, ForcingAnUnavailableFlavorIsRejectedAtDispatch) {
  IsaGuard guard;
  for (SimdIsa isa :
       {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512, SimdIsa::Neon}) {
    if (kernels_for_isa(isa) == nullptr) {
      EXPECT_THROW(force_simd_isa(isa), Error) << isa_name(isa);
    } else {
      force_simd_isa(isa);
      EXPECT_EQ(active_simd_isa(), isa);
      EXPECT_EQ(kernels().isa, isa);
    }
  }
}

}  // namespace
}  // namespace mbq

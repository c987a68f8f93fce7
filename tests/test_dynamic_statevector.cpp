// Unit tests for the dynamic (qubit-reuse) statevector simulator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "mbq/common/parallel.h"
#include "mbq/common/rng.h"
#include "mbq/linalg/unitaries.h"
#include "mbq/sim/dynamic_statevector.h"
#include "mbq/sim/statevector.h"

namespace mbq {
namespace {

TEST(MeasurementBasis, Columns) {
  // XY(0) must be the X basis; YZ(0) the Z basis.
  EXPECT_TRUE(Matrix::approx_equal(measurement_basis(MeasBasis::XY, 0.0),
                                   measurement_basis(MeasBasis::X, 0.0)));
  EXPECT_TRUE(Matrix::approx_equal(measurement_basis(MeasBasis::YZ, 0.0),
                                   measurement_basis(MeasBasis::Z, 0.0)));
  for (real a : {0.3, -1.2, 2.9}) {
    EXPECT_TRUE(measurement_basis(MeasBasis::XY, a).is_unitary());
    EXPECT_TRUE(measurement_basis(MeasBasis::YZ, a).is_unitary());
  }
}

TEST(DynamicSv, AddWirePlusAndZero) {
  DynamicStatevector dsv;
  dsv.add_wire(10, true);
  dsv.add_wire(20, false);
  EXPECT_EQ(dsv.num_live(), 2);
  // State should be |0>_20 ⊗ |+>_10.
  const auto amps = dsv.state_in_order({10, 20});
  const real s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(amps[0] - cplx{s, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(amps[1] - cplx{s, 0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(amps[2]), 0.0, kTol);
  EXPECT_THROW(dsv.add_wire(10), Error);
}

TEST(DynamicSv, MatchesFixedSimulatorOnRandomCircuit) {
  Rng rng(5);
  DynamicStatevector dsv;
  Statevector sv(3);
  for (int q = 0; q < 3; ++q) {
    dsv.add_wire(q, true);
    sv.apply_h(q);
  }
  for (int step = 0; step < 30; ++step) {
    const int q = static_cast<int>(rng.uniform_index(3));
    switch (rng.uniform_index(4)) {
      case 0:
        dsv.apply_h(q);
        sv.apply_h(q);
        break;
      case 1: {
        const real t = rng.angle();
        dsv.apply_rz(q, t);
        sv.apply_rz(q, t);
        break;
      }
      case 2: {
        int r = static_cast<int>(rng.uniform_index(3));
        if (r == q) r = (r + 1) % 3;
        dsv.apply_cz(q, r);
        sv.apply_cz(q, r);
        break;
      }
      case 3:
        dsv.apply_x(q);
        sv.apply_x(q);
        break;
    }
  }
  EXPECT_NEAR(fidelity(dsv.state_in_order({0, 1, 2}), sv.amplitudes()), 1.0,
              kTol);
}

TEST(DynamicSv, MeasureRemoveZBasis) {
  // Bell pair; Z measurement of one half collapses the other.
  DynamicStatevector dsv;
  dsv.add_wire(0, true);
  dsv.add_wire(1, false);
  // CX(0 -> 1) built from H and CZ.
  dsv.apply_h(1);
  dsv.apply_cz(0, 1);
  dsv.apply_h(1);
  Rng rng(1);
  const Matrix zb = measurement_basis(MeasBasis::Z, 0.0);
  const int m = dsv.measure_remove(0, zb, rng);
  EXPECT_EQ(dsv.num_live(), 1);
  const auto amps = dsv.state_in_order({1});
  EXPECT_NEAR(std::abs(amps[m]), 1.0, kTol);  // perfectly correlated
  EXPECT_NEAR(std::abs(amps[1 - m]), 0.0, kTol);
}

TEST(DynamicSv, ForcedOutcomeZeroProbabilityThrows) {
  DynamicStatevector dsv;
  dsv.add_wire(0, false);  // |0>
  Rng rng(2);
  const Matrix zb = measurement_basis(MeasBasis::Z, 0.0);
  EXPECT_THROW(dsv.measure_remove(0, zb, rng, 1), Error);
}

TEST(DynamicSv, XYMeasurementProbabilities) {
  // On |0>, an XY(alpha) measurement is 50/50 for every alpha.
  for (real a : {0.0, 0.7, -2.1}) {
    DynamicStatevector dsv;
    dsv.add_wire(0, false);
    EXPECT_NEAR(dsv.prob_one(0, measurement_basis(MeasBasis::XY, a)), 0.5,
                kTol);
  }
  // On |+>, X measurement gives 0 with certainty.
  DynamicStatevector dsv;
  dsv.add_wire(0, true);
  EXPECT_NEAR(dsv.prob_one(0, measurement_basis(MeasBasis::X, 0.0)), 0.0,
              kTol);
}

TEST(DynamicSv, JGadgetTeleportation) {
  // The core MBQC step: wire v entangled to fresh ancilla by CZ, measure v
  // in XY(-alpha); outcome m yields X^m J(alpha) |psi> on the ancilla.
  Rng rng(7);
  for (int forced = 0; forced <= 1; ++forced) {
    const real alpha = 0.83;
    // Input |psi> = rz(0.4) H |0> on wire 0.
    DynamicStatevector dsv;
    dsv.add_wire(0, true);
    dsv.apply_rz(0, 0.4);
    dsv.add_wire(1, true);
    dsv.apply_cz(0, 1);
    const int m = dsv.measure_remove(
        0, measurement_basis(MeasBasis::XY, -alpha), rng, forced);
    ASSERT_EQ(m, forced);
    // Reference: X^m J(alpha) rz(0.4) |+>.
    std::vector<cplx> ref{1.0 / std::sqrt(2.0), 1.0 / std::sqrt(2.0)};
    ref = gates::rz(0.4) * ref;
    ref = gates::j(alpha) * ref;
    if (m) ref = gates::x() * ref;
    EXPECT_NEAR(fidelity(dsv.state_in_order({1}), ref), 1.0, kTol)
        << "branch " << forced;
  }
}

TEST(DynamicSv, YZGadgetPhase) {
  // Ancilla gadget: ancilla |+> CZ-coupled to wire, measured in YZ(theta)
  // implements exp(-i theta/2 Z) (outcome 0) or Z * that (outcome 1).
  Rng rng(8);
  for (int forced = 0; forced <= 1; ++forced) {
    const real theta = 1.1;
    DynamicStatevector dsv;
    dsv.add_wire(0, true);  // input |+>
    dsv.apply_rz(0, 0.9);   // arbitrary input state
    dsv.add_wire(5, true);  // ancilla
    dsv.apply_cz(0, 5);
    const int m = dsv.measure_remove(
        5, measurement_basis(MeasBasis::YZ, theta), rng, forced);
    ASSERT_EQ(m, forced);
    std::vector<cplx> ref{1.0 / std::sqrt(2.0), 1.0 / std::sqrt(2.0)};
    ref = gates::rz(0.9) * ref;
    ref = gates::exp_z(theta) * ref;
    if (m) ref = gates::z() * ref;
    EXPECT_NEAR(fidelity(dsv.state_in_order({0}), ref), 1.0, kTol)
        << "branch " << forced;
  }
}

TEST(DynamicSv, PeakLiveTracksHighWater) {
  DynamicStatevector dsv;
  Rng rng(3);
  dsv.add_wire(0, true);
  dsv.add_wire(1, true);
  dsv.add_wire(2, true);
  EXPECT_EQ(dsv.peak_live(), 3);
  dsv.measure_remove(1, measurement_basis(MeasBasis::X, 0.0), rng);
  EXPECT_EQ(dsv.num_live(), 2);
  dsv.add_wire(3, true);
  EXPECT_EQ(dsv.peak_live(), 3);  // never exceeded 3
  dsv.add_wire(4, true);
  EXPECT_EQ(dsv.peak_live(), 4);
}

TEST(DynamicSv, StateInOrderPermutes) {
  DynamicStatevector dsv;
  dsv.add_wire(7, false);
  dsv.apply_x(7);  // |1>_7
  dsv.add_wire(3, false);
  // Order {3, 7}: index bit0 = wire3, bit1 = wire7 -> state index 2.
  auto amps = dsv.state_in_order({3, 7});
  EXPECT_NEAR(std::abs(amps[2] - cplx{1, 0}), 0.0, kTol);
  // Order {7, 3}: index 1.
  amps = dsv.state_in_order({7, 3});
  EXPECT_NEAR(std::abs(amps[1] - cplx{1, 0}), 0.0, kTol);
  EXPECT_THROW(dsv.state_in_order({7}), Error);
}

TEST(DynamicSv, RzKernelBitIdenticalToApply1q) {
  // The dedicated diagonal-phase kernel must produce numerically
  // identical amplitudes to routing diag(1, e^{i t}) through the generic
  // 1q path (== comparison: exact values, tolerant of zero signs — the
  // generic path's 0·a cross terms may flip a zero's sign), while
  // keeping the norm fold usable where apply_1q must invalidate it.
  for (real theta : {0.37, -1.9, 3.14159, 0.0}) {
    DynamicStatevector a, b;
    for (DynamicStatevector* d : {&a, &b}) {
      d->add_wire(0);
      d->add_wire(1, false);
      d->add_wire(2);
      d->apply_h(1);
      d->apply_cz(0, 2);
      d->apply_rz(0, 0.6);
      d->normalize();  // establishes a valid running fold
    }
    ASSERT_TRUE(a.norm_fold_valid());
    a.apply_rz(1, theta);
    b.apply_1q(1, Matrix(2, 2, {1, 0, 0, std::exp(cplx{0.0, theta})}));
    EXPECT_TRUE(a.norm_fold_valid());
    EXPECT_FALSE(b.norm_fold_valid());
    const auto wa = a.state_in_order({0, 1, 2});
    const auto wb = b.state_in_order({0, 1, 2});
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i) {
      ASSERT_EQ(wa[i].real(), wb[i].real()) << "theta " << theta << " i " << i;
      ASSERT_EQ(wa[i].imag(), wb[i].imag()) << "theta " << theta << " i " << i;
    }
  }
}

TEST(DynamicSv, ZeroStateThresholdConstantsArePinned) {
  // The three guards have distinct units and deliberately distinct
  // scales; pin them so a refactor can't silently collapse them back
  // into one magic number.
  EXPECT_EQ(DynamicStatevector::kMinAddWireNorm, 1e-12);
  EXPECT_EQ(DynamicStatevector::kMinBornNorm2, 1e-14);
  EXPECT_EQ(DynamicStatevector::kMinProjectionNorm2, 1e-18);
}

TEST(DynamicSv, AddWireStateNormBoundary) {
  // |a| just above kMinAddWireNorm is accepted (and renormalized to a
  // clean unit state); just below is rejected.
  DynamicStatevector ok;
  ok.add_wire_state(0, cplx{2e-12, 0.0}, cplx{0.0, 0.0});
  EXPECT_NEAR(std::abs(ok.state_in_order({0})[0] - cplx{1, 0}), 0.0, kTol);

  DynamicStatevector bad;
  EXPECT_THROW(bad.add_wire_state(0, cplx{0.5e-12, 0.0}, cplx{0.0, 0.0}),
               Error);
}

TEST(DynamicSv, NormalizeBornNormBoundary) {
  // normalize() gates on the SQUARED norm: |psi|^2 = 4e-14 > kMinBornNorm2
  // passes (and leaves a valid fold), 2.5e-15 < kMinBornNorm2 throws.
  DynamicStatevector ok;
  ok.add_wire(0, false);
  ok.apply_1q(0, Matrix(2, 2, {2e-7, 0, 0, 0}));
  ok.normalize();
  EXPECT_TRUE(ok.norm_fold_valid());
  EXPECT_NEAR(ok.norm(), 1.0, kTol);

  DynamicStatevector bad;
  bad.add_wire(0, false);
  bad.apply_1q(0, Matrix(2, 2, {0.5e-7, 0, 0, 0}));
  EXPECT_THROW(bad.normalize(), Error);
}

TEST(DynamicSv, ProjectionNormBoundary) {
  // A forced outcome whose projection lands just above
  // kMinProjectionNorm2 (4e-18) is rescued by renormalization; just
  // below (2.5e-19) is rejected as numerically meaningless.
  Rng rng(1);
  DynamicStatevector ok;
  ok.add_wire(0, false);
  ok.apply_1q(0, Matrix(2, 2, {1, 0, 2e-9, 0}));
  EXPECT_EQ(
      ok.measure_remove(0, measurement_basis(MeasBasis::Z, 0.0), rng, 1), 1);

  DynamicStatevector bad;
  bad.add_wire(0, false);
  bad.apply_1q(0, Matrix(2, 2, {1, 0, 0.5e-9, 0}));
  EXPECT_THROW(
      bad.measure_remove(0, measurement_basis(MeasBasis::Z, 0.0), rng, 1),
      Error);
}

// --- deferred renormalization ---------------------------------------------
// A fused measure leaves its collapsed state unnormalized with the gain
// pending.  Every reader must see, and every mutator must start from,
// exactly the register the primitive chain (add_wire, apply_cz...,
// measure_remove) leaves: amplitudes, outcomes and the norm fold bit for
// bit, at both precisions, sampled and forced, below and above the chunk
// cutoff.

bool same_bits(real a, real b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

/// Amplitudes, live layout and the norm fold (value and validity).
void expect_same_register(const DynamicStatevector& fused,
                          const DynamicStatevector& chain) {
  ASSERT_EQ(fused.wire_order(), chain.wire_order());
  EXPECT_TRUE(same_bits(fused.state_in_order(fused.wire_order()),
                        chain.state_in_order(chain.wire_order())));
  EXPECT_EQ(fused.norm_fold_valid(), chain.norm_fold_valid());
  EXPECT_TRUE(same_bits(fused.norm_fold(), chain.norm_fold()));
}

/// Every public reader on the registers as they stand, then every
/// mutator on copies of each.
void expect_same_after_every_call(const DynamicStatevector& fused,
                                  const DynamicStatevector& chain,
                                  std::uint64_t seed) {
  const std::vector<int> wires = chain.wire_order();
  ASSERT_EQ(fused.wire_order(), wires);
  EXPECT_FALSE(fused.norm_fold_valid()) << "no gain pending";
  EXPECT_TRUE(same_bits(fused.state_in_order(wires),
                        chain.state_in_order(wires)));
  for (const real u : {0.13, 0.5, 0.97})
    EXPECT_EQ(fused.sample_in_order(wires, u), chain.sample_in_order(wires, u));
  EXPECT_TRUE(same_bits(fused.norm(), chain.norm()));
  const Matrix xy = measurement_basis(MeasBasis::XY, 0.41);
  for (const int w : {wires.front(), wires.back()})
    EXPECT_TRUE(same_bits(fused.prob_one(w, xy), chain.prob_one(w, xy)));
  std::vector<real> diag(chain.dim());
  for (std::size_t x = 0; x < diag.size(); ++x)
    diag[x] = std::cos(0.37 * static_cast<real>(x));
  DynamicStatevector::GatherTable table;
  chain.fill_gather_table(wires, table);
  EXPECT_TRUE(same_bits(fused.expectation_in_order(table, diag, 5),
                        chain.expectation_in_order(table, diag, 5)));

  const auto mutated = [&](const std::string& what, auto&& op) {
    SCOPED_TRACE(what);
    DynamicStatevector a = fused, b = chain;
    Rng ra(seed), rb(seed);
    EXPECT_EQ(op(a, ra), op(b, rb));
    expect_same_register(a, b);
  };
  const std::uint64_t top = std::uint64_t{1} << (wires.size() - 1);
  mutated("measure_remove", [&](DynamicStatevector& d, Rng& rng) {
    return d.measure_remove(wires[1], xy, rng);
  });
  mutated("add_wire", [](DynamicStatevector& d, Rng&) {
    d.add_wire(99);
    return 0;
  });
  mutated("apply_cz_masks", [&](DynamicStatevector& d, Rng&) {
    const std::uint64_t masks[2] = {0b11, top | 0b100};
    d.apply_cz_masks(masks, 2);
    return 0;
  });
  mutated("apply_pauli_masks (swap)", [&](DynamicStatevector& d, Rng&) {
    d.apply_pauli_masks(0b10, top | 0b1, true);
    return 0;
  });
  mutated("apply_pauli_masks (sign)", [&](DynamicStatevector& d, Rng&) {
    d.apply_pauli_masks(0, top | 0b110, false);
    return 0;
  });
  mutated("normalize", [](DynamicStatevector& d, Rng&) {
    d.normalize();
    return 0;
  });
}

/// Restores the thread budget no matter how a test exits.
struct ThreadGuard {
  int saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

/// n wires in a chain of CZs with a phase, normalized.  Each wire starts
/// in its own real superposition rather than |+>, so Z parities are
/// biased and a measurement that is not a fair coin is far from one,
/// and Born probabilities are not exact binary fractions.
DynamicStatevector chain_register(Precision prec, int n, real phase = 0.7) {
  DynamicStatevector d(prec);
  for (int w = 0; w < n; ++w) {
    const real t = 0.45 + 0.11 * w + 0.05 * phase;
    d.add_wire_state(w, std::cos(t), std::sin(t));
  }
  for (int w = 0; w + 1 < n; ++w) d.apply_cz(w, w + 1);
  d.apply_rz(2, phase);
  d.normalize();
  return d;
}

/// Fused op shapes, each beside the primitive chain it replaces: a
/// gadget with partners at positions 0, 2 and the top; J steps
/// measuring position 0 or the top position, whose fresh wire's partner
/// is the measured wire (the QAOA tapes' three shapes, in YZ and XY
/// bases); and a teleport measuring position 0 whose fresh wire's
/// partner is position 1, which must keep the project-outcome-1 path.
enum class OpShape { Gadget, JStepLow, JStepTop, Teleport };

int run_fused(OpShape shape, DynamicStatevector& d, int fresh,
              const Matrix& basis, Rng& rng, int forced = -1) {
  const std::size_t live = d.wire_order().size();
  switch (shape) {
    case OpShape::Gadget:
      return d.prep_cz_measure(fresh, 0b101 | (std::uint64_t{1} << (live - 1)),
                               basis, rng, forced);
    case OpShape::Teleport:
      return d.prep_cz_teleport_measure(fresh, 0b10, d.wire_order()[0], basis,
                                        rng, forced);
    default: {
      const std::size_t q = shape == OpShape::JStepLow ? 0 : live - 1;
      return d.prep_cz_teleport_measure(fresh, std::uint64_t{1} << q,
                                        d.wire_order()[q], basis, rng, forced);
    }
  }
}

int run_chain(OpShape shape, DynamicStatevector& d, int fresh,
              const Matrix& basis, Rng& rng, int forced = -1) {
  const std::vector<int> order = d.wire_order();
  d.add_wire(fresh);
  switch (shape) {
    case OpShape::Gadget:
      for (const int p : {order[0], order[2], order.back()})
        d.apply_cz(fresh, p);
      return d.measure_remove(fresh, basis, rng, forced);
    case OpShape::Teleport:
      d.apply_cz(fresh, order[1]);
      return d.measure_remove(order[0], basis, rng, forced);
    default: {
      const int meas =
          shape == OpShape::JStepLow ? order.front() : order.back();
      d.apply_cz(fresh, meas);
      return d.measure_remove(meas, basis, rng, forced);
    }
  }
}

const char* shape_name(OpShape shape) {
  switch (shape) {
    case OpShape::Gadget: return "gadget";
    case OpShape::JStepLow: return "J step at position 0";
    case OpShape::JStepTop: return "J step at the top";
    default: return "teleport with another partner";
  }
}

/// After one op on each: the same register, the same next draw, and —
/// once a CZ run settles the fused register's pending gain — the same
/// norm fold.
void expect_same_after_op(DynamicStatevector& fused, DynamicStatevector& chain,
                          Rng& rf, Rng& rc) {
  EXPECT_EQ(rf.next(), rc.next());
  const std::vector<int> wires = chain.wire_order();
  ASSERT_EQ(fused.wire_order(), wires);
  EXPECT_TRUE(same_bits(fused.state_in_order(wires),
                        chain.state_in_order(wires)));
  const std::uint64_t mask[1] = {0b11};
  fused.apply_cz_masks(mask, 1);
  chain.apply_cz_masks(mask, 1);
  expect_same_register(fused, chain);
}

TEST(DynamicSv, PendingGainMatchesPrimitiveChainBitForBit) {
  // Gadgets and J-step teleports alternate, so each fused op also reads
  // the gain its predecessor left.  Teleports measure position 0 and the
  // top position, the two J-step shapes of the bench families.  One
  // kernel thread: the chunk decomposition does not depend on it
  // (test_simd_kernels sweeps thread counts), and a team per op would
  // make this test slow whenever other processes hold the cores.
  ThreadGuard guard;
  set_num_threads(1);
  const Matrix yz = measurement_basis(MeasBasis::YZ, 0.9);
  const Matrix xy = measurement_basis(MeasBasis::XY, -0.6);
  for (const Precision prec : {Precision::F64, Precision::F32}) {
    for (const int n : {5, 13, 14, 15}) {  // 13–15: across the chunk cutoff
      for (const int forced : {-1, 0, 1}) {
        SCOPED_TRACE(std::string(precision_name(prec)) + " n=" +
                     std::to_string(n) + " forced=" + std::to_string(forced));
        DynamicStatevector chain = chain_register(prec, n);
        DynamicStatevector fused = chain;
        Rng rf(17), rc(17);
        int next = n;
        for (int step = 0; step < 6; ++step) {
          SCOPED_TRACE("step " + std::to_string(step));
          const OpShape shape = step % 2 == 0   ? OpShape::Gadget
                                : step % 4 == 1 ? OpShape::JStepLow
                                                : OpShape::JStepTop;
          const Matrix& basis = shape == OpShape::Gadget ? yz : xy;
          const int got = run_fused(shape, fused, next, basis, rf, forced);
          const int want = run_chain(shape, chain, next, basis, rc, forced);
          ++next;
          ASSERT_EQ(got, want);
          expect_same_after_every_call(fused, chain, 31 + step);
        }
      }
    }
  }

  // Each op shape from one pending-gain state under 200 generators, so
  // the draw-first path projects both guesses on chunked registers.  An
  // XY gadget and the other-partner teleport do not know the other
  // outcome's fold and must project outcome 1 first.
  struct Leg {
    OpShape shape;
    const Matrix& basis;
  };
  const Leg legs[] = {{OpShape::Gadget, yz},   {OpShape::JStepLow, xy},
                      {OpShape::JStepTop, xy}, {OpShape::Gadget, xy},
                      {OpShape::Teleport, xy}};
  for (const Precision prec : {Precision::F64, Precision::F32}) {
    for (const int n : {14, 15}) {
      DynamicStatevector chain = chain_register(prec, n);
      DynamicStatevector fused = chain;
      Rng rf(3), rc(3);
      ASSERT_EQ(run_fused(OpShape::Gadget, fused, n, yz, rf, 1),
                run_chain(OpShape::Gadget, chain, n, yz, rc, 1));
      for (const auto& [shape, basis] : legs) {
        const std::string leg = std::string(shape_name(shape)) +
                                (&basis == &yz ? " (YZ)" : " (XY)");
        int seen[2] = {0, 0};
        DynamicStatevector f(prec), c(prec);  // reused: no 1 MiB churn
        for (std::uint64_t seed = 0; seed < 200; ++seed) {
          SCOPED_TRACE(std::string(precision_name(prec)) + " n=" +
                       std::to_string(n) + " " + leg +
                       " seed=" + std::to_string(seed));
          f = fused;
          c = chain;
          Rng sf(seed), sc(seed);
          const int got = run_fused(shape, f, n + 1, basis, sf);
          ASSERT_EQ(got, run_chain(shape, c, n + 1, basis, sc));
          expect_same_after_op(f, c, sf, sc);
          ++seen[got];
        }
        EXPECT_GT(seen[0], 0) << leg;
        EXPECT_GT(seen[1], 0) << leg;
      }
    }
  }
}

// --- the early draw ----------------------------------------------------------

TEST(DynamicSv, EarlyDrawResolvesExactlyAsBernoulli) {
  // The outcome and the generator's later stream, against bernoulli(p)
  // on the same generator, for p inside, at and outside [0, 1].
  const real tiny = std::nextafter(0.0, 1.0);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng probe(seed ^ 0xABCDu);
    for (const real p : {probe.uniform(), 0.5, 0.0, 1.0, -0.25, 1.5, tiny,
                         std::nextafter(1.0, 0.0)}) {
      Rng early(seed), plain(seed);
      const EarlyDraw draw = EarlyDraw::take(early);
      EXPECT_EQ(draw.resolve(p, early), plain.bernoulli(p) ? 1 : 0)
          << "p=" << p;
      EXPECT_EQ(early.next(), plain.next()) << "p=" << p;
    }
  }

  // Boundary uniforms, injected: `after` is the generator one draw on.
  const Rng before(41);
  Rng after = before;
  after.uniform();
  const auto outcome = [&](real p, real u, bool advanced) {
    Rng rng = before;
    const int o = EarlyDraw{after, u}.resolve(p, rng);
    Rng want = advanced ? after : before;
    EXPECT_EQ(rng.next(), want.next()) << "p=" << p << " u=" << u;
    return o;
  };
  for (const real p : {0.3, 0.5, 0.7}) {
    EXPECT_EQ(outcome(p, p, true), 0) << p;                       // u = p
    EXPECT_EQ(outcome(p, std::nextafter(p, 0.0), true), 1) << p;  // just below
  }
  // u = 1/2 guesses 0 and u just below guesses 1; a p on the other side
  // of u makes the guess wrong, which is when the measure re-projects.
  const real below = std::nextafter(0.5, 0.0);
  EXPECT_EQ((EarlyDraw{after, 0.5}.guess()), 0);
  EXPECT_EQ((EarlyDraw{after, below}.guess()), 1);
  EXPECT_EQ(outcome(0.5, 0.5, true), 0);                         // right
  EXPECT_EQ(outcome(std::nextafter(0.5, 1.0), 0.5, true), 1);    // wrong
  EXPECT_EQ(outcome(0.5, below, true), 1);                       // right
  EXPECT_EQ(outcome(below, below, true), 0);                     // wrong
  // p = 0 and p = 1 draw nothing: the generator stays where it was.
  for (const real u : {0.0, below, 0.5, 0.9})
    for (const real p : {0.0, 1.0})
      EXPECT_EQ(outcome(p, u, false), p == 1.0 ? 1 : 0) << "u=" << u;
}

/// A generator whose first uniform() is exactly u (a multiple of 2^-53
/// in [0, 1)): Rng(seed) seeds its state with splitmix64, and the first
/// draw is xoshiro256**'s output of the second state word, so both
/// steps are inverted here.
Rng rng_with_first_uniform(real u) {
  const auto inv_odd = [](std::uint64_t c) {
    std::uint64_t inv = c;  // Newton's iteration doubles the good bits
    for (int i = 0; i < 6; ++i) inv *= 2 - c * inv;
    return inv;
  };
  const auto unshift = [](std::uint64_t y, int k) {  // inverts z ^ (z >> k)
    std::uint64_t z = y;
    for (int i = 0; i < 64 / k + 1; ++i) z = y ^ (z >> k);
    return z;
  };
  const auto result = static_cast<std::uint64_t>(std::ldexp(u, 53)) << 11;
  const std::uint64_t t = result * inv_odd(9);
  const std::uint64_t s1 = ((t >> 7) | (t << 57)) * inv_odd(5);
  std::uint64_t z = unshift(s1, 31) * inv_odd(0x94D049BB133111EBULL);
  z = unshift(z, 27) * inv_odd(0xBF58476D1CE4E5B9ULL);
  const std::uint64_t seed = unshift(z, 30) - 2 * 0x9E3779B97F4A7C15ULL;
  return Rng(seed);
}

TEST(DynamicSv, BoundaryDrawsMatchPrimitiveChainBitForBit) {
  // Each op at the two uniforms that straddle its Born probability p:
  // the largest one below p (outcome 1) and the smallest at or above it
  // (outcome 0), found by bisection on the primitive chain, whose
  // measure_remove draws Rng::bernoulli(p).  The fused op must draw the
  // same outcomes there, so its p is the chain's to the last bit.  When
  // p sits a rounding off 1/2, one of the two makes the draw-first guess
  // wrong and the op re-projects.  Registers of 6 and 14 wires, so the
  // J steps take the draw-first path (chunked) once and the
  // project-outcome-1 path once; the XY gadget and the other-partner
  // teleport always take the latter.
  ThreadGuard guard;
  set_num_threads(1);
  int reprojected = 0;
  for (const Precision prec : {Precision::F64, Precision::F32}) {
    for (const int n : {6, 14}) {
      // Twelve states for the chunked J steps, whose two outcome folds
      // differ in their last bits in about a quarter of the draws (so
      // only the right one gives the chain's outcomes); four for the
      // rest.
      for (int state = 0; state < 12; ++state) {
        const DynamicStatevector base =
            chain_register(prec, n, 0.3 + 0.41 * state);
        const Matrix yz = measurement_basis(MeasBasis::YZ, 0.2 + 0.37 * state);
        const Matrix xy =
            measurement_basis(MeasBasis::XY, -0.5 + 0.29 * state);
        const struct {
          OpShape shape;
          const Matrix& basis;
          bool draw_first;
        } legs[] = {{OpShape::Gadget, yz, true},
                    {OpShape::JStepLow, xy, n == 14},
                    {OpShape::JStepTop, xy, n == 14},
                    {OpShape::Gadget, xy, false},
                    {OpShape::Teleport, xy, false}};
        for (const auto& [shape, basis, draw_first] : legs) {
          const bool jstep =
              shape == OpShape::JStepLow || shape == OpShape::JStepTop;
          if (state >= 4 && !(jstep && draw_first)) continue;
          const auto uniform = [](std::uint64_t k) {
            return std::ldexp(static_cast<real>(k), -53);
          };
          const auto chain_outcome = [&](std::uint64_t k) {
            DynamicStatevector c = base;
            Rng rng = rng_with_first_uniform(uniform(k));
            return run_chain(shape, c, n, basis, rng);
          };
          // The smallest k with k·2^-53 >= p: outcome 1 below it.
          std::uint64_t lo = 0, hi = std::uint64_t{1} << 53;
          while (hi - lo > 1) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            (chain_outcome(mid) == 0 ? hi : lo) = mid;
          }
          for (const std::uint64_t k : {lo, hi}) {
            const real u = uniform(k);
            SCOPED_TRACE(std::string(precision_name(prec)) + " n=" +
                         std::to_string(n) + " state " +
                         std::to_string(state) + " " + shape_name(shape) +
                         (&basis == &yz ? " (YZ)" : " (XY)") +
                         " u=" + std::to_string(u));
            ASSERT_EQ(rng_with_first_uniform(u).uniform(), u);
            DynamicStatevector f = base, c = base;
            Rng rf = rng_with_first_uniform(u), rc = rf;
            const int got = run_fused(shape, f, n, basis, rf);
            ASSERT_EQ(got, run_chain(shape, c, n, basis, rc));
            EXPECT_EQ(got, k == lo ? 1 : 0);
            expect_same_after_op(f, c, rf, rc);
            if (draw_first && got != (u < 0.5 ? 1 : 0)) ++reprojected;
          }
        }
      }
    }
  }
  EXPECT_GT(reprojected, 0) << "no draw-first op guessed wrong";
}

}  // namespace
}  // namespace mbq

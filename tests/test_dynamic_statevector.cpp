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

TEST(DynamicSv, PendingGainMatchesPrimitiveChainBitForBit) {
  // Gadgets and J-step teleports alternate, so each fused op also reads
  // the gain its predecessor left.  Teleports measure position 0 and the
  // top position, the two J-step shapes of the bench families.  One
  // kernel thread: the chunk decomposition does not depend on it
  // (test_simd_kernels sweeps thread counts), and a team per op would
  // make this test slow whenever other processes hold the cores.
  struct ThreadGuard {
    int saved = num_threads();
    ~ThreadGuard() { set_num_threads(saved); }
  } guard;
  set_num_threads(1);
  const Matrix yz = measurement_basis(MeasBasis::YZ, 0.9);
  const Matrix xy = measurement_basis(MeasBasis::XY, -0.6);
  for (const Precision prec : {Precision::F64, Precision::F32}) {
    for (const int n : {5, 13, 14}) {  // 13, 14: across the chunk cutoff
      for (const int forced : {-1, 0, 1}) {
        SCOPED_TRACE(std::string(precision_name(prec)) + " n=" +
                     std::to_string(n) + " forced=" + std::to_string(forced));
        DynamicStatevector chain(prec);
        for (int w = 0; w < n; ++w) chain.add_wire(w);
        for (int w = 0; w + 1 < n; ++w) chain.apply_cz(w, w + 1);
        chain.apply_rz(2, 0.7);
        chain.normalize();
        DynamicStatevector fused = chain;
        Rng rf(17), rc(17);
        int next = n;
        for (int step = 0; step < 6; ++step) {
          SCOPED_TRACE("step " + std::to_string(step));
          const std::vector<int> order = chain.wire_order();
          int got, want;
          if (step % 2 == 0) {
            // Gadget: partners at positions 0, 2 and the top.
            const std::vector<int> partners = {order[0], order[2],
                                               order.back()};
            const std::uint64_t pmask =
                0b101 | (std::uint64_t{1} << (order.size() - 1));
            got = fused.prep_cz_measure(next, pmask, yz, rf, forced);
            chain.add_wire(next);
            for (const int p : partners) chain.apply_cz(next, p);
            want = chain.measure_remove(next, yz, rc, forced);
          } else {
            // J step: the fresh wire's partner is the measured wire.
            const int q =
                step % 4 == 1 ? 0 : static_cast<int>(order.size()) - 1;
            const int meas = order[static_cast<std::size_t>(q)];
            got = fused.prep_cz_teleport_measure(
                next, std::uint64_t{1} << q, meas, xy, rf, forced);
            chain.add_wire(next);
            chain.apply_cz(next, meas);
            want = chain.measure_remove(meas, xy, rc, forced);
          }
          ++next;
          ASSERT_EQ(got, want);
          expect_same_after_every_call(fused, chain, 31 + step);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mbq

#include "mbq/sim/dynamic_statevector.h"

#include <algorithm>
#include <cmath>

#include "mbq/common/bits.h"
#include "mbq/common/error.h"
#include "mbq/common/parallel.h"
#include "mbq/sim/collapse_kernels.h"
#include "mbq/sim/collapse_threaded.h"

namespace mbq {

namespace {

/// Narrow a basis-matrix entry to the register's element type.  For
/// R = double this is the identity, keeping the f64 paths bit-identical
/// to what they always computed.
template <class R>
std::complex<R> to_c(cplx v) noexcept {
  return {static_cast<R>(v.real()), static_cast<R>(v.imag())};
}

/// A sampled fused pass's folds: the Born total and, per outcome m, the
/// fold of m's projection — the one the pass wrote, and the other one
/// where the op knows it from the same pass.
template <class R>
struct PassFolds {
  R total;
  R proj[2];
};

/// The outcome of a fused measure, with the fold of the projection it
/// leaves in scratch in nrm2.  Forced: project(forced) alone.  Sampled:
/// the draw comes first, and pass(m) writes outcome m's projection, m
/// the draw's guess when other_known (the pass returns both outcomes'
/// folds) and 1 otherwise.  The outcome, and what it leaves of rng, are
/// exactly rng.bernoulli(proj[1] / total)'s, and project(outcome)
/// rewrites the projection when the pass wrote the other one.
template <class R, class Pass, class Project>
int fused_outcome(Rng& rng, int forced, bool other_known, const Pass& pass,
                  const Project& project, R& nrm2) {
  if (forced != -1) {
    nrm2 = project(forced);
    return forced;
  }
  const EarlyDraw draw = EarlyDraw::take(rng);
  const int written = other_known ? draw.guess() : 1;
  const PassFolds<R> f = pass(written);
  const real total = std::norm(std::sqrt(static_cast<real>(f.total)));
  MBQ_REQUIRE(total > DynamicStatevector::kMinBornNorm2, "zero state");
  const int outcome = draw.resolve(static_cast<real>(f.proj[1]) / total, rng);
  nrm2 = outcome == written ? f.proj[outcome] : project(outcome);
  return outcome;
}

}  // namespace

Matrix measurement_basis(MeasBasis basis, real angle) {
  switch (basis) {
    case MeasBasis::Z:
      return Matrix::identity(2);
    case MeasBasis::X: {
      const real s = 1.0 / std::sqrt(2.0);
      return Matrix(2, 2, {s, s, s, -s});
    }
    case MeasBasis::XY: {
      const real s = 1.0 / std::sqrt(2.0);
      const cplx e = std::exp(kI * angle);
      return Matrix(2, 2, {s, s, s * e, -s * e});
    }
    case MeasBasis::YZ: {
      const cplx c = std::cos(angle / 2);
      const cplx is = kI * std::sin(angle / 2);
      return Matrix(2, 2, {c, is, is, c});
    }
  }
  throw InternalError("unknown measurement basis");
}

template <class R>
void DynamicStatevector::reset_impl() {
  auto& a = amps<R>();
  a.clear();
  a.push_back(std::complex<R>{R(1), R(0)});
}

void DynamicStatevector::reset() {
  if (prec_ == Precision::F64)
    reset_impl<double>();
  else
    reset_impl<float>();
  // Clear only the live entries; pos_ keeps its capacity so the next
  // shot re-registers wires without touching the allocator.
  for (const int w : order_) pos_[static_cast<std::size_t>(w)] = -1;
  order_.clear();
  peak_live_ = 0;
  fold_ = 1.0;
  fold_valid_ = true;
  gain_ = 1.0;
  gain_pending_ = false;
}

template <class R>
void DynamicStatevector::settle_impl() {
  auto& a = amps<R>();
  fold_ = static_cast<real>(thr::scale_fold(kernels_t<R>(), a.data(),
                                            a.size(), static_cast<R>(gain_),
                                            num_threads()));
}

void DynamicStatevector::settle() {
  if (!gain_pending_) return;
  if (prec_ == Precision::F64)
    settle_impl<double>();
  else
    settle_impl<float>();
  gain_ = 1.0;
  gain_pending_ = false;
  fold_valid_ = true;  // scale_fold refreshes the canonical fold
}

template <class R>
void DynamicStatevector::defer_gain(R nrm2) {
  gain_ = static_cast<real>(
      static_cast<R>(1.0 / std::sqrt(static_cast<real>(nrm2))));
  gain_pending_ = true;
  fold_valid_ = false;
}

int DynamicStatevector::position(int wire) const {
  MBQ_REQUIRE(has_wire(wire), "wire " << wire << " is not live");
  return pos_[static_cast<std::size_t>(wire)];
}

void DynamicStatevector::set_position(int wire, int p) {
  MBQ_REQUIRE(wire >= 0, "wire ids must be non-negative, got " << wire);
  if (static_cast<std::size_t>(wire) >= pos_.size())
    pos_.resize(static_cast<std::size_t>(wire) + 1, -1);
  pos_[static_cast<std::size_t>(wire)] = p;
}

template <class R>
void DynamicStatevector::add_wire_impl(bool plus) {
  auto& a = amps<R>();
  const std::size_t old_dim = a.size();
  a.resize(old_dim * 2);
  if (plus) {
    const R s = static_cast<R>(1.0 / std::sqrt(2.0));
    for (std::size_t i = 0; i < old_dim; ++i) {
      a[i] *= s;
      a[old_dim + i] = a[i];
    }
  } else {
    std::fill(a.begin() + static_cast<std::ptrdiff_t>(old_dim), a.end(),
              std::complex<R>{});
  }
}

void DynamicStatevector::add_wire(int wire, bool plus) {
  MBQ_REQUIRE(!has_wire(wire), "wire " << wire << " already live");
  MBQ_REQUIRE(order_.size() < 28, "too many live wires");
  settle();
  fold_valid_ = false;
  if (prec_ == Precision::F64)
    add_wire_impl<double>(plus);
  else
    add_wire_impl<float>(plus);
  set_position(wire, static_cast<int>(order_.size()));
  order_.push_back(wire);
  peak_live_ = std::max(peak_live_, num_live());
}

void DynamicStatevector::add_wire_state(int wire, cplx a0, cplx a1) {
  const real nrm = std::sqrt(std::norm(a0) + std::norm(a1));
  MBQ_REQUIRE(nrm > kMinAddWireNorm, "cannot add a wire in the zero state");
  add_wire(wire, false);  // |0>
  // Rotate |0> to the target state with a unitary whose first column is
  // the (normalized) state.
  const cplx b0 = a0 / nrm;
  const cplx b1 = a1 / nrm;
  apply_1q(wire, Matrix(2, 2, {b0, -std::conj(b1), b1, std::conj(b0)}));
}

template <class R>
void DynamicStatevector::apply_1q_impl(int q, const Matrix& u) {
  auto& a = amps<R>();
  using C = std::complex<R>;
  const std::uint64_t stride = std::uint64_t{1} << q;
  const C u00 = to_c<R>(u(0, 0)), u01 = to_c<R>(u(0, 1));
  const C u10 = to_c<R>(u(1, 0)), u11 = to_c<R>(u(1, 1));
  const std::uint64_t pairs = a.size() / 2;
  for (std::uint64_t k = 0; k < pairs; ++k) {
    const std::uint64_t i0 = insert_zero_bit(k, q);
    const std::uint64_t i1 = i0 | stride;
    const C a0 = a[i0];
    const C a1 = a[i1];
    a[i0] = u00 * a0 + u01 * a1;
    a[i1] = u10 * a0 + u11 * a1;
  }
}

void DynamicStatevector::apply_1q(int wire, const Matrix& u) {
  MBQ_REQUIRE(u.rows() == 2 && u.cols() == 2, "apply_1q needs 2x2");
  settle();
  fold_valid_ = false;
  const int q = position(wire);
  if (prec_ == Precision::F64)
    apply_1q_impl<double>(q, u);
  else
    apply_1q_impl<float>(q, u);
}

void DynamicStatevector::apply_h(int wire) {
  const real s = 1.0 / std::sqrt(2.0);
  apply_1q(wire, Matrix(2, 2, {s, s, s, -s}));
}

template <class R>
void DynamicStatevector::apply_x_impl(std::uint64_t xmask) {
  auto& a = amps<R>();
  thr::pauli_swap_pass(kernels_t<R>(), a.data(), a.size(), xmask, 0, 0, false,
                       num_threads());
}

void DynamicStatevector::apply_x(int wire) {
  // X is a pure amplitude swap: the swap-pass kernel with no phase
  // masks.  The swap reorders elements, so the norm fold is invalidated
  // (per-element norms survive, their fold order does not).
  settle();
  fold_valid_ = false;
  const std::uint64_t xmask = std::uint64_t{1} << position(wire);
  if (prec_ == Precision::F64)
    apply_x_impl<double>(xmask);
  else
    apply_x_impl<float>(xmask);
}

template <class R>
void DynamicStatevector::sign_pass_impl(std::uint64_t eq_mask,
                                        std::uint64_t par_mask, bool negate) {
  auto& a = amps<R>();
  thr::sign_pass(kernels_t<R>(), a.data(), a.size(), eq_mask, par_mask, negate,
                 num_threads());
}

void DynamicStatevector::apply_z(int wire) {
  // Z only negates the bit-set half.  Per-element norms and their order
  // are untouched, so the fold stays valid.
  const std::uint64_t stride = std::uint64_t{1} << position(wire);
  settle();
  if (prec_ == Precision::F64)
    sign_pass_impl<double>(stride, 0, false);
  else
    sign_pass_impl<float>(stride, 0, false);
}

template <class R>
void DynamicStatevector::apply_rz_impl(int q, cplx e) {
  auto& a = amps<R>();
  thr::phase_pass(kernels_t<R>(), a.data(), a.size(), q, to_c<R>(e),
                  num_threads());
}

void DynamicStatevector::apply_rz(int wire, real theta) {
  // Dedicated diagonal-phase kernel: bit-identical amplitudes to
  // apply_1q(diag(1, e^{iθ})) on the touched half at a third of the
  // work, and the fold stays usable (see the fold_ contract note).
  const int q = position(wire);
  settle();
  if (prec_ == Precision::F64)
    apply_rz_impl<double>(q, std::exp(kI * theta));
  else
    apply_rz_impl<float>(q, std::exp(kI * theta));
}

void DynamicStatevector::apply_cz(int wire_a, int wire_b) {
  MBQ_REQUIRE(wire_a != wire_b, "CZ needs two distinct wires");
  const std::uint64_t mask = (std::uint64_t{1} << position(wire_a)) |
                             (std::uint64_t{1} << position(wire_b));
  settle();
  // Sign flips preserve per-element norms in place: fold stays valid.
  if (prec_ == Precision::F64)
    sign_pass_impl<double>(mask, 0, false);
  else
    sign_pass_impl<float>(mask, 0, false);
}

template <class R>
void DynamicStatevector::pauli_swap_impl(std::uint64_t xmask,
                                         std::uint64_t zmask,
                                         std::uint64_t eq_mask, bool negate) {
  auto& a = amps<R>();
  thr::pauli_swap_pass(kernels_t<R>(), a.data(), a.size(), xmask, zmask,
                       eq_mask, negate, num_threads());
}

void DynamicStatevector::apply_cz_depolarize(int wire_a, int wire_b, real p,
                                             Rng& rng) {
  if (p <= 0.0) {
    apply_cz(wire_a, wire_b);
    return;
  }
  settle();
  // Draw the noise decisions first, in the order the sequential
  // composition (CZ, then per-wire Pauli checks for a, then b) would.
  // The draws are state-independent, so this preserves the rng stream;
  // every constituent operation is a sign flip or an index swap, so the
  // fused pass below is bit-identical to applying them one by one.
  std::uint64_t xmask = 0, zmask = 0;
  for (const int w : {wire_a, wire_b}) {
    if (!rng.bernoulli(p)) continue;
    const std::uint64_t m = std::uint64_t{1} << position(w);
    switch (rng.uniform_index(3)) {
      case 0: xmask ^= m; break;
      case 1: zmask ^= m; break;
      default:
        xmask ^= m;
        zmask ^= m;  // Y up to phase (X then Z)
        break;
    }
  }
  const std::uint64_t cz = (std::uint64_t{1} << position(wire_a)) |
                           (std::uint64_t{1} << position(wire_b));
  // Net operator Zmask · Xmask · CZ: new[j] = zs(j) · czs(j^xmask) ·
  // amps[j ^ xmask], where zs/czs are ±1 phases.
  if (xmask == 0) {
    if (prec_ == Precision::F64)
      sign_pass_impl<double>(cz, zmask, false);
    else
      sign_pass_impl<float>(cz, zmask, false);
    return;  // in-place sign pass: fold stays valid
  }
  fold_valid_ = false;  // swaps reorder the fold
  if (prec_ == Precision::F64)
    pauli_swap_impl<double>(xmask, zmask, cz, false);
  else
    pauli_swap_impl<float>(xmask, zmask, cz, false);
}

template <class R>
void DynamicStatevector::add_plus_cz_impl(std::uint64_t partner_pos_mask) {
  auto& a = amps<R>();
  const std::uint64_t old_dim = a.size();
  a.resize(old_dim * 2);
  // The fresh wire takes the TOP bit, so every fused CZ signs only the
  // upper half being written: sign(i) = parity of partner bits in i.
  // The chunked driver folds both halves under the global contract.
  fold_ = static_cast<real>(thr::add_plus_cz(
      kernels_t<R>(), a.data(), old_dim, partner_pos_mask,
      static_cast<R>(1.0 / std::sqrt(2.0)), num_threads()));
}

void DynamicStatevector::add_wire_plus_cz(int wire,
                                          std::uint64_t partner_pos_mask) {
  MBQ_REQUIRE(!has_wire(wire), "wire " << wire << " already live");
  MBQ_REQUIRE(order_.size() < 28, "too many live wires");
  settle();
  if (prec_ == Precision::F64)
    add_plus_cz_impl<double>(partner_pos_mask);
  else
    add_plus_cz_impl<float>(partner_pos_mask);
  fold_valid_ = true;
  set_position(wire, static_cast<int>(order_.size()));
  order_.push_back(wire);
  peak_live_ = std::max(peak_live_, num_live());
}

template <class R>
void DynamicStatevector::cz_masks_impl(const std::uint64_t* pair_masks,
                                       int count) {
  auto& a = amps<R>();
  thr::cz_masks_pass(kernels_t<R>(), a.data(), a.size(), pair_masks, count,
                     num_threads());
}

void DynamicStatevector::apply_cz_masks(const std::uint64_t* pair_masks,
                                        int count) {
  settle();
  if (prec_ == Precision::F64)
    cz_masks_impl<double>(pair_masks, count);
  else
    cz_masks_impl<float>(pair_masks, count);
  // Pure sign pass: fold validity carries through untouched.
}

void DynamicStatevector::apply_pauli_masks(std::uint64_t xmask,
                                           std::uint64_t zmask, bool negate) {
  if (xmask == 0 && zmask == 0 && !negate) return;
  settle();
  if (xmask == 0) {
    if (prec_ == Precision::F64)
      sign_pass_impl<double>(0, zmask, negate);
    else
      sign_pass_impl<float>(0, zmask, negate);
    return;  // in-place sign pass: fold stays valid
  }
  fold_valid_ = false;
  if (prec_ == Precision::F64)
    pauli_swap_impl<double>(xmask, zmask, 0, negate);
  else
    pauli_swap_impl<float>(xmask, zmask, 0, negate);
}

template <class R>
int DynamicStatevector::prep_cz_measure_impl(std::uint64_t partner_pos_mask,
                                             const Matrix& basis, Rng& rng,
                                             int forced, int wire) {
  auto& a = amps<R>();
  auto& sc = scratch<R>();
  const std::uint64_t dim = a.size();
  sc.resize(dim);
  const R g = static_cast<R>(gain_);
  const R s = static_cast<R>(1.0 / std::sqrt(2.0));
  const CollapseKernelsT<R>& kn = kernels_t<R>();
  const int threads = num_threads();
  const auto e = [&](int row, int m) {
    return to_c<R>(std::conj(basis(row, m)));
  };

  // The sampled pass folds the Born denominator (the doubled register's
  // canonical fold) and a projection chunk by chunk from ONE read of
  // the register — the cache-blocking win at large dim.  In a YZ or Z
  // basis the outcomes' effects are (c, d) and (d, c) on a ±low pair,
  // so both projections have the same fold.
  const bool other_known =
      basis(0, 0) == basis(1, 1) && basis(0, 1) == basis(1, 0);
  R nrm2;
  const int outcome = fused_outcome<R>(
      rng, forced, other_known,
      [&](int m) {
        const auto f = thr::prep_collapse_with_total(
            kn, a.data(), sc.data(), dim, partner_pos_mask, e(0, m), e(1, m),
            g, s, threads);
        return PassFolds<R>{f.total, {f.proj, f.proj}};
      },
      [&](int m) {
        return thr::prep_collapse(kn, a.data(), sc.data(), dim,
                                  partner_pos_mask, e(0, m), e(1, m), g, s,
                                  threads);
      },
      nrm2);
  MBQ_REQUIRE(static_cast<real>(nrm2) > kMinProjectionNorm2,
              "forced outcome " << outcome << " on wire " << wire
                                << " has zero probability");
  defer_gain(nrm2);
  std::swap(a, sc);
  return outcome;
}

int DynamicStatevector::prep_cz_measure(int wire,
                                        std::uint64_t partner_pos_mask,
                                        const Matrix& basis, Rng& rng,
                                        int forced) {
  MBQ_REQUIRE(basis.rows() == 2 && basis.cols() == 2, "basis must be 2x2");
  MBQ_REQUIRE(forced >= -1 && forced <= 1, "forced outcome must be -1/0/1");
  MBQ_REQUIRE(!has_wire(wire), "wire " << wire << " already live");
  MBQ_REQUIRE(order_.size() < 28, "too many live wires");
  // The wire exists only virtually: it would sit at the top position
  // with upper amplitude half up[i] = ±(amps[i] * s), the sign from the
  // fused CZ partners.  Probabilities, projections and the collapsed
  // state all derive from that relation, so the register never doubles
  // — the whole N;E...;M gadget block runs at the SMALL dimension.
  peak_live_ = std::max(peak_live_, num_live() + 1);
  return prec_ == Precision::F64
             ? prep_cz_measure_impl<double>(partner_pos_mask, basis, rng,
                                            forced, wire)
             : prep_cz_measure_impl<float>(partner_pos_mask, basis, rng,
                                           forced, wire);
}

template <class R>
int DynamicStatevector::teleport_measure_impl(std::uint64_t partner_pos_mask,
                                              int q, const Matrix& basis,
                                              Rng& rng, int forced,
                                              int meas_wire) {
  auto& a = amps<R>();
  auto& sc = scratch<R>();
  const std::uint64_t dim = a.size();
  sc.resize(dim);
  const R g = static_cast<R>(gain_);
  const R s = static_cast<R>(1.0 / std::sqrt(2.0));
  const CollapseKernelsT<R>& kn = kernels_t<R>();
  const int threads = num_threads();
  const auto e = [&](int row, int m) {
    return to_c<R>(std::conj(basis(row, m)));
  };

  // Projection fold fused into the collapse pass (the chunked driver
  // folds each out block as it is written instead of re-reading the
  // whole vector afterwards); a sampled teleport folds the Born
  // denominator over the blocks it reads in that same pass.  In an XY
  // or X basis with meas_wire among the partners, the chunked pass also
  // yields the other outcome's fold (f.swapped).
  const bool other_known = thr::chunked(dim) &&
                           ((partner_pos_mask >> q) & 1) != 0 &&
                           basis(0, 0) == basis(0, 1) &&
                           basis(1, 1) == -basis(1, 0);
  R nrm2;
  const int outcome = fused_outcome<R>(
      rng, forced, other_known,
      [&](int m) {
        const auto f = thr::teleport_collapse_with_total(
            kn, a.data(), sc.data(), dim, q, partner_pos_mask, e(0, m),
            e(1, m), g, s, threads);
        PassFolds<R> r{f.total, {}};
        r.proj[m] = f.proj;
        r.proj[1 - m] = f.swapped;
        return r;
      },
      [&](int m) {
        return thr::teleport_collapse_fold(kn, a.data(), sc.data(), dim, q,
                                           partner_pos_mask, e(0, m), e(1, m),
                                           g, s, threads);
      },
      nrm2);
  MBQ_REQUIRE(static_cast<real>(nrm2) > kMinProjectionNorm2,
              "forced outcome " << outcome << " on wire " << meas_wire
                                << " has zero probability");
  defer_gain(nrm2);
  std::swap(a, sc);
  return outcome;
}

int DynamicStatevector::prep_cz_teleport_measure(int new_wire,
                                                 std::uint64_t partner_pos_mask,
                                                 int meas_wire,
                                                 const Matrix& basis, Rng& rng,
                                                 int forced) {
  MBQ_REQUIRE(basis.rows() == 2 && basis.cols() == 2, "basis must be 2x2");
  MBQ_REQUIRE(forced >= -1 && forced <= 1, "forced outcome must be -1/0/1");
  MBQ_REQUIRE(!has_wire(new_wire), "wire " << new_wire << " already live");
  MBQ_REQUIRE(order_.size() < 28, "too many live wires");
  const int q = position(meas_wire);
  // new_wire sits only VIRTUALLY at the top position: in the doubled
  // register its half-bit b selects between +s·amps[i] (b = 0) and
  // (-1)^{parity(i & partners)}·s·amps[i] (b = 1).  The collapsed state
  // indexed by the measurement pair rank IS the final wire layout (meas
  // gone, new_wire on top), so one kernel pass writes the result in
  // place of three passes over a doubled arena.
  peak_live_ = std::max(peak_live_, num_live() + 1);
  const int outcome =
      prec_ == Precision::F64
          ? teleport_measure_impl<double>(partner_pos_mask, q, basis, rng,
                                          forced, meas_wire)
          : teleport_measure_impl<float>(partner_pos_mask, q, basis, rng,
                                         forced, meas_wire);

  // Bookkeeping exactly as add-then-measure would leave it: meas_wire's
  // position vanishes, higher wires shift down, new_wire lands on top.
  order_.erase(order_.begin() + q);
  pos_[static_cast<std::size_t>(meas_wire)] = -1;
  for (std::size_t i = static_cast<std::size_t>(q); i < order_.size(); ++i)
    pos_[static_cast<std::size_t>(order_[i])] = static_cast<int>(i);
  set_position(new_wire, static_cast<int>(order_.size()));
  order_.push_back(new_wire);
  return outcome;
}

template <class R>
real DynamicStatevector::prob_one_impl(int q, const Matrix& basis) const {
  const auto& a = amps<R>();
  using C = std::complex<R>;
  const std::uint64_t stride = std::uint64_t{1} << q;
  // Effect for outcome m is <b_m| = conj(column m)^T.  Diagnostic path:
  // a plain sequential sweep is fine here, but the denominator must use
  // the canonical fold so it agrees bitwise with the sampling paths.
  const C e10 = to_c<R>(std::conj(basis(0, 1)));
  const C e11 = to_c<R>(std::conj(basis(1, 1)));
  const R g = static_cast<R>(gain_);
  real p1 = 0.0;
  const std::uint64_t pairs = a.size() / 2;
  for (std::uint64_t k = 0; k < pairs; ++k) {
    const std::uint64_t i0 = insert_zero_bit(k, q);
    p1 += static_cast<real>(
        std::norm(e10 * (a[i0] * g) + e11 * (a[i0 | stride] * g)));
  }
  const real total = std::norm(norm());
  MBQ_REQUIRE(total > kMinBornNorm2, "zero state");
  return p1 / total;
}

real DynamicStatevector::prob_one(int wire, const Matrix& basis) const {
  MBQ_REQUIRE(basis.rows() == 2 && basis.cols() == 2, "basis must be 2x2");
  const int q = position(wire);
  return prec_ == Precision::F64 ? prob_one_impl<double>(q, basis)
                                 : prob_one_impl<float>(q, basis);
}

template <class R>
int DynamicStatevector::measure_remove_impl(int q, const Matrix& basis,
                                            Rng& rng, int forced, int wire) {
  auto& a = amps<R>();
  auto& sc = scratch<R>();
  const std::uint64_t pairs = a.size() / 2;
  sc.resize(pairs);
  const CollapseKernelsT<R>& kn = kernels_t<R>();
  const int threads = num_threads();

  // Collapsed projections land in scratch, which then SWAPS with amps:
  // the two buffers ping-pong across calls, so a reused simulator never
  // reallocates.  The sampled path fuses the outcome-1 probability fold
  // into its collapse pass; when the running fold is stale it fuses the
  // denominator fold in as well (collapse_pairs_with_total), reading
  // each source block once.  Every fold is canonical, keeping outcomes
  // and amplitudes bit-identical across ISAs, thread counts and the
  // fold-reuse fast path.
  int outcome;
  R nrm2 = R(0);
  if (forced == -1) {
    real total;
    R p1;
    if (fold_valid_) {
      // A valid fold (maintained under the global chunk contract) is
      // bitwise the same sum a fresh driver pass computes.
      total = fold_;
      p1 = thr::collapse_pairs(kn, a.data(), sc.data(), pairs, q,
                               to_c<R>(std::conj(basis(0, 1))),
                               to_c<R>(std::conj(basis(1, 1))), threads);
    } else {
      const auto f = thr::collapse_pairs_with_total(
          kn, a.data(), sc.data(), pairs, q, to_c<R>(std::conj(basis(0, 1))),
          to_c<R>(std::conj(basis(1, 1))), threads);
      total = static_cast<real>(f.total);
      p1 = f.proj;
    }
    total = std::norm(std::sqrt(total));
    MBQ_REQUIRE(total > kMinBornNorm2, "zero state");
    outcome = rng.bernoulli(static_cast<real>(p1) / total) ? 1 : 0;
    nrm2 = p1;  // outcome 1: the projections are already in scratch
  } else {
    outcome = forced;
  }
  if (outcome != 1 || forced != -1) {
    nrm2 = thr::collapse_pairs(kn, a.data(), sc.data(), pairs, q,
                               to_c<R>(std::conj(basis(0, outcome))),
                               to_c<R>(std::conj(basis(1, outcome))), threads);
  }
  MBQ_REQUIRE(static_cast<real>(nrm2) > kMinProjectionNorm2,
              "forced outcome " << outcome << " on wire " << wire
                                << " has zero probability");
  fold_ = static_cast<real>(thr::scale_fold(
      kn, sc.data(), pairs,
      static_cast<R>(1.0 / std::sqrt(static_cast<real>(nrm2))), threads));
  std::swap(a, sc);
  fold_valid_ = true;
  return outcome;
}

int DynamicStatevector::measure_remove(int wire, const Matrix& basis, Rng& rng,
                                       int forced) {
  MBQ_REQUIRE(basis.rows() == 2 && basis.cols() == 2, "basis must be 2x2");
  MBQ_REQUIRE(forced >= -1 && forced <= 1, "forced outcome must be -1/0/1");
  const int q = position(wire);
  settle();
  const int outcome =
      prec_ == Precision::F64
          ? measure_remove_impl<double>(q, basis, rng, forced, wire)
          : measure_remove_impl<float>(q, basis, rng, forced, wire);

  // Drop the wire and shift higher positions down.
  order_.erase(order_.begin() + q);
  pos_[static_cast<std::size_t>(wire)] = -1;
  for (std::size_t i = static_cast<std::size_t>(q); i < order_.size(); ++i)
    pos_[static_cast<std::size_t>(order_[i])] = static_cast<int>(i);
  return outcome;
}

void DynamicStatevector::fill_gather_table(const std::vector<int>& wires,
                                           GatherTable& table) const {
  MBQ_REQUIRE(wires.size() == order_.size(),
              "expected all " << order_.size() << " live wires, got "
                              << wires.size());
  table.src.resize(wires.size());
  for (std::size_t i = 0; i < wires.size(); ++i)
    table.src[i] = position(wires[i]);
  // Incrementing j flips its trailing bits 0..t; the source index flips
  // the corresponding source-position bits, so the gather advances with
  // one table lookup per element instead of re-composing every bit.
  table.flip.assign(wires.size() + 1, 0);
  for (std::size_t t = 0; t < table.src.size(); ++t)
    table.flip[t + 1] =
        table.flip[t] ^ (std::uint64_t{1} << table.src[t]);
}

template <class R>
std::vector<cplx> DynamicStatevector::state_in_order_impl(
    const GatherTable& table) const {
  const auto& a = amps<R>();
  const R g = static_cast<R>(gain_);
  // Widened to cplx on read: the reference-comparison helpers stay
  // precision-agnostic (float -> double widening is exact).
  std::vector<cplx> out(a.size());
  std::uint64_t from = 0;
  for (std::uint64_t j = 0;;) {
    out[j] = cplx(a[from] * g);
    if (++j >= out.size()) break;
    from ^= table.flip[std::countr_zero(j) + 1];
  }
  return out;
}

std::vector<cplx> DynamicStatevector::state_in_order(
    const GatherTable& table) const {
  MBQ_REQUIRE(table.src.size() == order_.size(),
              "gather table covers " << table.src.size() << " wires, "
                                     << order_.size() << " live");
  return prec_ == Precision::F64 ? state_in_order_impl<double>(table)
                                 : state_in_order_impl<float>(table);
}

std::vector<cplx> DynamicStatevector::state_in_order(
    const std::vector<int>& wires) const {
  GatherTable table;
  fill_gather_table(wires, table);
  return state_in_order(table);
}

template <class R>
std::uint64_t DynamicStatevector::sample_in_order_impl(const GatherTable& table,
                                                       real u) const {
  const auto& a = amps<R>();
  const R g = static_cast<R>(gain_);
  std::uint64_t from = 0;
  for (std::uint64_t j = 0;;) {
    u -= static_cast<real>(std::norm(a[from] * g));
    if (u <= 0.0 || j + 1 == a.size()) return j;
    ++j;
    from ^= table.flip[std::countr_zero(j) + 1];
  }
}

std::uint64_t DynamicStatevector::sample_in_order(const GatherTable& table,
                                                  real u) const {
  MBQ_REQUIRE(table.src.size() == order_.size(),
              "gather table covers " << table.src.size() << " wires, "
                                     << order_.size() << " live");
  return prec_ == Precision::F64 ? sample_in_order_impl<double>(table, u)
                                 : sample_in_order_impl<float>(table, u);
}

std::uint64_t DynamicStatevector::sample_in_order(const std::vector<int>& wires,
                                                  real u) const {
  GatherTable table;
  fill_gather_table(wires, table);
  return sample_in_order(table, u);
}

template <class R>
real DynamicStatevector::expectation_in_order_impl(
    const GatherTable& table, const std::vector<real>& diag,
    std::uint64_t flip) const {
  const auto& a = amps<R>();
  const R g = static_cast<R>(gain_);
  real acc = 0.0;
  std::uint64_t from = 0;
  for (std::uint64_t j = 0;;) {
    acc += std::norm(cplx(a[from] * g)) * diag[j ^ flip];
    if (++j >= a.size()) return acc;
    from ^= table.flip[std::countr_zero(j) + 1];
  }
}

real DynamicStatevector::expectation_in_order(const GatherTable& table,
                                              const std::vector<real>& diag,
                                              std::uint64_t flip) const {
  MBQ_REQUIRE(table.src.size() == order_.size(),
              "gather table covers " << table.src.size() << " wires, "
                                     << order_.size() << " live");
  MBQ_REQUIRE(diag.size() == dim(), "diagonal has " << diag.size()
                                                    << " entries, register "
                                                    << dim());
  MBQ_REQUIRE(flip < dim(), "flip mask " << flip << " outside the register");
  return prec_ == Precision::F64
             ? expectation_in_order_impl<double>(table, diag, flip)
             : expectation_in_order_impl<float>(table, diag, flip);
}

template <class R>
real DynamicStatevector::norm_impl() const {
  const auto& a = amps<R>();
  // s = 1: the fold of the settled values a·g (g = 1 is exact).
  return std::sqrt(static_cast<real>(
      thr::fold_norms_scaled(kernels_t<R>(), a.data(), a.size(),
                             static_cast<R>(gain_), R(1), num_threads())));
}

real DynamicStatevector::norm() const {
  return prec_ == Precision::F64 ? norm_impl<double>() : norm_impl<float>();
}

template <class R>
void DynamicStatevector::normalize_impl() {
  auto& a = amps<R>();
  const CollapseKernelsT<R>& kn = kernels_t<R>();
  const int threads = num_threads();
  const R nrm2 = thr::fold_norms(kn, a.data(), a.size(), threads);
  // Uniform Born-denominator guard (on |ψ|², like every sampling path;
  // this used to test |ψ| against the same 1e-14, an inconsistency the
  // named constants exist to prevent).
  MBQ_REQUIRE(static_cast<real>(nrm2) > kMinBornNorm2,
              "cannot normalize a zero state");
  fold_ = static_cast<real>(thr::scale_fold(
      kn, a.data(), a.size(),
      static_cast<R>(1.0 / std::sqrt(static_cast<real>(nrm2))), threads));
  fold_valid_ = true;  // scale_fold refreshes the canonical fold
}

void DynamicStatevector::normalize() {
  settle();
  if (prec_ == Precision::F64)
    normalize_impl<double>();
  else
    normalize_impl<float>();
}

}  // namespace mbq

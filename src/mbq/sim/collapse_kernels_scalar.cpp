// Scalar reference flavor of the collapse kernels.
//
// This TU defines the CANONICAL results: every vector flavor must
// reproduce these bit-for-bit (verify_kernels enforces it at dispatch).
// The folds keep kFoldLanes<R> running lane accumulators indexed by the
// global element-stream position mod L and combine them in the fixed
// tree documented in collapse_kernels.h — which is exactly what one
// vector register (or two, or four) of lane partials computes, so the
// scalar path is slower but never different.  The whole TU is templated
// over the element type R (double and float instantiations).

#include <cstdint>

#include "mbq/common/bits.h"
#include "mbq/sim/collapse_kernels.h"

namespace mbq {
namespace {

/// The canonical fold accumulator (see collapse_kernels.h): 8 lanes for
/// double, 16 for float.
template <class R>
struct FoldAcc {
  static constexpr int kL = kFoldLanes<R>;
  R a[kL] = {};
  std::uint64_t m = 0;  // global element-stream position

  void add(R d) noexcept {
    a[m & (kL - 1)] += d * d;
    ++m;
  }
  void add(const std::complex<R>& v) noexcept {
    add(v.real());
    add(v.imag());
  }
  R combine() const noexcept { return fold_combine<R>(a); }
};

template <class R>
R s_fold_norms(const std::complex<R>* x, std::uint64_t n) {
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < n; ++i) acc.add(x[i]);
  return acc.combine();
}

template <class R>
R s_fold_norms_scaled(const std::complex<R>* x, std::uint64_t n, R g, R s) {
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < n; ++i) acc.add((x[i] * g) * s);
  return acc.combine();
}

template <class R>
R s_prep_total_fold(const std::complex<R>* x, std::uint64_t n, R g, R s) {
  // Two sweeps, ONE carried accumulator set: the doubled register's
  // upper half differs only in signs, which square away bitwise.
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < n; ++i) acc.add((x[i] * g) * s);
  for (std::uint64_t i = 0; i < n; ++i) acc.add((x[i] * g) * s);
  return acc.combine();
}

template <class R>
R s_scale_fold(std::complex<R>* x, std::uint64_t n, R inv) {
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < n; ++i) {
    x[i] *= inv;
    acc.add(x[i]);
  }
  return acc.combine();
}

template <class R>
R s_collapse_pairs(const std::complex<R>* x, std::complex<R>* out,
                   std::uint64_t pairs, int q, std::complex<R> e0,
                   std::complex<R> e1) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const EffKind k0 = eff_kind(e0);
  const EffKind k1 = eff_kind(e1);
  FoldAcc<R> acc;
  for (std::uint64_t k = 0; k < pairs; ++k) {
    const std::uint64_t i0 = insert_zero_bit(k, q);
    out[k] = eff_mul(k0, e0, x[i0]) + eff_mul(k1, e1, x[i0 | stride]);
    acc.add(out[k]);
  }
  return acc.combine();
}

template <class R>
R s_prep_collapse(const std::complex<R>* x, std::complex<R>* out,
                  std::uint64_t dim, std::uint64_t pmask, std::complex<R> e0,
                  std::complex<R> e1, R g, R s) {
  const EffKind k0 = eff_kind(e0);
  const EffKind k1 = eff_kind(e1);
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < dim; ++i) {
    const std::complex<R> low = (x[i] * g) * s;
    const std::complex<R> up = parity64(i & pmask) ? -low : low;
    out[i] = eff_mul(k0, e0, low) + eff_mul(k1, e1, up);
    acc.add(out[i]);
  }
  return acc.combine();
}

template <class R>
void s_teleport_collapse(const std::complex<R>* x, std::complex<R>* out,
                         std::uint64_t dim, int q, std::uint64_t pmask,
                         std::complex<R> e0, std::complex<R> e1, R g, R s) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t rest_count = dim / 2;
  const EffKind k0 = eff_kind(e0);
  const EffKind k1 = eff_kind(e1);
  const std::uint64_t pm_low = pmask & (stride - 1);
  const int pm_q = static_cast<int>((pmask >> q) & 1);
  // Blocked on the measured position so all four streams (two reads,
  // two writes) advance sequentially; CZ-partner signs are constant per
  // block whenever no partner sits below the measured wire.
  for (std::uint64_t hp = 0; hp < rest_count >> q; ++hp) {
    const std::uint64_t i0b = hp << (q + 1);
    const std::uint64_t rb = hp << q;
    const int ph = parity64(i0b & pmask);
    if (pm_low == 0) {
      const bool s0 = ph != 0;
      const bool s1 = (ph ^ pm_q) != 0;
      for (std::uint64_t lo = 0; lo < stride; ++lo) {
        const std::complex<R> a = eff_mul(k0, e0, (x[i0b + lo] * g) * s);
        const std::complex<R> b =
            eff_mul(k1, e1, (x[i0b + stride + lo] * g) * s);
        out[rb + lo] = a + b;
        out[rest_count + rb + lo] = (s0 ? -a : a) + (s1 ? -b : b);
      }
    } else {
      for (std::uint64_t lo = 0; lo < stride; ++lo) {
        const std::complex<R> a = eff_mul(k0, e0, (x[i0b + lo] * g) * s);
        const std::complex<R> b =
            eff_mul(k1, e1, (x[i0b + stride + lo] * g) * s);
        out[rb + lo] = a + b;
        const int s0 = ph ^ parity64(lo & pm_low);
        out[rest_count + rb + lo] = (s0 ? -a : a) + ((s0 ^ pm_q) ? -b : b);
      }
    }
  }
}

template <class R>
void s_teleport_collapse_range(const std::complex<R>* x, std::complex<R>* out,
                               std::uint64_t dim, int q, std::uint64_t pmask,
                               std::complex<R> e0, std::complex<R> e1, R g,
                               R s, std::uint64_t r_begin, std::uint64_t r_end,
                               R* fold_lo, R* fold_hi) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t rest_count = dim / 2;
  const EffKind k0 = eff_kind(e0);
  const EffKind k1 = eff_kind(e1);
  FoldAcc<R> acc_lo;
  FoldAcc<R> acc_hi;
  // Per-rank form of the blocked loop above: i0 = insert_zero_bit(r, q),
  // sign = parity(i0 & pmask) since bit q of i0 is clear.  Bit-identical
  // to the full pass restricted to [r_begin, r_end); the two slice folds
  // restart their lanes at the slice start (the chunk-driver contract).
  for (std::uint64_t r = r_begin; r < r_end; ++r) {
    const std::uint64_t i0 = insert_zero_bit(r, q);
    const std::complex<R> a = eff_mul(k0, e0, (x[i0] * g) * s);
    const std::complex<R> b = eff_mul(k1, e1, (x[i0 | stride] * g) * s);
    out[r] = a + b;
    acc_lo.add(out[r]);
    const int s0 = parity64(i0 & pmask);
    const int s1 = s0 ^ static_cast<int>((pmask >> q) & 1);
    out[rest_count + r] = (s0 ? -a : a) + (s1 ? -b : b);
    acc_hi.add(out[rest_count + r]);
  }
  *fold_lo = acc_lo.combine();
  *fold_hi = acc_hi.combine();
}

template <class R>
R s_add_plus_cz(std::complex<R>* x, std::uint64_t old_dim, std::uint64_t pmask,
                R s) {
  FoldAcc<R> acc;
  for (std::uint64_t i = 0; i < old_dim; ++i) {
    x[i] *= s;
    acc.add(x[i]);
  }
  for (std::uint64_t i = 0; i < old_dim; ++i) {
    std::complex<R> v = x[i];
    if (parity64(i & pmask)) v = -v;
    x[old_dim + i] = v;
    acc.add(v);
  }
  return acc.combine();
}

template <class R>
R s_mirror_cz_range(std::complex<R>* x, std::uint64_t old_dim,
                    std::uint64_t i_begin, std::uint64_t i_end,
                    std::uint64_t pmask) {
  FoldAcc<R> acc;
  for (std::uint64_t i = i_begin; i < i_end; ++i) {
    std::complex<R> v = x[i];
    if (parity64(i & pmask)) v = -v;
    x[old_dim + i] = v;
    acc.add(v);
  }
  return acc.combine();
}

template <class R>
void s_sign_pass(std::complex<R>* x, std::uint64_t n, std::uint64_t eq_mask,
                 std::uint64_t par_mask, bool negate) {
  for (std::uint64_t j = 0; j < n; ++j) {
    const bool eq = eq_mask != 0 && (j & eq_mask) == eq_mask;
    if (eq ^ (parity64(j & par_mask) != 0) ^ negate) x[j] = -x[j];
  }
}

template <class R>
void s_cz_masks_pass(std::complex<R>* x, std::uint64_t n,
                     const std::uint64_t* pair_masks, int count) {
  for (std::uint64_t i = 0; i < n; ++i) {
    int flips = 0;
    for (int m = 0; m < count; ++m)
      flips ^= static_cast<int>((i & pair_masks[m]) == pair_masks[m]);
    if (flips) x[i] = -x[i];
  }
}

template <class R>
void s_pauli_swap_pass(std::complex<R>* x, std::uint64_t n,
                       std::uint64_t xmask, std::uint64_t zmask,
                       std::uint64_t eq_mask, bool negate) {
  const int hb = 63 - std::countl_zero(xmask);
  for (std::uint64_t j = 0; j < n; ++j) {
    if (get_bit(j, hb)) continue;  // each {j, j^xmask} pair handled once
    const std::uint64_t j2 = j ^ xmask;
    const bool eq_j2 = eq_mask != 0 && (j2 & eq_mask) == eq_mask;
    const bool eq_j = eq_mask != 0 && (j & eq_mask) == eq_mask;
    const bool flip_j = eq_j2 ^ (parity64(j & zmask) != 0) ^ negate;
    const bool flip_j2 = eq_j ^ (parity64(j2 & zmask) != 0) ^ negate;
    const std::complex<R> t = x[j];
    x[j] = flip_j ? -x[j2] : x[j2];
    x[j2] = flip_j2 ? -t : t;
  }
}

template <class R>
void s_pauli_swap_range(std::complex<R>* x, std::uint64_t xmask,
                        std::uint64_t zmask, std::uint64_t eq_mask, bool negate,
                        std::uint64_t p_begin, std::uint64_t p_end) {
  // The full pass visits j ascending with bit hb clear — exactly
  // j = insert_zero_bit(p, hb) for pair rank p ascending.
  const int hb = 63 - std::countl_zero(xmask);
  for (std::uint64_t p = p_begin; p < p_end; ++p) {
    const std::uint64_t j = insert_zero_bit(p, hb);
    const std::uint64_t j2 = j ^ xmask;
    const bool eq_j2 = eq_mask != 0 && (j2 & eq_mask) == eq_mask;
    const bool eq_j = eq_mask != 0 && (j & eq_mask) == eq_mask;
    const bool flip_j = eq_j2 ^ (parity64(j & zmask) != 0) ^ negate;
    const bool flip_j2 = eq_j ^ (parity64(j2 & zmask) != 0) ^ negate;
    const std::complex<R> t = x[j];
    x[j] = flip_j ? -x[j2] : x[j2];
    x[j2] = flip_j2 ? -t : t;
  }
}

template <class R>
void s_phase_pass(std::complex<R>* x, std::uint64_t n, int q,
                  std::complex<R> e) {
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t pairs = n / 2;
  for (std::uint64_t k = 0; k < pairs; ++k) {
    const std::uint64_t i1 = insert_zero_bit(k, q) | stride;
    x[i1] = cmul(e, x[i1]);
  }
}

template <class R>
constexpr CollapseKernelsT<R> kScalarTable = {
    SimdIsa::Scalar,
    s_fold_norms<R>,
    s_fold_norms_scaled<R>,
    s_prep_total_fold<R>,
    s_scale_fold<R>,
    s_collapse_pairs<R>,
    s_prep_collapse<R>,
    s_teleport_collapse<R>,
    s_add_plus_cz<R>,
    s_sign_pass<R>,
    s_cz_masks_pass<R>,
    s_pauli_swap_pass<R>,
    s_phase_pass<R>,
    s_teleport_collapse_range<R>,
    s_mirror_cz_range<R>,
    s_pauli_swap_range<R>,
};

}  // namespace

const CollapseKernels& scalar_kernels() noexcept {
  return kScalarTable<double>;
}

const CollapseKernelsF32& scalar_kernels_f32() noexcept {
  return kScalarTable<float>;
}

template <>
const CollapseKernelsT<double>& scalar_kernels_t<double>() noexcept {
  return kScalarTable<double>;
}

template <>
const CollapseKernelsT<float>& scalar_kernels_t<float>() noexcept {
  return kScalarTable<float>;
}

}  // namespace mbq

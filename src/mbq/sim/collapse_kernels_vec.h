#pragma once
// Shared vector implementation of the collapse kernels.
//
// Each ISA TU (collapse_kernels_{avx2,avx512,neon}.cpp) supplies a small
// Traits type — an element type R (double or float), W elements per
// register plus load/store/add/mul and three sign-bit xors — and
// instantiates make_vec_table<Traits>.  Everything else (lane
// bookkeeping, effect products, delegation rules) lives here ONCE, so
// the flavors cannot drift apart.
//
// Bitwise identity with the scalar reference comes from two facts:
//  * elementwise ops (mul/add/xor per lane) are the same IEEE operations
//    the scalar kernel performs, in the same per-element order — complex
//    products use explicit mul+add (never FMA), negation is a sign-bit
//    xor (exact), and a−b is computed as a+(−b) (IEEE-identical);
//  * folds keep the canonical kFoldLanes<R> lane accumulators in vector
//    registers: a W-wide chunk at stream position m (m ≡ 0 mod W) adds
//    its squares to lanes m..m+W−1 mod L, which is exactly what the
//    scalar reference's running lanes receive.
// A few shapes delegate to the scalar table — same bits, just slower:
//  * sizes or slices off the lane quantum (not a multiple of L/2
//    amplitudes; real registers are powers of two, so only tiny dims);
//  * a teleport CZ partner below a measured wire at or above one
//    register (the ± signs would vary inside a register);
//  * Pauli swaps whose X mask touches the positions inside one register
//    (the swap would pair lanes of one register);
//  * collapse_pairs and phase_pass on a wire inside one register.
// A teleport of a wire inside one register gathers its pairs into
// registers instead (teleport_narrow).  In every bench family half the
// mixer's J steps take that path (they measure register position 0);
// the other half measure the top position, the widest stride.

#include <bit>
#include <cstdint>
#include <type_traits>

#include "mbq/common/bits.h"
#include "mbq/common/error.h"
#include "mbq/sim/collapse_kernels.h"

namespace mbq::detail {

inline constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// The unsigned integer carrying R's sign bit.
template <class R>
using UIntOf = std::conditional_t<sizeof(R) == 8, std::uint64_t, std::uint32_t>;

template <class R>
inline constexpr UIntOf<R> kSignBitU = UIntOf<R>{1} << (sizeof(R) * 8 - 1);

template <class T>
struct VecKernels {
  using R = typename T::R;            // element type (double or float)
  using C = std::complex<R>;
  using U = UIntOf<R>;
  static constexpr int kW = T::kW;    // elements per register
  static constexpr int kWc = kW / 2;  // complex amplitudes per register
  static constexpr int kL = kFoldLanes<R>;  // canonical fold lanes
  static constexpr int kQ = kL / 2;   // delegation quantum, in amplitudes
  using V = typename T::V;

  // std::complex<R> is array-layout-compatible with R[2].
  static const R* dp(const C* x) noexcept {
    return reinterpret_cast<const R*>(x);
  }
  static R* dp(C* x) noexcept { return reinterpret_cast<R*>(x); }

  static constexpr R sign_word(bool flip) noexcept {
    return std::bit_cast<R>(flip ? kSignBitU<R> : U{0});
  }

  /// The canonical kL-lane fold held in kL/W vector registers; add()
  /// consumes one W-wide chunk (stream position multiple of W, fed in
  /// ascending order from a position ≡ 0 mod kL).  Each chunk adds into
  /// v[0] and the set rotates, so every index is a compile-time constant
  /// and the set stays in registers (a runtime slot index kept it on the
  /// stack); after whole kQ quanta — kNV chunks each — it is back in
  /// lane order.
  struct Acc {
    static constexpr int kNV = kL / kW;
    V v[kNV];
    std::uint64_t chunks = 0;
    Acc() noexcept {
      for (int i = 0; i < kNV; ++i) v[i] = T::zero();
    }
    void add(V x) noexcept {
      const V first = T::add(v[0], T::mul(x, x));
      for (int i = 0; i + 1 < kNV; ++i) v[i] = v[i + 1];
      v[kNV - 1] = first;
      ++chunks;
    }
    R combine() const {
      MBQ_ASSERT(chunks % kNV == 0);
      alignas(64) R a[kL];
      for (int i = 0; i < kNV; ++i) T::store(a + i * kW, v[i]);
      return fold_combine<R>(a);
    }
  };

  /// Broadcast measurement effect; apply() performs per complex lane
  /// exactly the scalar eff_mul (Generic re uses a+(−b), IEEE-identical
  /// to the scalar a−b).
  struct Eff {
    EffKind k;
    V er, ei;
    explicit Eff(C e) noexcept
        : k(eff_kind(e)), er(T::set1(e.real())), ei(T::set1(e.imag())) {}
    V apply(V u) const noexcept {
      switch (k) {
        case EffKind::Real:
          return T::mul(u, er);
        case EffKind::Imag:
          return T::neg_even(T::mul(T::swap_pairs(u), ei));
        default:
          return T::add(T::mul(u, er),
                        T::neg_even(T::mul(T::swap_pairs(u), ei)));
      }
    }
  };

  /// Per-chunk sign masks for (−1)^parity(i & pmask) over kWc
  /// consecutive amplitudes: the low pmask bits fix a pattern within the
  /// chunk, the high bits a per-chunk base parity selecting m[0] or m[1].
  struct PairSigns {
    V m[2];
    std::uint64_t pm_hi;
    explicit PairSigns(std::uint64_t pmask) noexcept {
      const std::uint64_t pm_lo = pmask & (std::uint64_t(kWc) - 1);
      pm_hi = pmask & ~(std::uint64_t(kWc) - 1);
      alignas(64) R b0[kW], b1[kW];
      for (int t = 0; t < kWc; ++t) {
        const bool bit = parity64(std::uint64_t(t) & pm_lo) != 0;
        b0[2 * t] = b0[2 * t + 1] = sign_word(bit);
        b1[2 * t] = b1[2 * t + 1] = sign_word(!bit);
      }
      m[0] = T::load(b0);
      m[1] = T::load(b1);
    }
    V at(std::uint64_t base) const noexcept {
      return m[parity64(base & pm_hi)];
    }
  };

  static R fold_norms(const C* x, std::uint64_t n) {
    if (n % kQ != 0) return scalar_kernels_t<R>().fold_norms(x, n);
    const R* p = dp(x);
    Acc acc;
    for (std::uint64_t m = 0; m < 2 * n; m += kW) acc.add(T::load(p + m));
    return acc.combine();
  }

  /// (v·g)·s per lane: the pending gain first, then the op's own
  /// scale — the two roundings a settled register would have seen.
  static V gain_scale(V v, V gv, V sv) noexcept {
    return T::mul(T::mul(v, gv), sv);
  }

  static R fold_norms_scaled(const C* x, std::uint64_t n, R g, R s) {
    if (n % kQ != 0)
      return scalar_kernels_t<R>().fold_norms_scaled(x, n, g, s);
    const R* p = dp(x);
    const V gv = T::set1(g), sv = T::set1(s);
    Acc acc;
    for (std::uint64_t m = 0; m < 2 * n; m += kW)
      acc.add(gain_scale(T::load(p + m), gv, sv));
    return acc.combine();
  }

  static R prep_total_fold(const C* x, std::uint64_t n, R g, R s) {
    if (n % kQ != 0) return scalar_kernels_t<R>().prep_total_fold(x, n, g, s);
    const R* p = dp(x);
    const V gv = T::set1(g), sv = T::set1(s);
    Acc acc;  // ONE carried accumulator set across both sweeps
    for (int sweep = 0; sweep < 2; ++sweep)
      for (std::uint64_t m = 0; m < 2 * n; m += kW)
        acc.add(gain_scale(T::load(p + m), gv, sv));
    return acc.combine();
  }

  static R scale_fold(C* x, std::uint64_t n, R inv) {
    if (n % kQ != 0) return scalar_kernels_t<R>().scale_fold(x, n, inv);
    R* p = dp(x);
    const V iv = T::set1(inv);
    Acc acc;
    for (std::uint64_t m = 0; m < 2 * n; m += kW) {
      const V v = T::mul(T::load(p + m), iv);
      T::store(p + m, v);
      acc.add(v);
    }
    return acc.combine();
  }

  static R collapse_pairs(const C* x, C* out, std::uint64_t pairs, int q,
                          C e0, C e1) {
    const std::uint64_t stride = std::uint64_t{1} << q;
    if (pairs % kQ != 0 || stride < std::uint64_t(kWc))
      return scalar_kernels_t<R>().collapse_pairs(x, out, pairs, q, e0, e1);
    const R* p = dp(x);
    R* o = dp(out);
    const Eff f0(e0), f1(e1);
    Acc acc;
    for (std::uint64_t k = 0; k < pairs; k += kWc) {
      const std::uint64_t i0 = insert_zero_bit(k, q);
      const V a = f0.apply(T::load(p + 2 * i0));
      const V b = f1.apply(T::load(p + 2 * (i0 | stride)));
      const V r = T::add(a, b);
      T::store(o + 2 * k, r);
      acc.add(r);
    }
    return acc.combine();
  }

  static R prep_collapse(const C* x, C* out, std::uint64_t dim,
                         std::uint64_t pmask, C e0, C e1, R g, R s) {
    if (dim % kQ != 0)
      return scalar_kernels_t<R>().prep_collapse(x, out, dim, pmask, e0, e1,
                                                 g, s);
    const R* p = dp(x);
    R* o = dp(out);
    const V gv = T::set1(g), sv = T::set1(s);
    const Eff f0(e0), f1(e1);
    const PairSigns signs(pmask);
    Acc acc;
    for (std::uint64_t i = 0; i < dim; i += kWc) {
      const V low = gain_scale(T::load(p + 2 * i), gv, sv);
      const V up = T::xor_signs(low, signs.at(i));  // sign BEFORE effect
      const V r = T::add(f0.apply(low), f1.apply(up));
      T::store(o + 2 * i, r);
      acc.add(r);
    }
    return acc.combine();
  }

  /// Teleport projection for a measured wire q below one register
  /// (stride < kWc), the shape of the J steps that measure register
  /// position 0.  A kWc-rank step from rank r (r ≡ 0 mod kWc) reads the
  /// contiguous block [2r, 2r + 2·kWc); lane t's pair is
  /// (2r + j_t, 2r + j_t + 2^q) with j_t = insert_zero_bit(t, q).  The
  /// step gathers the lower and upper members into two registers through
  /// a stack buffer; q is a template argument, so the gather indices are
  /// constants and the compiler can keep the gather in registers.  The
  /// bits of 2r and of j_t are disjoint, so the CZ-partner sign
  /// parity((2r + j_t) & pmask) is a per-block base parity times a
  /// per-lane pattern, served from two tables the way PairSigns serves
  /// prep_collapse; partners below q need no special case.  Ranks
  /// [r_begin, r_end) must sit on the kWc grid; with kFold the two
  /// output halves fold into fresh accumulator sets.
  template <bool kFold, int Q = 0>
  static void teleport_narrow(const C* x, C* out, std::uint64_t dim, int q,
                              std::uint64_t pmask, C e0, C e1, R g, R s,
                              std::uint64_t r_begin, std::uint64_t r_end,
                              R* fold_lo, R* fold_hi) {
    if constexpr ((2 << Q) < kWc) {  // Q + 1 is narrow too
      if (q != Q)
        return teleport_narrow<kFold, Q + 1>(x, out, dim, q, pmask, e0, e1, g,
                                             s, r_begin, r_end, fold_lo,
                                             fold_hi);
    }
    constexpr int kStride = 1 << Q;
    const std::uint64_t rest_count = dim / 2;
    const bool pm_q = ((pmask >> Q) & 1) != 0;
    alignas(64) R ta[2][kW], tb[2][kW];  // by the block's base parity
    for (int base = 0; base < 2; ++base) {
      for (int t = 0; t < kWc; ++t) {
        const bool sa =
            (parity64(insert_zero_bit(std::uint64_t(t), Q) & pmask) != 0) !=
            (base != 0);
        ta[base][2 * t] = ta[base][2 * t + 1] = sign_word(sa);
        tb[base][2 * t] = tb[base][2 * t + 1] = sign_word(sa != pm_q);
      }
    }
    const V sign_a[2] = {T::load(ta[0]), T::load(ta[1])};
    const V sign_b[2] = {T::load(tb[0]), T::load(tb[1])};
    const R* p = dp(x);
    R* o = dp(out);
    const V gv = T::set1(g), sv = T::set1(s);
    const Eff f0(e0), f1(e1);
    Acc acc_lo;
    Acc acc_hi;
    for (std::uint64_t r = r_begin; r < r_end; r += kWc) {
      alignas(64) R blk[2 * kW], lo[kW], up[kW];
      T::store(blk, T::load(p + 4 * r));
      T::store(blk + kW, T::load(p + 4 * r + kW));
      for (int t = 0; t < kWc; ++t) {
        const auto j = insert_zero_bit(std::uint64_t(t), Q);
        lo[2 * t] = blk[2 * j];
        lo[2 * t + 1] = blk[2 * j + 1];
        up[2 * t] = blk[2 * (j + kStride)];
        up[2 * t + 1] = blk[2 * (j + kStride) + 1];
      }
      const V a = f0.apply(gain_scale(T::load(lo), gv, sv));
      const V b = f1.apply(gain_scale(T::load(up), gv, sv));
      const int ph = parity64((2 * r) & pmask);
      const V r0 = T::add(a, b);
      const V r1 =  // sign AFTER the product, as in the scalar path
          T::add(T::xor_signs(a, sign_a[ph]), T::xor_signs(b, sign_b[ph]));
      T::store(o + 2 * r, r0);
      T::store(o + 2 * (rest_count + r), r1);
      if constexpr (kFold) {
        acc_lo.add(r0);
        acc_hi.add(r1);
      }
    }
    if constexpr (kFold) {
      *fold_lo = acc_lo.combine();
      *fold_hi = acc_hi.combine();
    }
  }

  static void teleport_collapse(const C* x, C* out, std::uint64_t dim, int q,
                                std::uint64_t pmask, C e0, C e1, R g, R s) {
    const std::uint64_t stride = std::uint64_t{1} << q;
    if (stride < std::uint64_t(kWc) && (dim / 2) % kQ == 0) {
      teleport_narrow<false>(x, out, dim, q, pmask, e0, e1, g, s, 0, dim / 2,
                             nullptr, nullptr);
      return;
    }
    // A partner below a wide-stride measured wire makes the ± signs vary
    // inside a block — rare (no bench-family tape has one); leave it to
    // scalar.
    if (dim % kQ != 0 || stride < std::uint64_t(kWc) ||
        (pmask & (stride - 1)) != 0) {
      scalar_kernels_t<R>().teleport_collapse(x, out, dim, q, pmask, e0, e1,
                                              g, s);
      return;
    }
    const std::uint64_t rest_count = dim / 2;
    const int pm_q = static_cast<int>((pmask >> q) & 1);
    const R* p = dp(x);
    R* o = dp(out);
    const V gv = T::set1(g), sv = T::set1(s);
    const Eff f0(e0), f1(e1);
    for (std::uint64_t hp = 0; hp < rest_count >> q; ++hp) {
      const std::uint64_t i0b = hp << (q + 1);
      const std::uint64_t rb = hp << q;
      const int ph = parity64(i0b & pmask);
      const bool s0 = ph != 0;
      const bool s1 = (ph ^ pm_q) != 0;
      for (std::uint64_t lo = 0; lo < stride; lo += kWc) {
        const V a = f0.apply(gain_scale(T::load(p + 2 * (i0b + lo)), gv, sv));
        const V b = f1.apply(
            gain_scale(T::load(p + 2 * (i0b + stride + lo)), gv, sv));
        T::store(o + 2 * (rb + lo), T::add(a, b));
        const V an = s0 ? T::neg(a) : a;  // sign AFTER the product,
        const V bn = s1 ? T::neg(b) : b;  // as the scalar path always has
        T::store(o + 2 * (rest_count + rb + lo), T::add(an, bn));
      }
    }
  }

  static void teleport_collapse_range(const C* x, C* out, std::uint64_t dim,
                                      int q, std::uint64_t pmask, C e0, C e1,
                                      R g, R s, std::uint64_t r_begin,
                                      std::uint64_t r_end, R* fold_lo,
                                      R* fold_hi) {
    const std::uint64_t stride = std::uint64_t{1} << q;
    // The slice folds restart their lanes at r_begin, so the slice must
    // begin and end on the delegation quantum; partner bits below a
    // wide-stride measured wire go to scalar as in the full pass.
    const bool on_quantum = r_begin % kQ == 0 && (r_end - r_begin) % kQ == 0;
    if (on_quantum && stride < std::uint64_t(kWc)) {
      teleport_narrow<true>(x, out, dim, q, pmask, e0, e1, g, s, r_begin,
                            r_end, fold_lo, fold_hi);
      return;
    }
    if (!on_quantum || stride < std::uint64_t(kWc) ||
        (pmask & (stride - 1)) != 0) {
      scalar_kernels_t<R>().teleport_collapse_range(x, out, dim, q, pmask, e0,
                                                    e1, g, s, r_begin, r_end,
                                                    fold_lo, fold_hi);
      return;
    }
    const std::uint64_t rest_count = dim / 2;
    const int pm_q = static_cast<int>((pmask >> q) & 1);
    const R* p = dp(x);
    R* o = dp(out);
    const V gv = T::set1(g), sv = T::set1(s);
    const Eff f0(e0), f1(e1);
    Acc acc_lo;
    Acc acc_hi;
    // r and stride are both multiples of kWc, so each kWc-wide step
    // stays inside one measured-position block: i0 advances contiguously.
    for (std::uint64_t r = r_begin; r < r_end; r += kWc) {
      const std::uint64_t i0 = insert_zero_bit(r, q);
      const int ph = parity64(i0 & pmask);
      const V a = f0.apply(gain_scale(T::load(p + 2 * i0), gv, sv));
      const V b = f1.apply(gain_scale(T::load(p + 2 * (i0 | stride)), gv, sv));
      const V r0 = T::add(a, b);
      T::store(o + 2 * r, r0);
      acc_lo.add(r0);
      const V an = ph ? T::neg(a) : a;
      const V bn = (ph ^ pm_q) ? T::neg(b) : b;
      const V r1 = T::add(an, bn);
      T::store(o + 2 * (rest_count + r), r1);
      acc_hi.add(r1);
    }
    *fold_lo = acc_lo.combine();
    *fold_hi = acc_hi.combine();
  }

  static R add_plus_cz(C* x, std::uint64_t old_dim, std::uint64_t pmask,
                       R s) {
    if (old_dim % kQ != 0)
      return scalar_kernels_t<R>().add_plus_cz(x, old_dim, pmask, s);
    R* p = dp(x);
    const V sv = T::set1(s);
    const PairSigns signs(pmask);
    Acc acc;  // carried across both halves, ascending
    for (std::uint64_t i = 0; i < old_dim; i += kWc) {
      const V v = T::mul(T::load(p + 2 * i), sv);
      T::store(p + 2 * i, v);
      acc.add(v);
    }
    for (std::uint64_t i = 0; i < old_dim; i += kWc) {
      const V v = T::xor_signs(T::load(p + 2 * i), signs.at(i));
      T::store(p + 2 * (old_dim + i), v);
      acc.add(v);
    }
    return acc.combine();
  }

  static R mirror_cz_range(C* x, std::uint64_t old_dim, std::uint64_t i_begin,
                           std::uint64_t i_end, std::uint64_t pmask) {
    if (i_begin % kQ != 0 || (i_end - i_begin) % kQ != 0)
      return scalar_kernels_t<R>().mirror_cz_range(x, old_dim, i_begin, i_end,
                                                   pmask);
    R* p = dp(x);
    const PairSigns signs(pmask);
    Acc acc;  // fresh lanes, restarting at i_begin (the slice contract)
    for (std::uint64_t i = i_begin; i < i_end; i += kWc) {
      const V v = T::xor_signs(T::load(p + 2 * i), signs.at(i));
      T::store(p + 2 * (old_dim + i), v);
      acc.add(v);
    }
    return acc.combine();
  }

  static void sign_pass(C* x, std::uint64_t n, std::uint64_t eq_mask,
                        std::uint64_t par_mask, bool negate) {
    if (n % kQ != 0) {
      scalar_kernels_t<R>().sign_pass(x, n, eq_mask, par_mask, negate);
      return;
    }
    R* p = dp(x);
    alignas(64) R mb[kW];
    for (std::uint64_t base = 0; base < n; base += kWc) {
      for (int t = 0; t < kWc; ++t) {
        const std::uint64_t j = base + std::uint64_t(t);
        const bool eq = eq_mask != 0 && (j & eq_mask) == eq_mask;
        const bool flip = eq ^ (parity64(j & par_mask) != 0) ^ negate;
        mb[2 * t] = mb[2 * t + 1] = sign_word(flip);
      }
      T::store(p + 2 * base,
               T::xor_signs(T::load(p + 2 * base), T::load(mb)));
    }
  }

  static void cz_masks_pass(C* x, std::uint64_t n,
                            const std::uint64_t* pair_masks, int count) {
    if (n % kQ != 0) {
      scalar_kernels_t<R>().cz_masks_pass(x, n, pair_masks, count);
      return;
    }
    R* p = dp(x);
    alignas(64) R mb[kW];
    for (std::uint64_t base = 0; base < n; base += kWc) {
      for (int t = 0; t < kWc; ++t) {
        const std::uint64_t i = base + std::uint64_t(t);
        int flips = 0;
        for (int m = 0; m < count; ++m)
          flips ^= static_cast<int>((i & pair_masks[m]) == pair_masks[m]);
        mb[2 * t] = mb[2 * t + 1] = sign_word(flips != 0);
      }
      T::store(p + 2 * base,
               T::xor_signs(T::load(p + 2 * base), T::load(mb)));
    }
  }

  static void pauli_swap_pass(C* x, std::uint64_t n, std::uint64_t xmask,
                              std::uint64_t zmask, std::uint64_t eq_mask,
                              bool negate) {
    // xmask touching the intra-chunk bits would pair lanes within one
    // register; scalar handles that shape.
    if (n % kQ != 0 || (xmask & (std::uint64_t(kWc) - 1)) != 0) {
      scalar_kernels_t<R>().pauli_swap_pass(x, n, xmask, zmask, eq_mask,
                                            negate);
      return;
    }
    const int hb = 63 - std::countl_zero(xmask);
    R* p = dp(x);
    alignas(64) R mj[kW], mj2[kW];
    for (std::uint64_t base = 0; base < n; base += kWc) {
      if (get_bit(base, hb)) continue;  // pairs handled once (chunk-uniform)
      const std::uint64_t base2 = base ^ xmask;
      for (int t = 0; t < kWc; ++t) {
        const std::uint64_t j = base + std::uint64_t(t);
        const std::uint64_t j2 = base2 + std::uint64_t(t);
        const bool eq_j2 = eq_mask != 0 && (j2 & eq_mask) == eq_mask;
        const bool eq_j = eq_mask != 0 && (j & eq_mask) == eq_mask;
        const bool flip_j = eq_j2 ^ (parity64(j & zmask) != 0) ^ negate;
        const bool flip_j2 = eq_j ^ (parity64(j2 & zmask) != 0) ^ negate;
        mj[2 * t] = mj[2 * t + 1] = sign_word(flip_j);
        mj2[2 * t] = mj2[2 * t + 1] = sign_word(flip_j2);
      }
      const V vj = T::load(p + 2 * base);
      const V vj2 = T::load(p + 2 * base2);
      T::store(p + 2 * base, T::xor_signs(vj2, T::load(mj)));
      T::store(p + 2 * base2, T::xor_signs(vj, T::load(mj2)));
    }
  }

  static void pauli_swap_range(C* x, std::uint64_t xmask, std::uint64_t zmask,
                               std::uint64_t eq_mask, bool negate,
                               std::uint64_t p_begin, std::uint64_t p_end) {
    // Pair rank p maps to j = insert_zero_bit(p, hb); a kWc-wide step
    // stays contiguous because xmask (hence hb) clears the intra-chunk
    // bits.  No folds here, but the same alignment rules apply.
    if ((xmask & (std::uint64_t(kWc) - 1)) != 0 || p_begin % kWc != 0 ||
        (p_end - p_begin) % kWc != 0) {
      scalar_kernels_t<R>().pauli_swap_range(x, xmask, zmask, eq_mask, negate,
                                             p_begin, p_end);
      return;
    }
    const int hb = 63 - std::countl_zero(xmask);
    R* p = dp(x);
    alignas(64) R mj[kW], mj2[kW];
    for (std::uint64_t pr = p_begin; pr < p_end; pr += kWc) {
      const std::uint64_t base = insert_zero_bit(pr, hb);
      const std::uint64_t base2 = base ^ xmask;
      for (int t = 0; t < kWc; ++t) {
        const std::uint64_t j = base + std::uint64_t(t);
        const std::uint64_t j2 = base2 + std::uint64_t(t);
        const bool eq_j2 = eq_mask != 0 && (j2 & eq_mask) == eq_mask;
        const bool eq_j = eq_mask != 0 && (j & eq_mask) == eq_mask;
        const bool flip_j = eq_j2 ^ (parity64(j & zmask) != 0) ^ negate;
        const bool flip_j2 = eq_j ^ (parity64(j2 & zmask) != 0) ^ negate;
        mj[2 * t] = mj[2 * t + 1] = sign_word(flip_j);
        mj2[2 * t] = mj2[2 * t + 1] = sign_word(flip_j2);
      }
      const V vj = T::load(p + 2 * base);
      const V vj2 = T::load(p + 2 * base2);
      T::store(p + 2 * base, T::xor_signs(vj2, T::load(mj)));
      T::store(p + 2 * base2, T::xor_signs(vj, T::load(mj2)));
    }
  }

  static void phase_pass(C* x, std::uint64_t n, int q, C e) {
    const std::uint64_t stride = std::uint64_t{1} << q;
    if (n % kQ != 0 || stride < std::uint64_t(kWc)) {
      scalar_kernels_t<R>().phase_pass(x, n, q, e);
      return;
    }
    R* p = dp(x);
    // Always the full product: the scalar phase kernel uses cmul
    // unconditionally, and only the Generic form matches it bitwise
    // including zero signs.
    const V er = T::set1(e.real());
    const V ei = T::set1(e.imag());
    const std::uint64_t pairs = n / 2;
    for (std::uint64_t k = 0; k < pairs; k += kWc) {
      const std::uint64_t i1 = insert_zero_bit(k, q) | stride;
      const V u = T::load(p + 2 * i1);
      const V r = T::add(T::mul(u, er),
                         T::neg_even(T::mul(T::swap_pairs(u), ei)));
      T::store(p + 2 * i1, r);
    }
  }
};

template <class T>
const CollapseKernelsT<typename T::R>* make_vec_table(SimdIsa isa) noexcept {
  using K = VecKernels<T>;
  static const CollapseKernelsT<typename T::R> table = {
      isa,
      K::fold_norms,
      K::fold_norms_scaled,
      K::prep_total_fold,
      K::scale_fold,
      K::collapse_pairs,
      K::prep_collapse,
      K::teleport_collapse,
      K::add_plus_cz,
      K::sign_pass,
      K::cz_masks_pass,
      K::pauli_swap_pass,
      K::phase_pass,
      K::teleport_collapse_range,
      K::mirror_cz_range,
      K::pauli_swap_range,
  };
  return &table;
}

}  // namespace mbq::detail

#pragma once
// Runtime-dispatched SIMD kernels for the DynamicStatevector hot loops.
//
// Every amplitude sweep the simulator performs per shot — the
// measure-collapse projections, the fused prep+CZ(+teleport) gadgets,
// the Pauli/CZ sign and swap passes, and every norm fold — goes through
// the function-pointer table below.  The table is resolved ONCE per
// process and per element type (scalar / AVX2 / AVX-512 / NEON, see
// common/cpu.h and the MBQ_SIMD override) and the choice is invisible
// in the results:
//
//   THE BITWISE CONTRACT.  A norm fold over a stream of reals
//   d[0], d[1], ... is defined as kFoldLanes<R> lane accumulators
//       A[j] = Σ d[m]·d[m]   over m ≡ j (mod L), in ascending m,
//   combined by the fixed binary tree in fold_combine below.  A complex
//   amplitude contributes its re then im component as two consecutive
//   stream elements.  For f64, L = 8: scalar keeps eight running
//   doubles; AVX-512 holds all eight lanes in one register, AVX2 in
//   two, NEON in four.  For f32, L = 16 (AVX-512 holds sixteen floats
//   per register; AVX2 two registers, NEON four).  Every flavor
//   performs the IDENTICAL additions in the IDENTICAL order, so the
//   result is bit-for-bit the same on every ISA — within one element
//   type.  f32 results are NOT comparable bitwise to f64 results.
//   Elementwise work (complex products, sign flips, scaling) is
//   trivially exact; no kernel uses FMA (and the build sets
//   -ffp-contract=off so no compiler re-fuses one in).
//
// Born probabilities and renormalization gains are quotients of these
// folds, so the contract is what keeps outcome streams equal across
// ISAs.  Dispatch therefore runs a self-check battery (verify_kernels)
// comparing every vector flavor against the scalar reference on
// deterministic data; a flavor that fails is rejected at dispatch time
// — auto mode falls back down the ladder, a forced MBQ_SIMD flavor
// throws.
//
// NOTE the canonical fold fixes the reduction ORDER once for all ISAs;
// it is intentionally not the old strictly-sequential accumulation, so
// the choice of ISA can never matter.  Heterogeneous fleets (an AVX-512
// host sharding to NEON workers) stay bit-identical for free.
//
// THREADING (see collapse_threaded.h) layers on top without touching
// this contract: above a size cutoff a sweep is DEFINED as fixed-size
// chunks, each folded with its own canonical accumulator set, combined
// by left-to-right addition in ascending chunk order.  The three
// *_range entries below exist so the chunk drivers can run any kernel
// on an arbitrary slice of its index space.

#include <cstdint>
#include <vector>

#include "mbq/common/cpu.h"
#include "mbq/common/types.h"

namespace mbq {

/// Lane count of the canonical fold for element type R (8 for double,
/// 16 for float — one AVX-512 register either way).
template <class R>
inline constexpr int kFoldLanes = sizeof(R) == 8 ? 8 : 16;

/// The fixed lane-combination tree of the canonical fold.  Every flavor
/// and every chunk driver reduces its lane accumulators through exactly
/// this expression.
template <class R>
inline R fold_combine(const R* a) noexcept {
  const R g0 = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
  if constexpr (kFoldLanes<R> == 8) {
    return g0;
  } else {
    const R g1 =
        ((a[8] + a[9]) + (a[10] + a[11])) + ((a[12] + a[13]) + (a[14] + a[15]));
    return g0 + g1;
  }
}

// Measurement-effect coefficients are conjugated basis entries; for the
// pattern planes they are real (X, XY top row, YZ diagonal) or purely
// imaginary (YZ off-diagonal).  The reduced products below compute the
// same VALUES as the full complex multiply whose dropped factor is ±0 —
// only signs of zeros can differ, which no norm, Born probability or
// comparison observes — at a third of the arithmetic.
enum class EffKind : std::uint8_t { Real, Imag, Generic };

template <class R>
inline EffKind eff_kind(const std::complex<R>& e) noexcept {
  if (e.imag() == R{0}) return EffKind::Real;
  if (e.real() == R{0}) return EffKind::Imag;
  return EffKind::Generic;
}

/// The textbook complex product.  operator* on std::complex lowers to
/// the __muldc3 libcall, whose non-NaN fast path computes exactly this —
/// amplitudes and effects are finite and bounded, so inlining it is
/// bit-identical and drops a function call from the innermost loops.
/// (The vector kernels compute re as e.r·u.r + (−(e.i·u.i)), which IEEE
/// defines as exactly the subtraction here.)
template <class R>
inline std::complex<R> cmul(const std::complex<R>& e,
                            const std::complex<R>& u) noexcept {
  return {e.real() * u.real() - e.imag() * u.imag(),
          e.real() * u.imag() + e.imag() * u.real()};
}

template <class R>
inline std::complex<R> eff_mul(EffKind k, const std::complex<R>& e,
                               const std::complex<R>& u) noexcept {
  switch (k) {
    case EffKind::Real:
      return {e.real() * u.real(), e.real() * u.imag()};
    case EffKind::Imag:
      return {-(e.imag() * u.imag()), e.imag() * u.real()};
    default:
      return cmul(e, u);
  }
}

/// One ISA flavor of the hot-loop kernels for element type R.  All
/// folds follow the canonical kFoldLanes<R>-lane scheme above; all
/// entries are safe for any n ≥ 1.  Vector flavors hand a few shapes to
/// the scalar reference, which is bit-identical by the contract: sizes
/// or slices off the lane quantum, a teleport partner below a measured
/// wire at or above one register, Pauli swaps whose X mask touches the
/// positions inside one register, and collapse_pairs on a wire inside
/// one register (see collapse_kernels_vec.h).
template <class R>
struct CollapseKernelsT {
  using C = std::complex<R>;

  SimdIsa isa;

  /// Canonical fold of Σ|x[i]|² over n amplitudes.
  R (*fold_norms)(const C* x, std::uint64_t n);

  // THE GAIN.  The entries below that take a gain g read each element
  // as (x[i]·g)·s: two roundings, first g, then s.  g is the
  // renormalization a fused measure leaves pending (see
  // DynamicStatevector), so the next fused op computes exactly the
  // values a separate scale pass x[i] *= g and then its own ·s would.
  // g = 1 is exact, so one entry serves settled and pending registers.

  /// Canonical fold of Σ|(x[i]·g)·s|² (the values are scaled first; the
  /// squares are of the scaled values, matching what a sequential prep
  /// would have stored).  g = s = 1 is the plain fold of the settled
  /// values.
  R (*fold_norms_scaled)(const C* x, std::uint64_t n, R g, R s);

  /// The fused-prep Born denominator: the norm fold of the DOUBLED
  /// register [x' | ±x'] with x' = (x·g)·s, i.e. the scaled stream
  /// folded twice with ONE carried accumulator set (signs square away
  /// bitwise).
  R (*prep_total_fold)(const C* x, std::uint64_t n, R g, R s);

  /// x[i] *= inv for all i: a renormalization, a settled gain, or the
  /// 1/√2 of the interpreted prep's lower half.
  void (*scale)(C* x, std::uint64_t n, R inv);

  /// measure_remove projection: for pair index k in [0, pairs),
  /// i0 = insert_zero_bit(k, q),
  ///   out[k] = eff_mul(e0, x[i0]) + eff_mul(e1, x[i0 | 1<<q]);
  /// returns the canonical fold over out (ascending k).
  R (*collapse_pairs)(const C* x, C* out, std::uint64_t pairs, int q, C e0,
                      C e1);

  /// Fused-gadget projection (prep_cz_measure): for i in [0, dim),
  ///   low = (x[i]·g)·s;  up = parity(i & pmask) ? −low : low;
  ///   out[i] = eff_mul(e0, low) + eff_mul(e1, up);
  /// (sign applied BEFORE the effect product, as the sequential chain
  /// stores ±values then multiplies — keeps zero-signs identical too);
  /// returns the canonical fold over out.
  R (*prep_collapse)(const C* x, C* out, std::uint64_t dim,
                     std::uint64_t pmask, C e0, C e1, R g, R s);

  /// Fused-teleport projection (prep_cz_teleport_measure), elementwise
  /// only — the unchunked driver folds `out` separately with
  /// fold_norms.  For each pair (i0, i0|1<<q) of the measured wire q:
  ///   a = eff_mul(e0, (x[i0]·g)·s);  b = eff_mul(e1, (x[i0|1<<q]·g)·s);
  ///   out[r]           = a + b                      (new wire bit = 0)
  ///   out[dim/2 + r]   = ±a ± b                     (new wire bit = 1)
  /// with r the pair's rank and the ± signs from parity(i & pmask)
  /// applied AFTER the products, exactly as the scalar code always has.
  void (*teleport_collapse)(const C* x, C* out, std::uint64_t dim, int q,
                            std::uint64_t pmask, C e0, C e1, R g, R s);

  /// Generic sign pass: negate x[j] when
  ///   ((eq_mask != 0) && ((j & eq_mask) == eq_mask))
  ///     ^ parity(j & par_mask) ^ negate.
  /// Covers apply_z (eq = wire bit), apply_cz (eq = pair mask), the
  /// Pauli Z-only correction (par = zmask) and the fused depolarize
  /// sign branch (eq = cz pair, par = zmask).  Exact: fold unaffected.
  void (*sign_pass)(C* x, std::uint64_t n, std::uint64_t eq_mask,
                    std::uint64_t par_mask, bool negate);

  /// A run of CZs: negate x[i] when an odd number of pair_masks are
  /// fully set in i.  One pass instead of `count`.
  void (*cz_masks_pass)(C* x, std::uint64_t n, const std::uint64_t* pair_masks,
                        int count);

  /// Pauli swap pass (xmask != 0): for each index pair {j, j2 = j^xmask}
  /// (j with the top xmask bit clear),
  ///   x[j]  = flip_j  ? −x[j2] : x[j2],
  ///   x[j2] = flip_j2 ? −t     : t          (t = old x[j]), where
  ///   flip_j  = eq(j2) ^ parity(j  & zmask) ^ negate,
  ///   flip_j2 = eq(j)  ^ parity(j2 & zmask) ^ negate,
  ///   eq(i) = (eq_mask != 0) && ((i & eq_mask) == eq_mask).
  /// Covers apply_x, the X-bearing Pauli corrections, and the fused
  /// depolarize swap branch.
  void (*pauli_swap_pass)(C* x, std::uint64_t n, std::uint64_t xmask,
                          std::uint64_t zmask, std::uint64_t eq_mask,
                          bool negate);

  /// Ranged teleport projection for the chunk drivers: pair ranks
  /// r ∈ [r_begin, r_end) of the teleport_collapse definition above,
  /// writing out[r] and out[dim/2 + r] and folding each half of the
  /// slice with its OWN fresh canonical accumulator set (lanes restart
  /// at the slice start), stored to *fold_lo / *fold_hi.  Equal to the
  /// full pass restricted to the slice, with folds equal to chunked
  /// fold_norms over out.
  void (*teleport_collapse_range)(const C* x, C* out, std::uint64_t dim,
                                  int q, std::uint64_t pmask, C e0, C e1, R g,
                                  R s, std::uint64_t r_begin,
                                  std::uint64_t r_end, R* fold_lo, R* fold_hi);

  /// The mirror half of add_wire_plus_cz, ranged: for i ∈ [i_begin,
  /// i_end) with the LOWER half already scaled, x[old_dim + i] =
  /// parity(i & pmask) ? −x[i] : x[i].
  void (*mirror_cz_range)(C* x, std::uint64_t old_dim, std::uint64_t i_begin,
                          std::uint64_t i_end, std::uint64_t pmask);

  /// Ranged pauli_swap_pass over pair ranks p ∈ [p_begin, p_end):
  /// j = insert_zero_bit(p, hb) with hb the top set bit of xmask —
  /// exactly the pairs the full pass visits, in the same order.
  void (*pauli_swap_range)(C* x, std::uint64_t xmask, std::uint64_t zmask,
                           std::uint64_t eq_mask, bool negate,
                           std::uint64_t p_begin, std::uint64_t p_end);
};

/// The default-precision table (the original f64 contract).
using CollapseKernels = CollapseKernelsT<double>;
using CollapseKernelsF32 = CollapseKernelsT<float>;

/// The always-available scalar reference table (also the bit-exactness
/// oracle for verify_kernels).
const CollapseKernels& scalar_kernels() noexcept;
const CollapseKernelsF32& scalar_kernels_f32() noexcept;

template <class R>
const CollapseKernelsT<R>& scalar_kernels_t() noexcept;
template <>
const CollapseKernelsT<double>& scalar_kernels_t<double>() noexcept;
template <>
const CollapseKernelsT<float>& scalar_kernels_t<float>() noexcept;

/// The table for one flavor, or nullptr when the flavor is not compiled
/// into this build or not executable on this host.  Scalar never null.
const CollapseKernels* kernels_for_isa(SimdIsa isa) noexcept;
const CollapseKernelsF32* kernels_for_isa_f32(SimdIsa isa) noexcept;

/// Every flavor this build+host can actually run (always includes
/// Scalar).  The differential tests sweep this list.  The set is the
/// same for both element types — every vector TU provides both tables.
std::vector<SimdIsa> supported_simd_isas();

/// Bit-identity self-check battery: runs every kernel entry of `k`
/// against the scalar reference on deterministic pseudo-random data
/// across a spread of sizes, strides, masks and effect kinds, comparing
/// results bit-for-bit — including the ranged entries and the chunked
/// drivers on one thread (the thread-count sweep is tier-1's
/// SimdKernels.ChunkedDriversBitIdenticalAcrossThreadCounts).  True iff
/// all match.
bool verify_kernels(const CollapseKernels& k);
bool verify_kernels_f32(const CollapseKernelsF32& k);

/// The active table.  First call resolves it: MBQ_SIMD override (forced
/// flavor must exist AND pass verify_kernels, else throws — "rejected at
/// dispatch time"), otherwise best-first auto with fallback past any
/// flavor that fails its self-check.  Cheap afterwards (one atomic
/// acquire load) — call sites fetch it per operation.
const CollapseKernels& kernels();
const CollapseKernelsF32& kernels_f32();

template <class R>
const CollapseKernelsT<R>& kernels_t();
template <>
const CollapseKernelsT<double>& kernels_t<double>();
template <>
const CollapseKernelsT<float>& kernels_t<float>();

/// The flavor kernels() / kernels_f32() currently resolves to (the two
/// element types dispatch independently; under auto they land on the
/// same flavor unless one table fails its battery).
SimdIsa active_simd_isa();
SimdIsa active_simd_isa_f32();

/// Re-dispatch BOTH element types to a specific flavor (testing/bench
/// hook; same validation as a forced MBQ_SIMD).  Affects the whole
/// process.
void force_simd_isa(SimdIsa isa);

namespace detail {
// Per-TU factories: each collapse_kernels_<isa>.cpp returns its tables
// when compiled with the matching ISA flag, nullptr otherwise (the TUs
// are always in the build; their content is preprocessor-gated so a
// build without, say, -mavx512f still links).
const CollapseKernels* avx2_kernels_impl() noexcept;
const CollapseKernels* avx512_kernels_impl() noexcept;
const CollapseKernels* neon_kernels_impl() noexcept;
const CollapseKernelsF32* avx2_kernels_f32_impl() noexcept;
const CollapseKernelsF32* avx512_kernels_f32_impl() noexcept;
const CollapseKernelsF32* neon_kernels_f32_impl() noexcept;
}  // namespace detail

}  // namespace mbq

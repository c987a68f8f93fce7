#pragma once
// Deterministic chunked (and optionally threaded) drivers over the
// collapse-kernel tables, plus the cache-blocked fusions of the
// multi-pass sweeps.
//
// THE CHUNKED CONTRACT.  Above a size cutoff, every sweep is DEFINED as
// a sequence of fixed-size chunks of its index space:
//
//   * chunk size kChunkAmps = 2^11 amplitudes (32 KiB f64 / 16 KiB f32
//     — one block fits in L1d), so a 2^14-amplitude sweep runs as 8
//     chunks and a teleport half as 4: a lone call's kernels spread
//     over four threads;
//   * a sweep whose index space holds >= kChunkCutoffDim = 2^14 entries
//     is chunked; below that it is ONE plain kernel call, bit-identical
//     to what the library always did;
//   * each chunk's fold uses its OWN canonical accumulator set (the
//     lanes restart at the chunk start), and the chunk partials are
//     combined by left-to-right addition in ascending chunk order.
//
// Whether the cutoff triggers depends ONLY on the index-space size —
// never on the thread count.  Threads only decide WHO executes a chunk
// (parallel_for_threads with a static schedule); the work each chunk
// performs and the order partials are combined in are fixed.  Hence
// threaded ≡ single-threaded ≡ scalar bit-for-bit, at every thread
// count, for every ISA flavor — the dispatch battery rejects any flavor
// whose drivers diverge on one thread, and tier-1 sweeps thread counts.
//
// CACHE BLOCKING falls out of the same decomposition: the *_with_total
// drivers compute a sweep's Born denominator AND its projection chunk
// by chunk, so each amplitude block is read once and reused from L1d
// instead of being streamed from DRAM twice.  Fusion never changes
// values: the per-chunk partials and their combination order are
// exactly those of the unfused drivers.
//
// PASS COUNT.  A sampled fused gadget or teleport is one such pass: the
// projection of the outcome its early-drawn uniform picks, with its
// Born total (sim/dynamic_statevector.h).  A YZ or Z gadget, and an XY
// or X J step on a chunked register, know the other outcome's
// projection fold from that same pass, so they re-project only when
// the uniform lies within rounding of 1/2.  Any other sampled measure,
// and every J step below kChunkCutoffDim amplitudes, projects outcome 1
// and re-projects when the draw gives 0: 1.5 passes and fork/joins on
// average.  None of them renormalizes.  The drivers take the gain g the
// previous fused op left pending and apply it to each element as it is
// read, before the op's own scale s.
//
// Where two different drivers can cover the same logical fold (the
// compiled prep_total_fold vs the interpreted add_plus_cz over the
// doubled register; collapse_pairs vs prep_collapse over the same out
// array), their chunk decompositions are aligned by construction —
// both sides chunk the same array at the same boundaries — preserving
// the compiled ≡ interpreted bit-identity the tests assert.

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "mbq/common/bits.h"
#include "mbq/common/parallel.h"
#include "mbq/sim/collapse_kernels.h"

namespace mbq::thr {

/// Amplitudes per chunk (a power of two; 2^11 = 32 KiB of f64 amps).
inline constexpr std::uint64_t kChunkAmps = std::uint64_t{1} << 11;

/// An index space with at least this many entries is chunked.
inline constexpr std::uint64_t kChunkCutoffDim = std::uint64_t{1} << 14;

/// Source-compatible forwards to the one thread budget
/// (common/parallel.h): the kernels run on num_threads() threads.
inline int kernel_threads() noexcept { return num_threads(); }
inline void set_kernel_threads(int n) noexcept { set_num_threads(n); }

/// True when a sweep over `space` entries runs as chunks.
inline bool chunked(std::uint64_t space) noexcept {
  return space >= kChunkCutoffDim && space % kChunkAmps == 0;
}

namespace detail {

/// Chunk-partial slots, reused across calls (the steady-state shot loop
/// performs no allocations; the vector only grows on first use).
template <class R>
inline std::vector<R>& parts() {
  thread_local std::vector<R> v;
  return v;
}

/// Canonical combination of chunk partials: left-to-right addition in
/// ascending chunk order.
template <class R>
inline R combine(const R* p, std::uint64_t n) noexcept {
  R total = p[0];
  for (std::uint64_t c = 1; c < n; ++c) total += p[c];
  return total;
}

/// The doubled register's total from its per-half chunk partials: the
/// upper half's partials equal the lower half's bitwise (signs square
/// away), so each is computed once and added twice, in doubled-array
/// chunk order.
template <class R>
inline R doubled_total(const R* half_parts, std::uint64_t nc) noexcept {
  R total = half_parts[0];
  for (std::uint64_t c = 1; c < nc; ++c) total += half_parts[c];
  for (std::uint64_t c = 0; c < nc; ++c) total += half_parts[c];
  return total;
}

}  // namespace detail

/// Both folds of a fused blocked measure pass.
template <class R>
struct Folds2 {
  R total;  // Born denominator (pre-measure norm fold)
  R proj;   // projection norm fold
};

// --- folds -------------------------------------------------------------------

template <class R>
R fold_norms(const CollapseKernelsT<R>& k, const std::complex<R>* x,
             std::uint64_t n, int threads) {
  if (!chunked(n)) return k.fold_norms(x, n);
  const std::uint64_t nc = n / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.fold_norms(x + c * kChunkAmps, kChunkAmps);
  });
  return detail::combine(p.data(), nc);
}

template <class R>
R fold_norms_scaled(const CollapseKernelsT<R>& k, const std::complex<R>* x,
                    std::uint64_t n, R g, R s, int threads) {
  if (!chunked(n)) return k.fold_norms_scaled(x, n, g, s);
  const std::uint64_t nc = n / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.fold_norms_scaled(x + c * kChunkAmps, kChunkAmps, g, s);
  });
  return detail::combine(p.data(), nc);
}

/// prep_total_fold: the fold of the DOUBLED register [x' | ±x'] with
/// x' = (x·g)·s.  The chunk space is the doubled 2n array.
template <class R>
R prep_total_fold(const CollapseKernelsT<R>& k, const std::complex<R>* x,
                  std::uint64_t n, R g, R s, int threads) {
  if (!chunked(2 * n)) return k.prep_total_fold(x, n, g, s);
  const std::uint64_t nc = n / kChunkAmps;  // chunks per half
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.fold_norms_scaled(x + c * kChunkAmps, kChunkAmps, g, s);
  });
  return detail::doubled_total(p.data(), nc);
}

template <class R>
R scale_fold(const CollapseKernelsT<R>& k, std::complex<R>* x,
             std::uint64_t n, R inv, int threads) {
  if (!chunked(n)) return k.scale_fold(x, n, inv);
  const std::uint64_t nc = n / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.scale_fold(x + c * kChunkAmps, kChunkAmps, inv);
  });
  return detail::combine(p.data(), nc);
}

// --- measure_remove ----------------------------------------------------------

/// collapse_pairs over pair-rank chunks.  A chunk of kChunkAmps ranks
/// maps to a contiguous out slice and (for either stride regime) to
/// offset sub-calls of the plain kernel:
///   stride >= C: i0(k0 + t) = i0(k0) + t for t < C, so the sub-call
///     sees an effective q with stride > its range and reads
///     x + i0(k0) .. and x + i0(k0) + stride;
///   stride <  C: i0(k0 + t) = 2·k0 + i0(t) (k0 is a multiple of
///     stride), so the sub-call runs the same q on x + 2·k0.
template <class R>
R collapse_pairs(const CollapseKernelsT<R>& k, const std::complex<R>* x,
                 std::complex<R>* out, std::uint64_t pairs, int q,
                 std::complex<R> e0, std::complex<R> e1, int threads) {
  if (!chunked(pairs)) return k.collapse_pairs(x, out, pairs, q, e0, e1);
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t nc = pairs / kChunkAmps;
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t k0 = c * kChunkAmps;
    if (stride >= kChunkAmps) {
      p[c] = k.collapse_pairs(x + insert_zero_bit(k0, q), out + k0,
                              kChunkAmps, q, e0, e1);
    } else {
      p[c] = k.collapse_pairs(x + 2 * k0, out + k0, kChunkAmps, q, e0, e1);
    }
  });
  return detail::combine(p.data(), nc);
}

/// Fused measure_remove when the caller has no valid running fold:
/// total = fold_norms(x, 2·pairs) and proj = collapse_pairs(...), with
/// each source block folded in the same chunk pass that consumes it —
/// one read of x instead of two.  Chunk partials and combination order
/// are exactly those of the unfused drivers.
template <class R>
Folds2<R> collapse_pairs_with_total(const CollapseKernelsT<R>& k,
                                    const std::complex<R>* x,
                                    std::complex<R>* out, std::uint64_t pairs,
                                    int q, std::complex<R> e0,
                                    std::complex<R> e1, int threads) {
  if (!chunked(pairs)) {
    // The total keeps the global fold definition (it may chunk at
    // 2·pairs even when the pair space is below the cutoff); below both
    // cutoffs this is EXACTLY the historical two-call sequence.
    const R total = fold_norms(k, x, 2 * pairs, threads);
    const R proj = k.collapse_pairs(x, out, pairs, q, e0, e1);
    return {total, proj};
  }
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t nc = pairs / kChunkAmps;        // projection chunks
  const std::uint64_t nx = (2 * pairs) / kChunkAmps;  // x-fold chunks
  auto& p = detail::parts<R>();
  p.resize(nc + nx);
  R* proj_parts = p.data();
  R* x_parts = p.data() + nc;
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t k0 = c * kChunkAmps;
    if (stride >= kChunkAmps) {
      // The two x blocks this rank chunk reads are themselves aligned
      // x-fold chunks: fold them here, while they are hot.
      const std::uint64_t i0 = insert_zero_bit(k0, q);
      x_parts[i0 / kChunkAmps] = k.fold_norms(x + i0, kChunkAmps);
      x_parts[(i0 + stride) / kChunkAmps] =
          k.fold_norms(x + i0 + stride, kChunkAmps);
      proj_parts[c] =
          k.collapse_pairs(x + i0, out + k0, kChunkAmps, q, e0, e1);
    } else {
      x_parts[2 * c] = k.fold_norms(x + 2 * k0, kChunkAmps);
      x_parts[2 * c + 1] = k.fold_norms(x + 2 * k0 + kChunkAmps, kChunkAmps);
      proj_parts[c] =
          k.collapse_pairs(x + 2 * k0, out + k0, kChunkAmps, q, e0, e1);
    }
  });
  return {detail::combine(x_parts, nx), detail::combine(proj_parts, nc)};
}

// --- fused prep+CZ+measure (prep_cz_measure) ---------------------------------

/// prep_collapse over dim chunks.  The offset sub-call passes the
/// low pmask bits and folds the chunk's base parity into the sign of
/// e1: eff(e1, −u) ≡ eff(−e1, u) bitwise, term by term (IEEE sign
/// symmetry of multiplication), so the sub-call's values are identical
/// to the full pass restricted to the chunk.
template <class R>
R prep_collapse(const CollapseKernelsT<R>& k, const std::complex<R>* x,
                std::complex<R>* out, std::uint64_t dim, std::uint64_t pmask,
                std::complex<R> e0, std::complex<R> e1, R g, R s,
                int threads) {
  if (!chunked(dim))
    return k.prep_collapse(x, out, dim, pmask, e0, e1, g, s);
  const std::uint64_t nc = dim / kChunkAmps;
  const std::uint64_t pm_lo = pmask & (kChunkAmps - 1);
  const std::uint64_t pm_hi = pmask & ~(kChunkAmps - 1);
  auto& p = detail::parts<R>();
  p.resize(nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t i0 = c * kChunkAmps;
    const std::complex<R> e1c = parity64(i0 & pm_hi) ? -e1 : e1;
    p[c] =
        k.prep_collapse(x + i0, out + i0, kChunkAmps, pm_lo, e0, e1c, g, s);
  });
  return detail::combine(p.data(), nc);
}

/// Fused prep_cz_measure: total = prep_total_fold(x, n, g, s) and
/// proj = prep_collapse(...), per chunk — each x block is read once for
/// both folds.  The two results keep their independent chunk contracts
/// (total chunks the doubled 2n array, proj chunks the n array), which
/// meet at the same physical boundaries.
template <class R>
Folds2<R> prep_collapse_with_total(const CollapseKernelsT<R>& k,
                                   const std::complex<R>* x,
                                   std::complex<R>* out, std::uint64_t dim,
                                   std::uint64_t pmask, std::complex<R> e0,
                                   std::complex<R> e1, R g, R s, int threads) {
  if (!chunked(dim)) {
    // The total keeps its own contract (chunked once 2·dim reaches the
    // cutoff); the projection is one plain call.
    const R total = prep_total_fold(k, x, dim, g, s, threads);
    const R proj = k.prep_collapse(x, out, dim, pmask, e0, e1, g, s);
    return {total, proj};
  }
  const std::uint64_t nc = dim / kChunkAmps;
  const std::uint64_t pm_lo = pmask & (kChunkAmps - 1);
  const std::uint64_t pm_hi = pmask & ~(kChunkAmps - 1);
  auto& p = detail::parts<R>();
  p.resize(2 * nc);
  R* x_parts = p.data();
  R* proj_parts = p.data() + nc;
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t i0 = c * kChunkAmps;
    x_parts[c] = k.fold_norms_scaled(x + i0, kChunkAmps, g, s);
    const std::complex<R> e1c = parity64(i0 & pm_hi) ? -e1 : e1;
    proj_parts[c] =
        k.prep_collapse(x + i0, out + i0, kChunkAmps, pm_lo, e0, e1c, g, s);
  });
  return {detail::doubled_total(x_parts, nc), detail::combine(proj_parts, nc)};
}

// --- fused prep+CZ+teleport+measure ------------------------------------------

/// teleport_collapse with the out fold fused into the projection pass
/// (removes the full-vector out re-read the historical
/// teleport_collapse + fold_norms(out) sequence performed).  Returns
/// fold_norms(out, dim) under its chunk contract: each pair-rank chunk
/// writes one lower and one upper out chunk and folds both in place;
/// the partials land in out-chunk order and combine left to right.
template <class R>
R teleport_collapse_fold(const CollapseKernelsT<R>& k,
                         const std::complex<R>* x, std::complex<R>* out,
                         std::uint64_t dim, int q, std::uint64_t pmask,
                         std::complex<R> e0, std::complex<R> e1, R g, R s,
                         int threads) {
  if (!chunked(dim)) {
    k.teleport_collapse(x, out, dim, q, pmask, e0, e1, g, s);
    return fold_norms(k, out, dim, threads);
  }
  const std::uint64_t nch = (dim / 2) / kChunkAmps;  // chunks per half
  auto& p = detail::parts<R>();
  p.resize(2 * nch);
  parallel_for_threads(static_cast<std::int64_t>(nch), threads, [&](auto c) {
    const std::uint64_t r0 = c * kChunkAmps;
    k.teleport_collapse_range(x, out, dim, q, pmask, e0, e1, g, s, r0,
                              r0 + kChunkAmps, &p[c], &p[nch + c]);
  });
  return detail::combine(p.data(), 2 * nch);
}

/// The fused sampled teleport's folds: Folds2's two, plus `swapped`,
/// the projection's chunk partials combined upper half first.
template <class R>
struct TeleportFolds {
  R total;    // Born denominator
  R proj;     // projection norm fold
  R swapped;  // the projection partials, upper-half chunks first
};

/// Fused sampled teleport: total = prep_total_fold(x, dim, g, s) and
/// proj = teleport_collapse_fold(...), each x block folded in the chunk
/// pass that projects it — one read of x instead of two.  A rank chunk
/// c reads two aligned x chunks, whose partials land in
/// prep_total_fold's slots: 2c and 2c + 1 for stride < C, i0/C and
/// (i0 + stride)/C otherwise (i0 = insert_zero_bit(c·C, q)).  Every x
/// chunk is read by exactly one rank chunk, and the slots combine as
/// prep_total_fold's do, so both folds are bit-identical to the unfused
/// pair.
///
/// `swapped` is the other outcome's projection fold when q is among the
/// pmask partners and the other outcome's effects are (e0, −e1), as for
/// the XY and X bases.  Then b = eff(e1, ·) flips sign and the upper
/// half's partner signs are (σ, −σ), so each out half of one outcome
/// equals the other outcome's opposite half element by element up to
/// sign.  Each half-slice partial starts fresh lanes, so its partials
/// are this call's with the halves exchanged, bit for bit.  Chunked
/// registers only: the unchunked branch folds out in one sweep whose
/// lanes run across both halves, and returns NaN here.
template <class R>
TeleportFolds<R> teleport_collapse_with_total(
    const CollapseKernelsT<R>& k, const std::complex<R>* x,
    std::complex<R>* out, std::uint64_t dim, int q, std::uint64_t pmask,
    std::complex<R> e0, std::complex<R> e1, R g, R s, int threads) {
  if (!chunked(dim)) {
    const R total = prep_total_fold(k, x, dim, g, s, threads);
    const R proj =
        teleport_collapse_fold(k, x, out, dim, q, pmask, e0, e1, g, s, threads);
    return {total, proj, std::numeric_limits<R>::quiet_NaN()};
  }
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t nch = (dim / 2) / kChunkAmps;  // rank chunks
  const std::uint64_t nx = dim / kChunkAmps;         // x chunks
  auto& p = detail::parts<R>();
  p.resize(2 * nch + nx);
  R* proj_parts = p.data();
  R* x_parts = p.data() + 2 * nch;
  parallel_for_threads(static_cast<std::int64_t>(nch), threads, [&](auto c) {
    const std::uint64_t r0 = c * kChunkAmps;
    const bool wide = stride >= kChunkAmps;
    const std::uint64_t lo = wide ? insert_zero_bit(r0, q) : 2 * r0;
    const std::uint64_t hi = lo + (wide ? stride : kChunkAmps);
    x_parts[lo / kChunkAmps] = k.fold_norms_scaled(x + lo, kChunkAmps, g, s);
    x_parts[hi / kChunkAmps] = k.fold_norms_scaled(x + hi, kChunkAmps, g, s);
    k.teleport_collapse_range(x, out, dim, q, pmask, e0, e1, g, s, r0,
                              r0 + kChunkAmps, &proj_parts[c],
                              &proj_parts[nch + c]);
  });
  R swapped = proj_parts[nch];
  for (std::uint64_t c = nch + 1; c < 2 * nch; ++c) swapped += proj_parts[c];
  for (std::uint64_t c = 0; c < nch; ++c) swapped += proj_parts[c];
  return {detail::doubled_total(x_parts, nx),
          detail::combine(proj_parts, 2 * nch), swapped};
}

// --- interpreted-path prep (add_wire_plus_cz) --------------------------------

/// add_plus_cz over chunks of the doubled register: the scale pass
/// chunks the lower half in place, then (barrier) the mirror pass
/// chunks the upper half via the ranged kernel.  Partials combine in
/// doubled-array order — bitwise equal to prep_total_fold's chunked
/// result over the same physical array.
template <class R>
R add_plus_cz(const CollapseKernelsT<R>& k, std::complex<R>* x,
              std::uint64_t old_dim, std::uint64_t pmask, R s, int threads) {
  if (!chunked(2 * old_dim)) return k.add_plus_cz(x, old_dim, pmask, s);
  const std::uint64_t nc = old_dim / kChunkAmps;  // chunks per half
  auto& p = detail::parts<R>();
  p.resize(2 * nc);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[c] = k.scale_fold(x + c * kChunkAmps, kChunkAmps, s);
  });
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    p[nc + c] = k.mirror_cz_range(x, old_dim, c * kChunkAmps,
                                  (c + 1) * kChunkAmps, pmask);
  });
  return detail::combine(p.data(), 2 * nc);
}

// --- exact passes (no folds — any decomposition is bit-identical) ------------

template <class R>
void sign_pass(const CollapseKernelsT<R>& k, std::complex<R>* x,
               std::uint64_t n, std::uint64_t eq_mask, std::uint64_t par_mask,
               bool negate, int threads) {
  if (!chunked(n)) {
    k.sign_pass(x, n, eq_mask, par_mask, negate);
    return;
  }
  const std::uint64_t nc = n / kChunkAmps;
  const std::uint64_t eq_lo = eq_mask & (kChunkAmps - 1);
  const std::uint64_t eq_hi = eq_mask & ~(kChunkAmps - 1);
  const std::uint64_t par_lo = par_mask & (kChunkAmps - 1);
  const std::uint64_t par_hi = par_mask & ~(kChunkAmps - 1);
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t j0 = c * kChunkAmps;
    // Split the eq condition: the high bits are constant per chunk.
    const bool hi_match = (j0 & eq_hi) == eq_hi;
    const std::uint64_t eq_sub = (hi_match && eq_lo != 0) ? eq_lo : 0;
    const bool eq_const = eq_mask != 0 && hi_match && eq_lo == 0;
    const bool neg_sub =
        negate ^ eq_const ^ (parity64(j0 & par_hi) != 0);
    k.sign_pass(x + j0, kChunkAmps, eq_sub, par_lo, neg_sub);
  });
}

template <class R>
void cz_masks_pass(const CollapseKernelsT<R>& k, std::complex<R>* x,
                   std::uint64_t n, const std::uint64_t* pair_masks, int count,
                   int threads) {
  // A mask of 0 fires on every index ((i & 0) == 0), which is how a
  // chunk-constant flip is expressed below; cap the per-chunk list.
  if (!chunked(n) || count > 64) {
    k.cz_masks_pass(x, n, pair_masks, count);
    return;
  }
  const std::uint64_t nc = n / kChunkAmps;
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t i0 = c * kChunkAmps;
    std::array<std::uint64_t, 65> sub;
    int sub_count = 0;
    bool const_flip = false;
    for (int m = 0; m < count; ++m) {
      const std::uint64_t hi = pair_masks[m] & ~(kChunkAmps - 1);
      if ((i0 & hi) != hi) continue;  // never fires in this chunk
      const std::uint64_t lo = pair_masks[m] & (kChunkAmps - 1);
      if (lo == 0)
        const_flip = !const_flip;  // fires on every index of the chunk
      else
        sub[static_cast<std::size_t>(sub_count++)] = lo;
    }
    if (const_flip) sub[static_cast<std::size_t>(sub_count++)] = 0;
    if (sub_count == 0) return;
    k.cz_masks_pass(x + i0, kChunkAmps, sub.data(), sub_count);
  });
}

template <class R>
void pauli_swap_pass(const CollapseKernelsT<R>& k, std::complex<R>* x,
                     std::uint64_t n, std::uint64_t xmask, std::uint64_t zmask,
                     std::uint64_t eq_mask, bool negate, int threads) {
  if (!chunked(n) || n / 2 < kChunkAmps) {
    k.pauli_swap_pass(x, n, xmask, zmask, eq_mask, negate);
    return;
  }
  const std::uint64_t nc = (n / 2) / kChunkAmps;  // pair-rank chunks
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    k.pauli_swap_range(x, xmask, zmask, eq_mask, negate, c * kChunkAmps,
                       (c + 1) * kChunkAmps);
  });
}

template <class R>
void phase_pass(const CollapseKernelsT<R>& k, std::complex<R>* x,
                std::uint64_t n, int q, std::complex<R> e, int threads) {
  if (!chunked(n) || n / 2 < kChunkAmps) {
    k.phase_pass(x, n, q, e);
    return;
  }
  const std::uint64_t stride = std::uint64_t{1} << q;
  const std::uint64_t nc = (n / 2) / kChunkAmps;  // pair-rank chunks
  parallel_for_threads(static_cast<std::int64_t>(nc), threads, [&](auto c) {
    const std::uint64_t k0 = c * kChunkAmps;
    if (stride >= kChunkAmps) {
      // The chunk's i1 targets are one contiguous block starting at
      // j0 = i0(k0) | stride >= kChunkAmps; phase it as the upper half
      // of a 2·C register (only indices with the top bit set are read
      // or written, so the pointer backs up safely).
      const std::uint64_t j0 = insert_zero_bit(k0, q) | stride;
      k.phase_pass(x + j0 - kChunkAmps, 2 * kChunkAmps,
                   std::countr_zero(kChunkAmps), e);
    } else {
      // The pattern repeats every 2·stride amps; a rank chunk is the
      // same pass on a contiguous 2·C slice.
      k.phase_pass(x + 2 * k0, 2 * kChunkAmps, q, e);
    }
  });
}

}  // namespace mbq::thr

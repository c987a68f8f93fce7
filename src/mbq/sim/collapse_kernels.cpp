// Kernel dispatch: resolve the active flavor once per process (and per
// element type), guarded by a bit-identity self-check battery against
// the scalar reference.
//
// Resolution order: an MBQ_SIMD override is honored strictly (missing
// flavor or failed self-check THROWS — a forced flavor must never
// silently degrade); auto mode walks best-first (avx512 > avx2 > neon)
// and falls back past anything that is not compiled in, not executable
// here, or fails its self-check, bottoming out at scalar.  The f64 and
// f32 tables dispatch independently (each runs its own battery) but
// share the override and the ladder.

#include "mbq/sim/collapse_kernels.h"

#include <atomic>
#include <bit>
#include <cstring>

#include "mbq/common/error.h"
#include "mbq/sim/collapse_threaded.h"

namespace mbq {

namespace {

// ---- deterministic self-check battery --------------------------------

/// splitmix64: tiny, deterministic, no state shared with mbq::Rng.
std::uint64_t mix64(std::uint64_t& s) noexcept {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

template <class R>
R rand_unit(std::uint64_t& s) noexcept {
  // [-1, 1) with full mantissa churn; exact-zero components appear via
  // the effect products, not the inputs.  The f32 values are the f64
  // draws rounded once — still deterministic.
  return static_cast<R>(static_cast<double>(mix64(s) >> 11) * 0x1.0p-52 - 1.0);
}

template <class R>
void fill(std::vector<std::complex<R>>& buf, std::size_t n,
          std::uint64_t seed) {
  buf.resize(n);
  for (auto& v : buf) v = {rand_unit<R>(seed), rand_unit<R>(seed)};
}

template <class R>
bool same(R a, R b) noexcept {
  using U = std::conditional_t<sizeof(R) == 8, std::uint64_t, std::uint32_t>;
  return std::bit_cast<U>(a) == std::bit_cast<U>(b);
}

template <class R>
bool same(const std::vector<std::complex<R>>& a,
          const std::vector<std::complex<R>>& b) noexcept {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(std::complex<R>)) ==
             0;
}

/// Every kernel entry, against scalar, bit-for-bit, across sizes that
/// exercise both the vector main loops and the delegation shapes.
template <class R>
bool run_battery(const CollapseKernelsT<R>& k) {
  using C = std::complex<R>;
  const CollapseKernelsT<R>& ref = scalar_kernels_t<R>();
  const C effs[] = {{R(0.7071067811865476), R(0.0)},  // Real
                    {R(0.0), R(0.3141592653589793)},  // Imag
                    {R(0.6), R(-0.8)}};               // Generic
  const R kInvSqrt2 = R(0.7071067811865476);
  // A pending renormalization gain: full mantissa, so a flavor that
  // folded it into s (one rounding instead of two) would differ.
  const R kGain = R(1.3270086345276316);
  std::vector<C> x, y, ox, oy;

  const std::size_t sizes[] = {1, 2, 3, 4, 8, 12, 32, 64, 256};
  for (std::size_t n : sizes) {
    fill(x, n, 0xC0FFEE ^ n);
    y = x;
    if (!same(ref.fold_norms(x.data(), n), k.fold_norms(x.data(), n)))
      return false;
    if (!same(ref.fold_norms_scaled(x.data(), n, kGain, R(0.25)),
              k.fold_norms_scaled(x.data(), n, kGain, R(0.25))))
      return false;
    if (!same(ref.prep_total_fold(x.data(), n, kGain, kInvSqrt2),
              k.prep_total_fold(x.data(), n, kGain, kInvSqrt2)))
      return false;
    ref.scale(x.data(), n, R(1.3));
    k.scale(y.data(), n, R(1.3));
    if (!same(x, y)) return false;
  }

  const std::size_t dim = 256;
  for (const C& e0 : effs) {
    for (const C& e1 : effs) {
      for (int q : {0, 1, 2, 3, 5}) {
        fill(x, dim, 0xABCD ^ static_cast<std::uint64_t>(q));
        ox.assign(dim / 2, C{});
        oy.assign(dim / 2, C{});
        const R fa =
            ref.collapse_pairs(x.data(), ox.data(), dim / 2, q, e0, e1);
        const R fb = k.collapse_pairs(x.data(), oy.data(), dim / 2, q, e0, e1);
        if (!same(fa, fb) || !same(ox, oy)) return false;
      }
      for (std::uint64_t pmask : {0x0ULL, 0x1ULL, 0xAULL, 0x2BULL, 0xF0ULL}) {
        fill(x, dim, 0x5EED ^ pmask);
        ox.assign(dim, C{});
        oy.assign(dim, C{});
        const R fa = ref.prep_collapse(x.data(), ox.data(), dim, pmask, e0, e1,
                                       kGain, kInvSqrt2);
        const R fb = k.prep_collapse(x.data(), oy.data(), dim, pmask, e0, e1,
                                     kGain, kInvSqrt2);
        if (!same(fa, fb) || !same(ox, oy)) return false;
        // q = 0..3 covers every stride below one register (up to
        // AVX-512 f32's 8 amplitudes), where the vector flavors gather.
        for (int q : {0, 1, 2, 3, 4}) {
          ox.assign(dim, C{});
          oy.assign(dim, C{});
          ref.teleport_collapse(x.data(), ox.data(), dim, q, pmask, e0, e1,
                                kGain, kInvSqrt2);
          k.teleport_collapse(x.data(), oy.data(), dim, q, pmask, e0, e1,
                              kGain, kInvSqrt2);
          if (!same(ox, oy)) return false;
          // Ranged teleport: slices must agree with scalar's slices
          // bit-for-bit, including the per-slice fold pairs.
          for (const auto& rr :
               {std::pair<std::uint64_t, std::uint64_t>{0, 32},
                std::pair<std::uint64_t, std::uint64_t>{32, 128},
                std::pair<std::uint64_t, std::uint64_t>{0, 128}}) {
            ox.assign(dim, C{});
            oy.assign(dim, C{});
            R fla = R(0), fha = R(0), flb = R(0), fhb = R(0);
            ref.teleport_collapse_range(x.data(), ox.data(), dim, q, pmask, e0,
                                        e1, kGain, kInvSqrt2, rr.first,
                                        rr.second, &fla, &fha);
            k.teleport_collapse_range(x.data(), oy.data(), dim, q, pmask, e0,
                                      e1, kGain, kInvSqrt2, rr.first,
                                      rr.second, &flb, &fhb);
            if (!same(fla, flb) || !same(fha, fhb) || !same(ox, oy))
              return false;
          }
        }
      }
    }
  }

  for (std::uint64_t pmask : {0x0ULL, 0x3ULL, 0x15ULL, 0x81ULL}) {
    // The interpreted prep's mirror half, over two slices.
    fill(x, 2 * dim, 0xADD ^ pmask);
    y = x;
    for (const auto& rr : {std::pair<std::uint64_t, std::uint64_t>{0, 64},
                           std::pair<std::uint64_t, std::uint64_t>{64, 256}}) {
      ref.mirror_cz_range(x.data(), dim, rr.first, rr.second, pmask);
      k.mirror_cz_range(y.data(), dim, rr.first, rr.second, pmask);
      if (!same(x, y)) return false;
    }
  }

  for (std::uint64_t eq : {0x0ULL, 0x6ULL, 0x90ULL}) {
    for (std::uint64_t par : {0x0ULL, 0x5ULL, 0xC3ULL}) {
      for (bool neg : {false, true}) {
        fill(x, dim, eq * 131 + par * 7 + (neg ? 1 : 0));
        y = x;
        ref.sign_pass(x.data(), dim, eq, par, neg);
        k.sign_pass(y.data(), dim, eq, par, neg);
        if (!same(x, y)) return false;
        for (std::uint64_t xm : {0x1ULL, 0x8ULL, 0x22ULL, 0x88ULL}) {
          fill(x, dim, eq * 13 + par * 101 + xm);
          y = x;
          ref.pauli_swap_pass(x.data(), dim, xm, par, eq, neg);
          k.pauli_swap_pass(y.data(), dim, xm, par, eq, neg);
          if (!same(x, y)) return false;
          // Ranged pauli swap over a rank sub-interval.
          fill(x, dim, eq * 17 + par * 29 + xm);
          y = x;
          ref.pauli_swap_range(x.data(), xm, par, eq, neg, 16, 96);
          k.pauli_swap_range(y.data(), xm, par, eq, neg, 16, 96);
          if (!same(x, y)) return false;
        }
      }
    }
  }

  const std::uint64_t masks[] = {0x3, 0x18, 0x41, 0x6};
  for (int count : {1, 2, 4}) {
    fill(x, dim, 0xC2 ^ static_cast<std::uint64_t>(count));
    y = x;
    ref.cz_masks_pass(x.data(), dim, masks, count);
    k.cz_masks_pass(y.data(), dim, masks, count);
    if (!same(x, y)) return false;
  }

  return true;
}

/// The chunk drivers at the cutoff, on one thread: driver(k, 1) must
/// equal driver(scalar, 1) bit-for-bit.  Representative shapes: both
/// stride regimes, mixed high/low masks, the fused *_with_total drivers
/// against their unfused definitions, a pending gain g != 1 on every
/// driver that takes one.  The fused gadget pairs also run at half the
/// cutoff, where only the doubled register is chunked.  Twice the cutoff
/// takes no other branch and is left to test_simd_kernels: its 1 MiB f64
/// input, freed here, would raise glibc's dynamic mmap threshold past a
/// 16-wire register, and a sampling process's peak RSS with it.
/// Strides and mask bits sit around the chunk boundary
/// L = log2(kChunkAmps): L − 1 inside a chunk, L the lowest chunk-index
/// bit, L + 1 above it.
///
/// No thread legs: every process pays this battery on its first kernel
/// call, and a team opened here costs that call up to a second on a
/// busy host.  Team width only decides who runs a chunk, so what a
/// thread leg checks is the drivers' combine order, which is the same
/// code on every host; SimdKernels.ChunkedDriversBitIdenticalAcrossThreadCounts
/// sweeps threads {1, 2, 3, 8} on every flavor, and CI runs tier-1 at
/// budgets 2, 3 and 4.
template <class R>
bool run_driver_battery(const CollapseKernelsT<R>& k) {
  using C = std::complex<R>;
  const CollapseKernelsT<R>& ref = scalar_kernels_t<R>();
  constexpr int L = std::countr_zero(thr::kChunkAmps);
  const std::uint64_t dim = thr::kChunkCutoffDim;  // 2^14: eight chunks
  const R s = R(0.7071067811865476);
  const R g = R(1.3270086345276316);
  const C e0{R(0.6), R(-0.8)};
  const C e1{R(0.0), R(0.3141592653589793)};
  const std::uint64_t pmask = 0x2BULL | (0x5ULL << (L - 1));  // low and high
  // Every check reads its input from x and writes copies of it.
  std::vector<C> x, y, ox, oy;
  fill(x, 2 * dim, 0xD1CE5);
  const auto copy = [&](std::vector<C>& to, std::uint64_t n) {
    to.assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n));
  };
  // The interpreted prep's input: x's lower d amplitudes with the gain
  // settled in place (x·g), ahead of an upper half to overwrite.
  const auto settled = [&](std::vector<C>& to, std::uint64_t d) {
    copy(to, 2 * d);
    ref.scale(to.data(), d, g);
  };

  if (!same(thr::fold_norms(ref, x.data(), dim, 1),
            thr::fold_norms(k, x.data(), dim, 1)))
    return false;
  if (!same(thr::prep_total_fold(ref, x.data(), dim, g, s, 1),
            thr::prep_total_fold(k, x.data(), dim, g, s, 1)))
    return false;

  for (const std::uint64_t d : {dim / 2, dim}) {
    for (int q : {0, L, L + 1}) {  // stride < C, == C, > C
      ox.assign(d, C{});
      const auto fa = thr::collapse_pairs_with_total(ref, x.data(), ox.data(),
                                                     d, q, e0, e1, 1);
      const R ua = thr::fold_norms(ref, x.data(), 2 * d, 1);
      const R pa =
          thr::collapse_pairs(ref, x.data(), ox.data(), d, q, e0, e1, 1);
      if (!same(fa.total, ua) || !same(fa.proj, pa)) return false;  // fusion
      oy.assign(d, C{});
      const auto fb = thr::collapse_pairs_with_total(k, x.data(), oy.data(), d,
                                                     q, e0, e1, 1);
      if (!same(fa.total, fb.total) || !same(fa.proj, fb.proj) ||
          !same(ox, oy))
        return false;
    }

    // The doubled register's total, fused and compiled prep_total_fold
    // reading x with the gain pending; then the interpreted add_plus_cz
    // over the settled register.
    ox.assign(d, C{});
    const auto pa = thr::prep_collapse_with_total(ref, x.data(), ox.data(), d,
                                                  pmask, e0, e1, g, s, 1);
    const R ta = thr::prep_total_fold(ref, x.data(), d, g, s, 1);
    const R ja =
        thr::prep_collapse(ref, x.data(), ox.data(), d, pmask, e0, e1, g, s, 1);
    if (!same(pa.total, ta) || !same(pa.proj, ja)) return false;  // fusion
    oy.assign(d, C{});
    const auto pb = thr::prep_collapse_with_total(k, x.data(), oy.data(), d,
                                                  pmask, e0, e1, g, s, 1);
    if (!same(pa.total, pb.total) || !same(pa.proj, pb.proj) || !same(ox, oy))
      return false;
    settled(y, d);
    thr::add_plus_cz(ref, y.data(), d, pmask, s, 1);
    settled(oy, d);
    thr::add_plus_cz(k, oy.data(), d, pmask, s, 1);
    if (!same(y, oy)) return false;
  }

  // The teleport: its fused Born total against prep_total_fold +
  // teleport_collapse_fold, then the flavor against that.  (At this size
  // both drivers make the same ranged kernel call per chunk, so the
  // fused one stands for both.)  With q among the partners, as in a J
  // step, the partials combined upper half first must be the fold of
  // the other outcome's projection, effects (e0, −e1).
  const R tta = thr::prep_total_fold(ref, x.data(), dim, g, s, 1);
  for (int q : {2, L, L + 1}) {
    const std::uint64_t above = pmask & ~((std::uint64_t{2} << q) - 1);
    for (const std::uint64_t tp : {above, pmask | (std::uint64_t{1} << q)}) {
      ox.assign(dim, C{});
      oy.assign(dim, C{});
      const R fa = thr::teleport_collapse_fold(ref, x.data(), ox.data(), dim,
                                               q, tp, e0, e1, g, s, 1);
      const auto wa = thr::teleport_collapse_with_total(
          ref, x.data(), oy.data(), dim, q, tp, e0, e1, g, s, 1);
      if (!same(wa.total, tta) || !same(wa.proj, fa) || !same(ox, oy))
        return false;  // fusion
      oy.assign(dim, C{});
      const auto wb = thr::teleport_collapse_with_total(
          k, x.data(), oy.data(), dim, q, tp, e0, e1, g, s, 1);
      if (!same(wa.total, wb.total) || !same(wa.proj, wb.proj) ||
          !same(wa.swapped, wb.swapped) || !same(ox, oy))
        return false;
      if (tp != above &&
          !same(wb.swapped, thr::teleport_collapse_fold(k, x.data(), oy.data(),
                                                        dim, q, tp, e0, -e1, g,
                                                        s, 1)))
        return false;  // the other outcome's fold
    }
  }

  const std::uint64_t eqm = (1ULL << L) | 0x6;
  const std::uint64_t parm = (0x5ULL << (L - 1)) | 0x5;
  copy(y, dim);
  thr::sign_pass(ref, y.data(), dim, eqm, parm, false, 1);
  copy(oy, dim);
  thr::sign_pass(k, oy.data(), dim, eqm, parm, false, 1);
  if (!same(y, oy)) return false;

  // The last mask has no bit inside a chunk: a chunk-constant flip.
  const std::uint64_t czm[] = {0x3, (1ULL << L) | 0x18, 1ULL << (L - 1),
                               0x41, 0x3ULL << L};
  copy(y, dim);
  thr::cz_masks_pass(ref, y.data(), dim, czm, 5, 1);
  copy(oy, dim);
  thr::cz_masks_pass(k, oy.data(), dim, czm, 5, 1);
  if (!same(y, oy)) return false;

  for (std::uint64_t xm : {0x22ULL, 1ULL << L}) {
    copy(y, dim);
    thr::pauli_swap_pass(ref, y.data(), dim, xm, parm, eqm, true, 1);
    copy(oy, dim);
    thr::pauli_swap_pass(k, oy.data(), dim, xm, parm, eqm, true, 1);
    if (!same(y, oy)) return false;
  }

  return true;
}

// ---- dispatch --------------------------------------------------------

std::atomic<const CollapseKernels*> g_active{nullptr};
std::atomic<const CollapseKernelsF32*> g_active_f32{nullptr};

/// Strict resolution for a NAMED flavor: must exist here and must pass
/// the battery, else throw — "rejected at dispatch time".
const CollapseKernels* resolve_forced(SimdIsa isa) {
  const CollapseKernels* k = kernels_for_isa(isa);
  MBQ_REQUIRE(k != nullptr,
              "SIMD flavor '" << isa_name(isa)
                              << "' is not available (not compiled into this "
                                 "build or not supported by this CPU)");
  MBQ_REQUIRE(isa == SimdIsa::Scalar || verify_kernels(*k),
              "SIMD flavor '" << isa_name(isa)
                              << "' failed the bit-identity self-check "
                                 "against the scalar reference; rejected at "
                                 "dispatch time");
  return k;
}

const CollapseKernelsF32* resolve_forced_f32(SimdIsa isa) {
  const CollapseKernelsF32* k = kernels_for_isa_f32(isa);
  MBQ_REQUIRE(k != nullptr,
              "SIMD flavor '" << isa_name(isa)
                              << "' is not available for f32 (not compiled "
                                 "into this build or not supported by this "
                                 "CPU)");
  MBQ_REQUIRE(isa == SimdIsa::Scalar || verify_kernels_f32(*k),
              "SIMD flavor '" << isa_name(isa)
                              << "' failed the f32 bit-identity self-check "
                                 "against the scalar reference; rejected at "
                                 "dispatch time");
  return k;
}

const CollapseKernels* resolve() {
  if (const auto forced = simd_env_override()) return resolve_forced(*forced);
  for (const SimdIsa isa : {SimdIsa::Avx512, SimdIsa::Avx2, SimdIsa::Neon}) {
    const CollapseKernels* k = kernels_for_isa(isa);
    if (k != nullptr && verify_kernels(*k)) return k;
  }
  return &scalar_kernels();
}

const CollapseKernelsF32* resolve_f32() {
  if (const auto forced = simd_env_override())
    return resolve_forced_f32(*forced);
  for (const SimdIsa isa : {SimdIsa::Avx512, SimdIsa::Avx2, SimdIsa::Neon}) {
    const CollapseKernelsF32* k = kernels_for_isa_f32(isa);
    if (k != nullptr && verify_kernels_f32(*k)) return k;
  }
  return &scalar_kernels_f32();
}

}  // namespace

bool verify_kernels(const CollapseKernels& k) {
  return run_battery(k) && run_driver_battery(k);
}

bool verify_kernels_f32(const CollapseKernelsF32& k) {
  return run_battery(k) && run_driver_battery(k);
}

const CollapseKernels* kernels_for_isa(SimdIsa isa) noexcept {
  if (!host_supports_isa(isa)) return nullptr;
  switch (isa) {
    case SimdIsa::Scalar: return &scalar_kernels();
    case SimdIsa::Avx2: return detail::avx2_kernels_impl();
    case SimdIsa::Avx512: return detail::avx512_kernels_impl();
    case SimdIsa::Neon: return detail::neon_kernels_impl();
  }
  return nullptr;
}

const CollapseKernelsF32* kernels_for_isa_f32(SimdIsa isa) noexcept {
  if (!host_supports_isa(isa)) return nullptr;
  switch (isa) {
    case SimdIsa::Scalar: return &scalar_kernels_f32();
    case SimdIsa::Avx2: return detail::avx2_kernels_f32_impl();
    case SimdIsa::Avx512: return detail::avx512_kernels_f32_impl();
    case SimdIsa::Neon: return detail::neon_kernels_f32_impl();
  }
  return nullptr;
}

std::vector<SimdIsa> supported_simd_isas() {
  std::vector<SimdIsa> out;
  for (const SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Avx2, SimdIsa::Avx512,
                            SimdIsa::Neon})
    if (kernels_for_isa(isa) != nullptr) out.push_back(isa);
  return out;
}

const CollapseKernels& kernels() {
  const CollapseKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // A concurrent first call resolves to the same table; the double
    // store is idempotent.
    k = resolve();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

const CollapseKernelsF32& kernels_f32() {
  const CollapseKernelsF32* k = g_active_f32.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = resolve_f32();
    g_active_f32.store(k, std::memory_order_release);
  }
  return *k;
}

template <>
const CollapseKernelsT<double>& kernels_t<double>() {
  return kernels();
}

template <>
const CollapseKernelsT<float>& kernels_t<float>() {
  return kernels_f32();
}

SimdIsa active_simd_isa() { return kernels().isa; }

SimdIsa active_simd_isa_f32() { return kernels_f32().isa; }

void force_simd_isa(SimdIsa isa) {
  g_active.store(resolve_forced(isa), std::memory_order_release);
  g_active_f32.store(resolve_forced_f32(isa), std::memory_order_release);
}

}  // namespace mbq

// AVX-512 flavor of the collapse kernels (8 doubles / register — the
// whole canonical fold in ONE accumulator register).
//
// Uses AVX512F only: the sign-bit xors route through the 512-bit
// integer domain (_mm512_xor_si512) instead of requiring DQ's xor_pd,
// so any F-capable host qualifies.  Compiled with -mavx512f and
// -DMBQ_TU_AVX512 when available; nullptr factory otherwise.  No FMA.

#include "mbq/sim/collapse_kernels.h"

#if defined(MBQ_TU_AVX512)

#include <immintrin.h>

#include "mbq/sim/collapse_kernels_vec.h"

namespace mbq::detail {
namespace {

struct Avx512Traits {
  using R = double;
  static constexpr int kW = 8;
  using V = __m512d;

  static V load(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static void store(double* p, V v) noexcept { _mm512_storeu_pd(p, v); }
  static V set1(double x) noexcept { return _mm512_set1_pd(x); }
  static V zero() noexcept { return _mm512_setzero_pd(); }
  static V add(V a, V b) noexcept { return _mm512_add_pd(a, b); }
  static V mul(V a, V b) noexcept { return _mm512_mul_pd(a, b); }
  /// Swap within each 128-bit (re,im) pair: imm 0x55 = 01 per pair.
  /// shuffle(v, v) is the same permutation as permute_pd(v, 0x55),
  /// without GCC 12's -Wmaybe-uninitialized false positive.
  static V swap_pairs(V v) noexcept { return _mm512_shuffle_pd(v, v, 0x55); }
  static V xor_signs(V v, V m) noexcept {
    return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(v),
                                                _mm512_castpd_si512(m)));
  }
  static V neg(V v) noexcept {
    return xor_signs(v, _mm512_castsi512_pd(_mm512_set1_epi64(
                            static_cast<long long>(kSignBit))));
  }
  /// Negate the re lanes (stream-even positions) only.
  static V neg_even(V v) noexcept {
    const long long s = static_cast<long long>(kSignBit);
    return xor_signs(
        v, _mm512_castsi512_pd(_mm512_set_epi64(0, s, 0, s, 0, s, 0, s)));
  }
};

/// f32 flavor: 16 floats / register — the whole canonical 16-lane f32
/// fold in ONE accumulator register.  Still AVX512F only: ps sign xors
/// route through the integer domain (no DQ xor_ps needed).
struct Avx512TraitsF32 {
  using R = float;
  static constexpr int kW = 16;
  using V = __m512;

  static V load(const float* p) noexcept { return _mm512_loadu_ps(p); }
  static void store(float* p, V v) noexcept { _mm512_storeu_ps(p, v); }
  static V set1(float x) noexcept { return _mm512_set1_ps(x); }
  static V zero() noexcept { return _mm512_setzero_ps(); }
  static V add(V a, V b) noexcept { return _mm512_add_ps(a, b); }
  static V mul(V a, V b) noexcept { return _mm512_mul_ps(a, b); }
  /// Swap within each 64-bit (re,im) pair: imm 0xB1 = 2,3,0,1 per lane
  /// quad.
  static V swap_pairs(V v) noexcept { return _mm512_shuffle_ps(v, v, 0xB1); }
  static V xor_signs(V v, V m) noexcept {
    return _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(v),
                                                _mm512_castps_si512(m)));
  }
  static V neg(V v) noexcept {
    return xor_signs(v, _mm512_castsi512_ps(_mm512_set1_epi32(
                            static_cast<int>(kSignBitU<float>))));
  }
  /// Negate the re lanes (stream-even positions) only.
  static V neg_even(V v) noexcept {
    const int s = static_cast<int>(kSignBitU<float>);
    return xor_signs(v, _mm512_castsi512_ps(_mm512_set_epi32(
                            0, s, 0, s, 0, s, 0, s, 0, s, 0, s, 0, s, 0, s)));
  }
};

}  // namespace

const CollapseKernels* avx512_kernels_impl() noexcept {
  return make_vec_table<Avx512Traits>(SimdIsa::Avx512);
}

const CollapseKernelsF32* avx512_kernels_f32_impl() noexcept {
  return make_vec_table<Avx512TraitsF32>(SimdIsa::Avx512);
}

}  // namespace mbq::detail

#else  // !MBQ_TU_AVX512

namespace mbq::detail {
const CollapseKernels* avx512_kernels_impl() noexcept { return nullptr; }
const CollapseKernelsF32* avx512_kernels_f32_impl() noexcept {
  return nullptr;
}
}  // namespace mbq::detail

#endif

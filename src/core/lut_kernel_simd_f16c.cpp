// F16C FP16 path of the AVX2 tier: 8 activations per register.
//
// The FP16 plan stores FP32 images of half-rounded constants and rounds
// every MAC intermediate through binary16. The scalar path does that with
// the software conversions in numerics/half.h; this TU replaces the
// rounding chain with vcvtps2ph/vcvtph2ps round-trips
// (_MM_FROUND_TO_NEAREST_INT), which numerics/half.h matches bit for bit —
// including denormals, NaN payload propagation and the quieting of
// signaling NaNs (verified exhaustively over all 2^32 float and 2^16 half
// patterns). The comparator scan runs on the FP32 images of the
// half-rounded inputs (half -> float is exact, so compares match), reusing
// the 8-lane index helpers shared with the plain AVX2 TU, including the
// register-resident bisection top levels.
//
// Per element the chain is: xh = h2f(f2h(x)); m = f2h(s * xh);
// out = f2h(h2f(m) + t) widened — exactly detail::half_mac. The mul and
// add are explicit (no FMA) and each intermediate is materialized through
// packed binary16, so the wide path is bit-identical to forced scalar.
//
// This TU is compiled with -mavx2 -mf16c only when the toolchain supports
// both; the dispatch TU installs this entry in the avx2 tier's FP16 slot
// only when CPUID also reports f16c (the AVX-512 tiers use the native
// 512-bit conversion forms instead and never route here).
#include <cstddef>
#include <cstdint>

#include "core/lut_kernel_simd.h"
#include "core/lut_kernel_simd_detail.h"

#if !defined(__AVX2__) || !defined(__F16C__)
#error "lut_kernel_simd_f16c.cpp must be compiled with -mavx2 -mf16c"
#endif
#include "core/lut_kernel_simd_avx2_common.h"

namespace nnlut::simd {
namespace {

namespace a2 = avx2detail;

/// round_to_half on 8 lanes: one vcvtps2ph (round-to-nearest-even) and the
/// exact vcvtph2ps widen back.
inline __m256 round8_to_half(__m256 v) {
  return _mm256_cvtph_ps(
      _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

/// detail::half_mac on 8 lanes: every intermediate rounds through binary16.
inline __m256 half_mac8(__m256 ss, __m256 xh, __m256 tt) {
  const __m256 m = round8_to_half(_mm256_mul_ps(ss, xh));
  return round8_to_half(_mm256_add_ps(m, tt));
}

/// The binary16-rounded inputs, as the comparator bank sees them.
inline __m256 load8_half(const float* q) {
  return round8_to_half(_mm256_loadu_ps(q));
}

}  // namespace

void f16c_fp16_eval(const float* bp, std::size_t nb, bool linear,
                    const float* s, const float* t, float* p, std::size_t n) {
  std::size_t i = 0;
  if (nb == 0) {
    const __m256 vs = _mm256_broadcast_ss(s);
    const __m256 vt = _mm256_broadcast_ss(t);
    for (; i + 8 <= n; i += 8) {
      const __m256 xh = round8_to_half(_mm256_loadu_ps(p + i));
      _mm256_storeu_ps(p + i, half_mac8(vs, xh, vt));
    }
  } else if (nb + 1 <= 8) {
    const __m256i lanes = a2::leading_lanes(nb + 1);
    const __m256 vs = _mm256_maskload_ps(s, lanes);
    const __m256 vt = _mm256_maskload_ps(t, lanes);
    i = a2::scan_loop8(p, n, bp, nb, load8_half, [&](float* q, __m256 xh,
                                                     __m256i idx) {
      const __m256 ss = _mm256_permutevar8x32_ps(vs, idx);
      const __m256 tt = _mm256_permutevar8x32_ps(vt, idx);
      _mm256_storeu_ps(q, half_mac8(ss, xh, tt));
    });
  } else if (linear) {
    i = a2::scan_loop8(p, n, bp, nb, load8_half, [&](float* q, __m256 xh,
                                                     __m256i idx) {
      const __m256 ss = _mm256_i32gather_ps(s, idx, 4);
      const __m256 tt = _mm256_i32gather_ps(t, idx, 4);
      _mm256_storeu_ps(q, half_mac8(ss, xh, tt));
    });
  } else {
    const a2::ResidentTreePs rt = a2::load_resident_tree_ps(bp, nb);
    for (; i + 8 <= n; i += 8) {
      const __m256 xh = round8_to_half(_mm256_loadu_ps(p + i));
      const __m256i idx = a2::fp32_bisect8(xh, bp, nb, rt);
      const __m256 ss = _mm256_i32gather_ps(s, idx, 4);
      const __m256 tt = _mm256_i32gather_ps(t, idx, 4);
      _mm256_storeu_ps(p + i, half_mac8(ss, xh, tt));
    }
  }
  if (i < n) detail::scalar_fp16_eval(bp, nb, linear, s, t, p + i, n - i);
}

}  // namespace nnlut::simd

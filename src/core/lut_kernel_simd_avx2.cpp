// AVX2 tier of the LUT plan evaluators: 8 activations per register.
//
// The 8-lane primitives (comparator-bank scan, register-resident bisection,
// exact quantizer, int64 MAC) live in lut_kernel_simd_avx2_common.h, shared
// with the F16C FP16 TU. This TU provides the FP32 and INT32 entry points
// the dispatch table installs for the avx2 tier. (Slope, intercept) fetch
// is a vpermps register permute when the padded bank fits one register
// (<= 8 entries) and a _mm256_i32gather_ps / _epi32 gather otherwise;
// tables past the 32-entry linear-scan cutoff use branchless uniform
// bisection with the first tree levels register-resident.
//
// ISA-invariance: the MAC is an explicit mul then add (never FMA — the
// single-rounding contraction would break bit-identity with the scalar
// tier), the INT32 quantizer reproduces round-half-away-from-zero through
// exact trunc/remainder steps, and int64 accumulators convert to float via
// an exact int64->double bias trick + one correctly-rounded cvtpd2ps, which
// equals the scalar static_cast<float>(int64). Tails shorter than one
// vector run the shared scalar block (internal-linkage copy in this TU).
//
// This TU is compiled with -mavx2 only when the toolchain supports it; the
// dispatch TU never calls into it unless CPUID reports AVX2.
#include <cstddef>
#include <cstdint>

#include "core/lut_kernel_simd.h"
#include "core/lut_kernel_simd_detail.h"

#ifndef __AVX2__
#error "lut_kernel_simd_avx2.cpp must be compiled with -mavx2"
#endif
#include "core/lut_kernel_simd_avx2_common.h"

namespace nnlut::simd {

namespace a2 = avx2detail;

namespace {
/// The FP32 inputs, as the comparator bank sees them.
inline __m256 load8(const float* q) { return _mm256_loadu_ps(q); }
}  // namespace

void avx2_fp32_eval(const float* bp, std::size_t nb, bool linear,
                    const float* s, const float* t, float* p, std::size_t n) {
  std::size_t i = 0;
  if (nb == 0) {
    const __m256 vs = _mm256_broadcast_ss(s);
    const __m256 vt = _mm256_broadcast_ss(t);
    for (; i + 8 <= n; i += 8) {
      const __m256 x = _mm256_loadu_ps(p + i);
      _mm256_storeu_ps(p + i, _mm256_add_ps(_mm256_mul_ps(vs, x), vt));
    }
  } else if (nb + 1 <= 8) {
    // The whole padded bank fits one register: fetch by permute.
    const __m256i lanes = a2::leading_lanes(nb + 1);
    const __m256 vs = _mm256_maskload_ps(s, lanes);
    const __m256 vt = _mm256_maskload_ps(t, lanes);
    i = a2::scan_loop8(p, n, bp, nb, load8, [&](float* q, __m256 x,
                                                __m256i idx) {
      const __m256 ss = _mm256_permutevar8x32_ps(vs, idx);
      const __m256 tt = _mm256_permutevar8x32_ps(vt, idx);
      _mm256_storeu_ps(q, _mm256_add_ps(_mm256_mul_ps(ss, x), tt));
    });
  } else if (linear) {
    i = a2::scan_loop8(p, n, bp, nb, load8, [&](float* q, __m256 x,
                                                __m256i idx) {
      const __m256 ss = _mm256_i32gather_ps(s, idx, 4);
      const __m256 tt = _mm256_i32gather_ps(t, idx, 4);
      _mm256_storeu_ps(q, _mm256_add_ps(_mm256_mul_ps(ss, x), tt));
    });
  } else {
    const a2::ResidentTreePs rt = a2::load_resident_tree_ps(bp, nb);
    for (; i + 8 <= n; i += 8) {
      const __m256 x = _mm256_loadu_ps(p + i);
      const __m256i idx = a2::fp32_bisect8(x, bp, nb, rt);
      const __m256 ss = _mm256_i32gather_ps(s, idx, 4);
      const __m256 tt = _mm256_i32gather_ps(t, idx, 4);
      _mm256_storeu_ps(p + i, _mm256_add_ps(_mm256_mul_ps(ss, x), tt));
    }
  }
  if (i < n) detail::scalar_fp32_eval(bp, nb, linear, s, t, p + i, n - i);
}

void avx2_int32_eval(const std::int32_t* bp, std::size_t nb, bool linear,
                     const std::int32_t* s, const std::int32_t* t, float sx,
                     float so, float* p, std::size_t n) {
  const __m256 vsx = _mm256_set1_ps(sx);
  const __m256 vso = _mm256_set1_ps(so);
  const auto quantized = [vsx](const float* q) {
    return a2::int_quantize8(_mm256_loadu_ps(q), vsx);
  };
  std::size_t i = 0;
  if (nb + 1 <= 8 && nb != 0) {
    const __m256i lanes = a2::leading_lanes(nb + 1);
    const __m256i vs = _mm256_maskload_epi32(s, lanes);
    const __m256i vt = _mm256_maskload_epi32(t, lanes);
    i = a2::scan_loop8(
        p, n, bp, nb, quantized, [&](float* q, __m256i qx, __m256i idx) {
          const __m256i qs = _mm256_permutevar8x32_epi32(vs, idx);
          const __m256i qt = _mm256_permutevar8x32_epi32(vt, idx);
          _mm256_storeu_ps(q, a2::int_mac8(qs, qx, qt, vso));
        });
  } else if (nb == 0 || linear) {
    // With nb == 0 the scan compares nothing and every index is 0.
    i = a2::scan_loop8(
        p, n, bp, nb, quantized, [&](float* q, __m256i qx, __m256i idx) {
          const __m256i qs = _mm256_i32gather_epi32(s, idx, 4);
          const __m256i qt = _mm256_i32gather_epi32(t, idx, 4);
          _mm256_storeu_ps(q, a2::int_mac8(qs, qx, qt, vso));
        });
  } else {
    const a2::ResidentTreeEpi32 rt = a2::load_resident_tree_epi32(bp, nb);
    for (; i + 8 <= n; i += 8) {
      const __m256 x = _mm256_loadu_ps(p + i);
      const __m256i qx = a2::int_quantize8(x, vsx);
      const __m256i idx = a2::int32_bisect8(qx, bp, nb, rt);
      const __m256i qs = _mm256_i32gather_epi32(s, idx, 4);
      const __m256i qt = _mm256_i32gather_epi32(t, idx, 4);
      _mm256_storeu_ps(p + i, a2::int_mac8(qs, qx, qt, vso));
    }
  }
  if (i < n)
    detail::scalar_int32_eval(bp, nb, linear, s, t, sx, so, p + i, n - i);
}

}  // namespace nnlut::simd

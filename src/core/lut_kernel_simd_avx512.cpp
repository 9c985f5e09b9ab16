// AVX-512F tier of the LUT plan evaluators: 16 activations per register.
//
// Identical operation sequence to the AVX2 tier (and therefore to the
// scalar reference), twice the width. The 16-lane primitives live in
// lut_kernel_simd_avx512_common.h, shared with the VNNI TU; this TU
// provides the FP32, FP16 and INT32 entry points the dispatch table
// installs for the avx512 tier. FP16 needs no extra ISA here: the 512-bit
// vcvtps2ph/vcvtph2ps forms are AVX-512F, so the binary16 rounding chain
// runs wide on every AVX-512 machine (bit-identical to numerics/half.h,
// NaN payloads and denormals included).
//
// The same ISA-invariance rules apply: explicit mul then add (no FMA), the
// exact round-half-away-from-zero quantizer, and int64 accumulators
// converted through the exact bias-to-double trick. Tails shorter than one
// vector run the shared scalar block (internal-linkage copy in this TU).
//
// Compiled with -mavx512f only when the toolchain supports it; dispatch
// requires CPUID avx512f before routing here.
#include <cstddef>
#include <cstdint>

#include "core/lut_kernel_simd.h"
#include "core/lut_kernel_simd_detail.h"

#ifndef __AVX512F__
#error "lut_kernel_simd_avx512.cpp must be compiled with -mavx512f"
#endif
#include "core/lut_kernel_simd_avx512_common.h"

namespace nnlut::simd {
namespace {

namespace a5 = avx512detail;

/// round_to_half on 16 lanes: one vcvtps2ph (round-to-nearest-even) and the
/// exact vcvtph2ps widen back. 512-bit forms are plain AVX-512F.
inline __m512 round16_to_half(__m512 v) {
  return _mm512_cvtph_ps(
      _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

/// detail::half_mac on 16 lanes: every intermediate rounds through binary16.
inline __m512 half_mac16(__m512 ss, __m512 xh, __m512 tt) {
  const __m512 m = round16_to_half(_mm512_mul_ps(ss, xh));
  return round16_to_half(_mm512_add_ps(m, tt));
}

/// The values the comparator bank sees: the FP32 inputs, or (FP16 plans)
/// their binary16-rounded images.
inline __m512 load16(const float* q) { return _mm512_loadu_ps(q); }
inline __m512 load16_half(const float* q) {
  return round16_to_half(_mm512_loadu_ps(q));
}

}  // namespace

void avx512_fp32_eval(const float* bp, std::size_t nb, const float* s,
                      const float* t, float* p, std::size_t n) {
  std::size_t i = 0;
  if (nb == 0) {
    const __m512 vs = _mm512_set1_ps(s[0]);
    const __m512 vt = _mm512_set1_ps(t[0]);
    for (; i + 16 <= n; i += 16) {
      const __m512 x = _mm512_loadu_ps(p + i);
      _mm512_storeu_ps(p + i, _mm512_add_ps(_mm512_mul_ps(vs, x), vt));
    }
  } else if (nb + 1 <= 16) {
    const __mmask16 lanes = static_cast<__mmask16>((1u << (nb + 1)) - 1u);
    const __m512 vs = _mm512_maskz_loadu_ps(lanes, s);
    const __m512 vt = _mm512_maskz_loadu_ps(lanes, t);
    i = a5::scan_loop16(p, n, bp, nb, load16, [&](float* q, __m512 x,
                                                  __m512i idx) {
      const __m512 ss = _mm512_permutexvar_ps(idx, vs);
      const __m512 tt = _mm512_permutexvar_ps(idx, vt);
      _mm512_storeu_ps(q, _mm512_add_ps(_mm512_mul_ps(ss, x), tt));
    });
  } else if (nb + 1 == 32) {
    // A vpermt2ps across a register pair covers padded banks of exactly 32
    // entries.
    const __m512 vs_lo = _mm512_loadu_ps(s);
    const __m512 vs_hi = _mm512_loadu_ps(s + 16);
    const __m512 vt_lo = _mm512_loadu_ps(t);
    const __m512 vt_hi = _mm512_loadu_ps(t + 16);
    i = a5::scan_loop16(p, n, bp, nb, load16, [&](float* q, __m512 x,
                                                  __m512i idx) {
      const __m512 ss = _mm512_permutex2var_ps(vs_lo, idx, vs_hi);
      const __m512 tt = _mm512_permutex2var_ps(vt_lo, idx, vt_hi);
      _mm512_storeu_ps(q, _mm512_add_ps(_mm512_mul_ps(ss, x), tt));
    });
  } else {
    i = a5::scan_loop16(p, n, bp, nb, load16, [&](float* q, __m512 x,
                                                  __m512i idx) {
      const __m512 ss = _mm512_i32gather_ps(idx, s, 4);
      const __m512 tt = _mm512_i32gather_ps(idx, t, 4);
      _mm512_storeu_ps(q, _mm512_add_ps(_mm512_mul_ps(ss, x), tt));
    });
  }
  if (i < n) detail::scalar_fp32_eval(bp, nb, s, t, p + i, n - i);
}

void avx512_fp16_eval(const float* bp, std::size_t nb, const float* s,
                      const float* t, float* p, std::size_t n) {
  std::size_t i = 0;
  if (nb == 0) {
    const __m512 vs = _mm512_set1_ps(s[0]);
    const __m512 vt = _mm512_set1_ps(t[0]);
    for (; i + 16 <= n; i += 16) {
      const __m512 xh = round16_to_half(_mm512_loadu_ps(p + i));
      _mm512_storeu_ps(p + i, half_mac16(vs, xh, vt));
    }
  } else if (nb + 1 <= 16) {
    const __mmask16 lanes = static_cast<__mmask16>((1u << (nb + 1)) - 1u);
    const __m512 vs = _mm512_maskz_loadu_ps(lanes, s);
    const __m512 vt = _mm512_maskz_loadu_ps(lanes, t);
    i = a5::scan_loop16(p, n, bp, nb, load16_half, [&](float* q, __m512 xh,
                                                       __m512i idx) {
      const __m512 ss = _mm512_permutexvar_ps(idx, vs);
      const __m512 tt = _mm512_permutexvar_ps(idx, vt);
      _mm512_storeu_ps(q, half_mac16(ss, xh, tt));
    });
  } else if (nb + 1 == 32) {
    const __m512 vs_lo = _mm512_loadu_ps(s);
    const __m512 vs_hi = _mm512_loadu_ps(s + 16);
    const __m512 vt_lo = _mm512_loadu_ps(t);
    const __m512 vt_hi = _mm512_loadu_ps(t + 16);
    i = a5::scan_loop16(p, n, bp, nb, load16_half, [&](float* q, __m512 xh,
                                                       __m512i idx) {
      const __m512 ss = _mm512_permutex2var_ps(vs_lo, idx, vs_hi);
      const __m512 tt = _mm512_permutex2var_ps(vt_lo, idx, vt_hi);
      _mm512_storeu_ps(q, half_mac16(ss, xh, tt));
    });
  } else {
    i = a5::scan_loop16(p, n, bp, nb, load16_half, [&](float* q, __m512 xh,
                                                       __m512i idx) {
      const __m512 ss = _mm512_i32gather_ps(idx, s, 4);
      const __m512 tt = _mm512_i32gather_ps(idx, t, 4);
      _mm512_storeu_ps(q, half_mac16(ss, xh, tt));
    });
  }
  if (i < n) detail::scalar_fp16_eval(bp, nb, s, t, p + i, n - i);
}

void avx512_int32_eval(const std::int32_t* bp, std::size_t nb,
                       const std::int32_t* s, const std::int32_t* t, float sx,
                       float so, float* p, std::size_t n) {
  a5::int32_eval16(bp, nb, s, t, sx, so, p, n, a5::Int64Mac{});
}

}  // namespace nnlut::simd

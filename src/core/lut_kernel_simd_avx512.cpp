// AVX-512F tier of the LUT plan evaluators: 16 activations per register.
//
// Identical operation sequence to the AVX2 tier (and therefore to the
// scalar reference), twice the width. FP16 needs no extra ISA here: the
// 512-bit vcvtps2ph/vcvtph2ps forms are AVX-512F, so the binary16 rounding
// chain runs wide on every AVX-512 machine (bit-identical to
// numerics/half.h, NaN payloads and denormals included).
//
// Comparator results live in mask registers (one k-reg per compare,
// accumulated with mask_add; the scan loop keeps 4 vectors in flight per
// breakpoint broadcast). Tables of up to 32 padded entries fetch
// (slope, intercept) with register permutes — vpermps for banks of <= 16
// padded entries, vpermt2ps across a register pair for exactly 32 — and
// larger ones gather; the scan itself is the same for every table size.
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

#include "core/lut_kernel_simd_detail.h"

#ifndef __AVX512F__
#error "lut_kernel_simd_avx512.cpp must be compiled with -mavx512f"
#endif
#include <immintrin.h>

namespace nnlut::simd {
namespace {

/// Per-lane comparator of the bank: _CMP_NLT_UQ is exactly !(x < d), true
/// for x >= d and for NaN; on the quantized INT32 grid it is x >= d.
inline __mmask16 nlt_mask(__m512 x, const float* d) {
  return _mm512_cmp_ps_mask(x, _mm512_set1_ps(*d), _CMP_NLT_UQ);
}
inline __mmask16 nlt_mask(__m512i qx, const std::int32_t* d) {
  return _mm512_cmp_epi32_mask(qx, _mm512_set1_epi32(*d), _MM_CMPINT_NLT);
}

/// Comparator-bank scan of V vectors of 16 lanes (FP32 or quantized INT32):
/// idx counts the breakpoints each lane does not lie below. The V vectors
/// share each breakpoint broadcast and run V independent compare / mask-add
/// chains; per lane the sequence is the same for any V.
template <int V, typename Vec, typename Bp>
inline void scan16(const Vec (&x)[V], const Bp* bp, std::size_t nb,
                   __m512i (&idx)[V]) {
  const __m512i one = _mm512_set1_epi32(1);
  for (int v = 0; v < V; ++v) idx[v] = _mm512_setzero_si512();
  for (std::size_t j = 0; j < nb; ++j)
    for (int v = 0; v < V; ++v)
      idx[v] = _mm512_mask_add_epi32(idx[v], nlt_mask(x[v], bp + j), idx[v],
                                     one);
}

/// Vectors per trip of the comparator-scan loop below.
constexpr int kScanVectors = 4;

/// The comparator-scan loop over p[0, n) in steps of 16 lanes. `load` maps
/// 16 inputs to the values the bank compares (the FP32 inputs, their
/// binary16-rounded images, or the quantized INT32 grid values); `finish`
/// fetches, multiplies-adds and stores one vector from those values and
/// its segment indices. kScanVectors vectors per trip keep their compare
/// chains in flight together, the remainder goes one vector at a time.
/// Returns where the scalar tail starts.
template <typename Bp, typename Load, typename Finish>
inline std::size_t scan_loop16(float* p, std::size_t n, const Bp* bp,
                               std::size_t nb, Load load, Finish finish) {
  using Vec = decltype(load(p));
  std::size_t i = 0;
  for (; i + 16 * kScanVectors <= n; i += 16 * kScanVectors) {
    Vec x[kScanVectors];
    __m512i idx[kScanVectors];
    for (int v = 0; v < kScanVectors; ++v) x[v] = load(p + i + 16 * v);
    scan16(x, bp, nb, idx);
    for (int v = 0; v < kScanVectors; ++v)
      finish(p + i + 16 * v, x[v], idx[v]);
  }
  for (; i + 16 <= n; i += 16) {
    Vec x[1] = {load(p + i)};
    __m512i idx[1];
    scan16(x, bp, nb, idx);
    finish(p + i, x[0], idx[0]);
  }
  return i;
}

/// detail::int_quantize on 16 lanes, step for step (see the AVX2 twin for
/// the exactness argument).
inline __m512i int_quantize16(__m512 x, __m512 vsx) {
  const __m512 q = _mm512_div_ps(x, vsx);
  const __m512 tr =
      _mm512_roundscale_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m512 r = _mm512_sub_ps(q, tr);
  const __mmask16 away =
      _mm512_cmp_ps_mask(_mm512_abs_ps(r), _mm512_set1_ps(0.5f), _CMP_GE_OQ);
  const __m512i sign_bit = _mm512_set1_epi32(INT32_MIN);
  const __m512 step = _mm512_castsi512_ps(_mm512_or_epi32(
      _mm512_and_epi32(_mm512_castps_si512(q), sign_bit),
      _mm512_castps_si512(_mm512_set1_ps(1.0f))));  // copysign(1, q)
  __m512 rounded = _mm512_mask_add_ps(tr, away, tr, step);
  rounded = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(q, q, _CMP_ORD_Q), rounded);
  rounded = _mm512_min_ps(rounded, _mm512_set1_ps(detail::kIntQClamp));
  rounded = _mm512_max_ps(rounded, _mm512_set1_ps(-detail::kIntQClamp));
  return _mm512_cvttps_epi32(rounded);
}

/// float(q_s * q_x + q_t) * so for 16 lanes; int64 math on two 8-lane
/// halves, exact bias-to-double conversion, one rounding cvtpd2ps each.
inline __m512 int_mac16(__m512i qs, __m512i qx, __m512i qt, __m512 vso) {
  const __m512i bias_i = _mm512_set1_epi64(0x4338000000000000LL);
  const __m512d bias_d = _mm512_set1_pd(6755399441055744.0);  // 2^52 + 2^51
  __m256 f[2];
  for (int h = 0; h < 2; ++h) {
    const __m256i s32 = h == 0 ? _mm512_castsi512_si256(qs)
                               : _mm512_extracti64x4_epi64(qs, 1);
    const __m256i x32 = h == 0 ? _mm512_castsi512_si256(qx)
                               : _mm512_extracti64x4_epi64(qx, 1);
    const __m256i t32 = h == 0 ? _mm512_castsi512_si256(qt)
                               : _mm512_extracti64x4_epi64(qt, 1);
    const __m512i prod = _mm512_mul_epi32(_mm512_cvtepi32_epi64(s32),
                                          _mm512_cvtepi32_epi64(x32));
    const __m512i acc = _mm512_add_epi64(prod, _mm512_cvtepi32_epi64(t32));
    const __m512d d = _mm512_sub_pd(
        _mm512_castsi512_pd(_mm512_add_epi64(acc, bias_i)), bias_d);
    f[h] = _mm512_cvtpd_ps(d);
  }
  const __m512 lo = _mm512_castps256_ps512(f[0]);
  const __m512 hi = _mm512_castps256_ps512(f[1]);
  return _mm512_mul_ps(_mm512_shuffle_f32x4(lo, hi, 0x44), vso);
}

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
    i = scan_loop16(p, n, bp, nb, load16, [&](float* q, __m512 x,
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
    i = scan_loop16(p, n, bp, nb, load16, [&](float* q, __m512 x,
                                                  __m512i idx) {
      const __m512 ss = _mm512_permutex2var_ps(vs_lo, idx, vs_hi);
      const __m512 tt = _mm512_permutex2var_ps(vt_lo, idx, vt_hi);
      _mm512_storeu_ps(q, _mm512_add_ps(_mm512_mul_ps(ss, x), tt));
    });
  } else {
    i = scan_loop16(p, n, bp, nb, load16, [&](float* q, __m512 x,
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
    i = scan_loop16(p, n, bp, nb, load16_half, [&](float* q, __m512 xh,
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
    i = scan_loop16(p, n, bp, nb, load16_half, [&](float* q, __m512 xh,
                                                       __m512i idx) {
      const __m512 ss = _mm512_permutex2var_ps(vs_lo, idx, vs_hi);
      const __m512 tt = _mm512_permutex2var_ps(vt_lo, idx, vt_hi);
      _mm512_storeu_ps(q, half_mac16(ss, xh, tt));
    });
  } else {
    i = scan_loop16(p, n, bp, nb, load16_half, [&](float* q, __m512 xh,
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
  const __m512 vsx = _mm512_set1_ps(sx);
  const __m512 vso = _mm512_set1_ps(so);
  const auto quantized = [vsx](const float* q) {
    return int_quantize16(_mm512_loadu_ps(q), vsx);
  };
  std::size_t i = 0;
  if (nb != 0 && nb + 1 <= 16) {
    const __mmask16 lanes = static_cast<__mmask16>((1u << (nb + 1)) - 1u);
    const __m512i vs = _mm512_maskz_loadu_epi32(lanes, s);
    const __m512i vt = _mm512_maskz_loadu_epi32(lanes, t);
    i = scan_loop16(p, n, bp, nb, quantized,
                    [&](float* q, __m512i qx, __m512i idx) {
                      const __m512i qs = _mm512_permutexvar_epi32(idx, vs);
                      const __m512i qt = _mm512_permutexvar_epi32(idx, vt);
                      _mm512_storeu_ps(q, int_mac16(qs, qx, qt, vso));
                    });
  } else if (nb + 1 == 32) {
    const __m512i vs_lo = _mm512_loadu_si512(s);
    const __m512i vs_hi = _mm512_loadu_si512(s + 16);
    const __m512i vt_lo = _mm512_loadu_si512(t);
    const __m512i vt_hi = _mm512_loadu_si512(t + 16);
    i = scan_loop16(
        p, n, bp, nb, quantized, [&](float* q, __m512i qx, __m512i idx) {
          const __m512i qs = _mm512_permutex2var_epi32(vs_lo, idx, vs_hi);
          const __m512i qt = _mm512_permutex2var_epi32(vt_lo, idx, vt_hi);
          _mm512_storeu_ps(q, int_mac16(qs, qx, qt, vso));
        });
  } else {
    // With nb == 0 the scan compares nothing and every index is 0.
    i = scan_loop16(p, n, bp, nb, quantized,
                    [&](float* q, __m512i qx, __m512i idx) {
                      const __m512i qs = _mm512_i32gather_epi32(idx, s, 4);
                      const __m512i qt = _mm512_i32gather_epi32(idx, t, 4);
                      _mm512_storeu_ps(q, int_mac16(qs, qx, qt, vso));
                    });
  }
  if (i < n) detail::scalar_int32_eval(bp, nb, s, t, sx, so, p + i, n - i);
}

}  // namespace nnlut::simd

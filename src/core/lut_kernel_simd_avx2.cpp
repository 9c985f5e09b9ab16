// AVX2 tier of the LUT plan evaluators: 8 activations per register.
//
// The comparator bank of Eq. 4 maps to `_mm256_cmp_ps(x, d_j, _CMP_NLT_UQ)`
// per breakpoint — one vector compare evaluates 8 comparators at once (the
// scan loop keeps 4 vectors in flight per breakpoint), and the
// mask-accumulate reproduces the scalar index formula (count of
// breakpoints with !(x < d), NaN landing in the padded tail) exactly.
// (Slope, intercept) fetch is a vpermps register permute when the padded
// bank fits one register (<= 8 entries) and a _mm256_i32gather_ps / _epi32
// gather otherwise; the scan itself is the same for every table size.
//
// FP16 plans store FP32 images of half-rounded constants and round every
// MAC intermediate through binary16. This tier replaces the software
// rounding chain of numerics/half.h with F16C vcvtps2ph/vcvtph2ps
// round-trips (_MM_FROUND_TO_NEAREST_INT), which numerics/half.h matches
// bit for bit — including denormals, NaN payload propagation and the
// quieting of signaling NaNs (verified exhaustively over all 2^32 float
// and 2^16 half patterns). Per element the chain is: xh = h2f(f2h(x));
// m = f2h(s * xh); out = f2h(h2f(m) + t) widened — exactly
// detail::half_mac. Every AVX2 CPU ships F16C; dispatch requires both
// CPUID bits before routing here.
//
// ISA-invariance: the MAC is an explicit mul then add (never FMA — the
// single-rounding contraction would break bit-identity with the scalar
// tier), the INT32 quantizer reproduces round-half-away-from-zero through
// exact trunc/remainder steps, and int64 accumulators convert to float via
// an exact int64->double bias trick + one correctly-rounded cvtpd2ps, which
// equals the scalar static_cast<float>(int64). Tails shorter than one
// vector run the shared scalar block (internal-linkage copy in this TU).
//
// This TU is compiled with -mavx2 -mf16c only when the toolchain supports
// both; the dispatch TU never calls into it unless CPUID reports them.
#include <cstddef>
#include <cstdint>

#include "core/lut_kernel_simd.h"
#include "core/lut_kernel_simd_detail.h"

#if !defined(__AVX2__) || !defined(__F16C__)
#error "lut_kernel_simd_avx2.cpp must be compiled with -mavx2 -mf16c"
#endif
#include <immintrin.h>

namespace nnlut::simd {
namespace {

// Lane masks for _mm256_maskload_*: window of k leading -1 lanes starting
// at kLaneMask + (8 - k).
alignas(32) constexpr std::int32_t kLaneMask[16] = {-1, -1, -1, -1, -1, -1,
                                                    -1, -1, 0,  0,  0,  0,
                                                    0,  0,  0,  0};

inline __m256i leading_lanes(std::size_t k) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneMask + (8 - k)));
}

/// One comparator of the 8-lane bank scan. FP32: _CMP_NLT_UQ is exactly
/// !(x < d), true for x >= d and for NaN, and its -1 lanes are subtracted
/// to count. INT32: the -1 lanes of x < d are added, and scan_done counts
/// them down from nb (padded INT32_MAX sentinels never fire because the
/// quantizer saturates below them).
inline __m256i scan_step(__m256i idx, __m256 x, const float* d) {
  const __m256 vd = _mm256_broadcast_ss(d);
  const __m256 ge = _mm256_cmp_ps(x, vd, _CMP_NLT_UQ);
  return _mm256_sub_epi32(idx, _mm256_castps_si256(ge));
}
inline __m256i scan_step(__m256i acc, __m256i qx, const std::int32_t* d) {
  return _mm256_add_epi32(acc, _mm256_cmpgt_epi32(_mm256_set1_epi32(*d), qx));
}
inline __m256i scan_done(__m256i idx, __m256, std::size_t) { return idx; }
inline __m256i scan_done(__m256i acc, __m256i, std::size_t nb) {
  return _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(nb)), acc);
}

/// Comparator-bank scan of V vectors of 8 lanes (FP32 or quantized INT32):
/// idx counts the breakpoints each lane does not lie below. The V vectors
/// share each breakpoint and run V independent compare / accumulate
/// chains; per lane the sequence is the same for any V.
template <int V, typename Vec, typename Bp>
inline void scan8(const Vec (&x)[V], const Bp* bp, std::size_t nb,
                  __m256i (&idx)[V]) {
  for (int v = 0; v < V; ++v) idx[v] = _mm256_setzero_si256();
  for (std::size_t j = 0; j < nb; ++j)
    for (int v = 0; v < V; ++v) idx[v] = scan_step(idx[v], x[v], bp + j);
  for (int v = 0; v < V; ++v) idx[v] = scan_done(idx[v], x[v], nb);
}

/// Vectors per trip of the comparator-scan loop below.
constexpr int kScanVectors = 4;

/// The comparator-scan loop over p[0, n) in steps of 8 lanes. `load` maps
/// 8 inputs to the values the bank compares (the FP32 inputs, their
/// binary16-rounded images, or the quantized INT32 grid values); `finish`
/// fetches, multiplies-adds and stores one vector from those values and
/// its segment indices. kScanVectors vectors per trip keep their compare
/// chains in flight together, the remainder goes one vector at a time.
/// Returns where the scalar tail starts.
template <typename Bp, typename Load, typename Finish>
inline std::size_t scan_loop8(float* p, std::size_t n, const Bp* bp,
                              std::size_t nb, Load load, Finish finish) {
  using Vec = decltype(load(p));
  std::size_t i = 0;
  for (; i + 8 * kScanVectors <= n; i += 8 * kScanVectors) {
    Vec x[kScanVectors];
    __m256i idx[kScanVectors];
    for (int v = 0; v < kScanVectors; ++v) x[v] = load(p + i + 8 * v);
    scan8(x, bp, nb, idx);
    for (int v = 0; v < kScanVectors; ++v) finish(p + i + 8 * v, x[v], idx[v]);
  }
  for (; i + 8 <= n; i += 8) {
    Vec x[1] = {load(p + i)};
    __m256i idx[1];
    scan8(x, bp, nb, idx);
    finish(p + i, x[0], idx[0]);
  }
  return i;
}

/// The quantizer of detail::int_quantize on 8 lanes, step for step:
/// q = x / sx (one correctly-rounded divide), round-half-away-from-zero
/// (exact: r = q - trunc(q) is exact by Sterbenz, |r| >= 0.5 decides the
/// away-step), NaN -> 0, clamp to +-kIntQClamp, truncating convert.
inline __m256i int_quantize8(__m256 x, __m256 vsx) {
  const __m256 q = _mm256_div_ps(x, vsx);
  const __m256 tr = _mm256_round_ps(q, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256 r = _mm256_sub_ps(q, tr);
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 away = _mm256_cmp_ps(_mm256_andnot_ps(sign_bit, r),
                                    _mm256_set1_ps(0.5f), _CMP_GE_OQ);
  const __m256 step = _mm256_or_ps(_mm256_and_ps(q, sign_bit),
                                   _mm256_set1_ps(1.0f));  // copysign(1, q)
  __m256 rounded = _mm256_add_ps(tr, _mm256_and_ps(away, step));
  rounded = _mm256_and_ps(rounded, _mm256_cmp_ps(q, q, _CMP_ORD_Q));
  rounded = _mm256_min_ps(rounded, _mm256_set1_ps(detail::kIntQClamp));
  rounded = _mm256_max_ps(rounded, _mm256_set1_ps(-detail::kIntQClamp));
  return _mm256_cvttps_epi32(rounded);
}

/// float(q_s * q_x + q_t) * so for 8 lanes. The product and sum run in
/// int64 (vpmuldq on sign-extended halves); int64 -> float goes through the
/// exact 2^52+2^51 bias trick into double, then one rounding cvtpd2ps.
inline __m256 int_mac8(__m256i qs, __m256i qx, __m256i qt, __m256 vso) {
  const __m256i bias_i = _mm256_set1_epi64x(0x4338000000000000LL);
  const __m256d bias_d = _mm256_set1_pd(6755399441055744.0);  // 2^52 + 2^51
  __m128 f[2];
  for (int h = 0; h < 2; ++h) {
    const __m128i s32 = h == 0 ? _mm256_castsi256_si128(qs)
                               : _mm256_extracti128_si256(qs, 1);
    const __m128i x32 = h == 0 ? _mm256_castsi256_si128(qx)
                               : _mm256_extracti128_si256(qx, 1);
    const __m128i t32 = h == 0 ? _mm256_castsi256_si128(qt)
                               : _mm256_extracti128_si256(qt, 1);
    const __m256i prod = _mm256_mul_epi32(_mm256_cvtepi32_epi64(s32),
                                          _mm256_cvtepi32_epi64(x32));
    const __m256i acc = _mm256_add_epi64(prod, _mm256_cvtepi32_epi64(t32));
    const __m256d d = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_add_epi64(acc, bias_i)), bias_d);
    f[h] = _mm256_cvtpd_ps(d);
  }
  return _mm256_mul_ps(_mm256_set_m128(f[1], f[0]), vso);
}

/// The FP32 inputs, as the comparator bank sees them.
inline __m256 load8(const float* q) { return _mm256_loadu_ps(q); }

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

void avx2_fp32_eval(const float* bp, std::size_t nb, const float* s,
                    const float* t, float* p, std::size_t n) {
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
    const __m256i lanes = leading_lanes(nb + 1);
    const __m256 vs = _mm256_maskload_ps(s, lanes);
    const __m256 vt = _mm256_maskload_ps(t, lanes);
    i = scan_loop8(p, n, bp, nb, load8, [&](float* q, __m256 x, __m256i idx) {
      const __m256 ss = _mm256_permutevar8x32_ps(vs, idx);
      const __m256 tt = _mm256_permutevar8x32_ps(vt, idx);
      _mm256_storeu_ps(q, _mm256_add_ps(_mm256_mul_ps(ss, x), tt));
    });
  } else {
    i = scan_loop8(p, n, bp, nb, load8, [&](float* q, __m256 x, __m256i idx) {
      const __m256 ss = _mm256_i32gather_ps(s, idx, 4);
      const __m256 tt = _mm256_i32gather_ps(t, idx, 4);
      _mm256_storeu_ps(q, _mm256_add_ps(_mm256_mul_ps(ss, x), tt));
    });
  }
  if (i < n) detail::scalar_fp32_eval(bp, nb, s, t, p + i, n - i);
}

void avx2_fp16_eval(const float* bp, std::size_t nb, const float* s,
                    const float* t, float* p, std::size_t n) {
  std::size_t i = 0;
  if (nb == 0) {
    const __m256 vs = _mm256_broadcast_ss(s);
    const __m256 vt = _mm256_broadcast_ss(t);
    for (; i + 8 <= n; i += 8) {
      const __m256 xh = round8_to_half(_mm256_loadu_ps(p + i));
      _mm256_storeu_ps(p + i, half_mac8(vs, xh, vt));
    }
  } else if (nb + 1 <= 8) {
    const __m256i lanes = leading_lanes(nb + 1);
    const __m256 vs = _mm256_maskload_ps(s, lanes);
    const __m256 vt = _mm256_maskload_ps(t, lanes);
    i = scan_loop8(p, n, bp, nb, load8_half,
                   [&](float* q, __m256 xh, __m256i idx) {
                     const __m256 ss = _mm256_permutevar8x32_ps(vs, idx);
                     const __m256 tt = _mm256_permutevar8x32_ps(vt, idx);
                     _mm256_storeu_ps(q, half_mac8(ss, xh, tt));
                   });
  } else {
    i = scan_loop8(p, n, bp, nb, load8_half,
                   [&](float* q, __m256 xh, __m256i idx) {
                     const __m256 ss = _mm256_i32gather_ps(s, idx, 4);
                     const __m256 tt = _mm256_i32gather_ps(t, idx, 4);
                     _mm256_storeu_ps(q, half_mac8(ss, xh, tt));
                   });
  }
  if (i < n) detail::scalar_fp16_eval(bp, nb, s, t, p + i, n - i);
}

void avx2_int32_eval(const std::int32_t* bp, std::size_t nb,
                     const std::int32_t* s, const std::int32_t* t, float sx,
                     float so, float* p, std::size_t n) {
  const __m256 vsx = _mm256_set1_ps(sx);
  const __m256 vso = _mm256_set1_ps(so);
  const auto quantized = [vsx](const float* q) {
    return int_quantize8(_mm256_loadu_ps(q), vsx);
  };
  std::size_t i = 0;
  if (nb + 1 <= 8 && nb != 0) {
    const __m256i lanes = leading_lanes(nb + 1);
    const __m256i vs = _mm256_maskload_epi32(s, lanes);
    const __m256i vt = _mm256_maskload_epi32(t, lanes);
    i = scan_loop8(p, n, bp, nb, quantized,
                   [&](float* q, __m256i qx, __m256i idx) {
                     const __m256i qs = _mm256_permutevar8x32_epi32(vs, idx);
                     const __m256i qt = _mm256_permutevar8x32_epi32(vt, idx);
                     _mm256_storeu_ps(q, int_mac8(qs, qx, qt, vso));
                   });
  } else {
    // With nb == 0 the scan compares nothing and every index is 0.
    i = scan_loop8(p, n, bp, nb, quantized,
                   [&](float* q, __m256i qx, __m256i idx) {
                     const __m256i qs = _mm256_i32gather_epi32(s, idx, 4);
                     const __m256i qt = _mm256_i32gather_epi32(t, idx, 4);
                     _mm256_storeu_ps(q, int_mac8(qs, qx, qt, vso));
                   });
  }
  if (i < n) detail::scalar_int32_eval(bp, nb, s, t, sx, so, p + i, n - i);
}

}  // namespace nnlut::simd

// AVX-512F tier of the LUT plan evaluators: 16 activations per register.
//
// Identical operation sequence to the AVX2 tier (and therefore to the
// scalar reference), twice the width. FP16 needs no extra ISA here: the
// 512-bit vcvtps2ph/vcvtph2ps forms are AVX-512F, so the binary16 rounding
// chain runs wide on every AVX-512 machine (bit-identical to
// numerics/half.h, NaN payloads and denormals included).
//
// Segment selection is the bisection of detail::fill_indices on 16 lanes:
// log2(padded entries) steps, each one probe fetch, one compare into a
// mask register and one masked add, with kBisectVectors vectors in flight.
// Breakpoint probes and the (slope, intercept) pair come from the same
// table form: one register for <= 16 padded entries (vpermps / vpermd), a
// register pair for exactly 32 (vpermt2ps / vpermt2d), and a gather for
// larger tables.
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

/// The comparator of one bisection step: _CMP_NLT_UQ is exactly !(x < d),
/// true for x >= d and for NaN; on the quantized INT32 grid it is x >= d.
inline __mmask16 nlt(__m512 x, __m512 d) {
  return _mm512_cmp_ps_mask(x, d, _CMP_NLT_UQ);
}
inline __mmask16 nlt(__m512i qx, __m512i d) {
  return _mm512_cmp_epi32_mask(qx, d, _MM_CMPINT_NLT);
}

/// Plan tables in the form their padded size allows, each with a per-lane
/// fetch tab[i]: up to 16 entries in one register, exactly 32 in a
/// register pair, larger ones in memory.
template <typename T>
struct Lanes;
template <>
struct Lanes<float> {
  using Vec = __m512;
};
template <>
struct Lanes<std::int32_t> {
  using Vec = __m512i;
};
template <typename T>
struct Reg {
  typename Lanes<T>::Vec r;
};
template <typename T>
struct RegPair {
  typename Lanes<T>::Vec lo, hi;
};
template <typename T>
struct Mem {
  const T* p;
};

inline __m512 fetch(const Reg<float>& t, __m512i i) {
  return _mm512_permutexvar_ps(i, t.r);
}
inline __m512i fetch(const Reg<std::int32_t>& t, __m512i i) {
  return _mm512_permutexvar_epi32(i, t.r);
}
inline __m512 fetch(const RegPair<float>& t, __m512i i) {
  return _mm512_permutex2var_ps(t.lo, i, t.hi);
}
inline __m512i fetch(const RegPair<std::int32_t>& t, __m512i i) {
  return _mm512_permutex2var_epi32(t.lo, i, t.hi);
}
inline __m512 fetch(const Mem<float>& t, __m512i i) {
  return _mm512_i32gather_ps(i, t.p, 4);
}
inline __m512i fetch(const Mem<std::int32_t>& t, __m512i i) {
  return _mm512_i32gather_epi32(i, t.p, 4);
}

/// The first k <= 16 entries of a table, zero above.
inline __mmask16 leading(std::size_t k) {
  return static_cast<__mmask16>((1u << k) - 1u);
}
inline Reg<float> reg(const float* p, std::size_t k) {
  return {_mm512_maskz_loadu_ps(leading(k), p)};
}
inline Reg<std::int32_t> reg(const std::int32_t* p, std::size_t k) {
  return {_mm512_maskz_loadu_epi32(leading(k), p)};
}
/// 16 < k <= 32 entries (31 breakpoints or 32 segments).
inline RegPair<float> reg_pair(const float* p, std::size_t k) {
  return {_mm512_loadu_ps(p), _mm512_maskz_loadu_ps(leading(k - 16), p + 16)};
}
inline RegPair<std::int32_t> reg_pair(const std::int32_t* p, std::size_t k) {
  return {_mm512_loadu_si512(p),
          _mm512_maskz_loadu_epi32(leading(k - 16), p + 16)};
}

/// Runs body(bp, s, t) with the plan's breakpoint, slope and intercept
/// tables (nb breakpoints, nb + 1 segments) in the form their padded size
/// allows, and returns what it returns.
template <typename Bp, typename St, typename Body>
inline std::size_t with_tables(const Bp* bp, std::size_t nb, const St* s,
                               const St* t, Body body) {
  if (nb + 1 <= 16) return body(reg(bp, nb), reg(s, nb + 1), reg(t, nb + 1));
  if (nb + 1 == 32)
    return body(reg_pair(bp, nb), reg_pair(s, 32), reg_pair(t, 32));
  return body(Mem<Bp>{bp}, Mem<St>{s}, Mem<St>{t});
}

/// Vectors per trip of the bisection loop below.
constexpr int kBisectVectors = 8;

/// Segment indices of V vectors of 16 lanes (FP32 or quantized INT32), the
/// steps of detail::fill_indices per lane. `first` is the first probe,
/// bp[(nb+1)/2 - 1], the same for every lane because idx starts at 0. The
/// V vectors share each step's constants and run V independent
/// fetch / compare / masked-add chains.
template <int V, typename Vec, typename Tab>
inline void bisect16(const Vec (&x)[V], const Tab& bp, Vec first,
                     std::size_t nb, __m512i (&idx)[V]) {
  std::size_t h = (nb + 1) / 2;
  if (h == 0) {
    for (int v = 0; v < V; ++v) idx[v] = _mm512_setzero_si512();
    return;
  }
  const __m512i vh = _mm512_set1_epi32(static_cast<int>(h));
  for (int v = 0; v < V; ++v)
    idx[v] = _mm512_maskz_mov_epi32(nlt(x[v], first), vh);
  for (h /= 2; h > 1; h /= 2) {
    const __m512i off = _mm512_set1_epi32(static_cast<int>(h - 1));
    const __m512i step = _mm512_set1_epi32(static_cast<int>(h));
    for (int v = 0; v < V; ++v) {
      const auto d = fetch(bp, _mm512_add_epi32(idx[v], off));
      idx[v] = _mm512_mask_add_epi32(idx[v], nlt(x[v], d), idx[v], step);
    }
  }
  if (h == 1) {  // the last probe is bp[idx]
    const __m512i one = _mm512_set1_epi32(1);
    for (int v = 0; v < V; ++v)
      idx[v] = _mm512_mask_add_epi32(idx[v], nlt(x[v], fetch(bp, idx[v])),
                                     idx[v], one);
  }
}

/// The bisection loop over p[0, n) in steps of 16 lanes. `load` maps 16
/// inputs to the values the breakpoints are compared with (the FP32
/// inputs, their binary16-rounded images, or the quantized INT32 grid
/// values); `finish` fetches, multiplies-adds and stores one vector from
/// those values and its segment indices. kBisectVectors vectors per trip
/// keep their chains in flight together, the remainder goes one vector at
/// a time. Returns where the scalar tail starts.
template <typename Tab, typename Load, typename Finish>
inline std::size_t bisect_loop16(float* p, std::size_t n, const Tab& bp,
                                 std::size_t nb, Load load, Finish finish) {
  using Vec = decltype(load(p));
  const int h = static_cast<int>((nb + 1) / 2);
  const Vec first = h == 0 ? Vec{} : fetch(bp, _mm512_set1_epi32(h - 1));
  std::size_t i = 0;
  for (; i + 16 * kBisectVectors <= n; i += 16 * kBisectVectors) {
    Vec x[kBisectVectors];
    __m512i idx[kBisectVectors];
    for (int v = 0; v < kBisectVectors; ++v) x[v] = load(p + i + 16 * v);
    bisect16(x, bp, first, nb, idx);
    for (int v = 0; v < kBisectVectors; ++v)
      finish(p + i + 16 * v, x[v], idx[v]);
  }
  for (; i + 16 <= n; i += 16) {
    Vec x[1] = {load(p + i)};
    __m512i idx[1];
    bisect16(x, bp, first, nb, idx);
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

/// The values the breakpoints are compared with: the FP32 inputs, or (FP16
/// plans) their binary16-rounded images.
inline __m512 load16(const float* q) { return _mm512_loadu_ps(q); }
inline __m512 load16_half(const float* q) {
  return round16_to_half(_mm512_loadu_ps(q));
}

}  // namespace

void avx512_fp32_eval(const float* bp, std::size_t nb, const float* s,
                      const float* t, float* p, std::size_t n) {
  const std::size_t i = with_tables(
      bp, nb, s, t, [&](const auto& d, const auto& ss, const auto& tt) {
        return bisect_loop16(p, n, d, nb, load16,
                             [&](float* q, __m512 x, __m512i idx) {
                               _mm512_storeu_ps(
                                   q, _mm512_add_ps(
                                          _mm512_mul_ps(fetch(ss, idx), x),
                                          fetch(tt, idx)));
                             });
      });
  if (i < n) detail::scalar_fp32_eval(bp, nb, s, t, p + i, n - i);
}

void avx512_fp16_eval(const float* bp, std::size_t nb, const float* s,
                      const float* t, float* p, std::size_t n) {
  const std::size_t i = with_tables(
      bp, nb, s, t, [&](const auto& d, const auto& ss, const auto& tt) {
        return bisect_loop16(p, n, d, nb, load16_half,
                             [&](float* q, __m512 xh, __m512i idx) {
                               _mm512_storeu_ps(
                                   q, half_mac16(fetch(ss, idx), xh,
                                                 fetch(tt, idx)));
                             });
      });
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
  const std::size_t i = with_tables(
      bp, nb, s, t, [&](const auto& d, const auto& qs, const auto& qt) {
        return bisect_loop16(p, n, d, nb, quantized,
                             [&](float* q, __m512i qx, __m512i idx) {
                               _mm512_storeu_ps(
                                   q, int_mac16(fetch(qs, idx), qx,
                                                fetch(qt, idx), vso));
                             });
      });
  if (i < n) detail::scalar_int32_eval(bp, nb, s, t, sx, so, p + i, n - i);
}

}  // namespace nnlut::simd

// AVX2 tier of the LUT plan evaluators: 8 activations per register.
//
// Segment selection is the bisection of detail::fill_indices on 8 lanes:
// log2(padded entries) steps, each one probe fetch, one
// `_mm256_cmp_ps(x, d, _CMP_NLT_UQ)` (on the INT32 grid, the complement of
// `d > x`) and one masked add, with kBisectVectors vectors in flight. The
// predicate is exactly the comparator of Eq. 4's bank, so the index (and
// NaN landing in the padded tail) matches the scalar tier. A register
// holds only 8 breakpoints, so each step fetches its probe from that
// step's own table of candidates (see Probes): one vpermps / vpermd for
// up to 8 candidates, two and a blend for 16, a gather beyond. The
// (slope, intercept) pair comes from one register for <= 8 padded
// entries, a register pair for 16, and a _mm256_i32gather_ps / _epi32
// gather for larger tables.
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

/// One bisection step's increment: `step` in the lanes where !(x < d).
/// FP32: _CMP_NLT_UQ is exactly !(x < d), true for x >= d and for NaN.
/// INT32: the lanes where d > x are cleared (padded INT32_MAX sentinels
/// never pass because the quantizer saturates below them).
inline __m256i nlt_step(__m256 x, __m256 d, __m256i step) {
  return _mm256_and_si256(_mm256_castps_si256(_mm256_cmp_ps(x, d, _CMP_NLT_UQ)),
                          step);
}
inline __m256i nlt_step(__m256i qx, __m256i d, __m256i step) {
  return _mm256_andnot_si256(_mm256_cmpgt_epi32(d, qx), step);
}

/// Plan tables in the form their padded size allows, each with a per-lane
/// fetch tab[i]: up to 8 entries in one register, exactly 16 in a register
/// pair, larger ones in memory.
template <typename T>
struct Lanes;
template <>
struct Lanes<float> {
  using Vec = __m256;
};
template <>
struct Lanes<std::int32_t> {
  using Vec = __m256i;
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

inline __m256 fetch(const Reg<float>& t, __m256i i) {
  return _mm256_permutevar8x32_ps(t.r, i);
}
inline __m256i fetch(const Reg<std::int32_t>& t, __m256i i) {
  return _mm256_permutevar8x32_epi32(t.r, i);
}
/// vpermps reads index bits 0-2; bit 3, moved to the sign, picks the half.
inline __m256 fetch(const RegPair<float>& t, __m256i i) {
  return _mm256_blendv_ps(_mm256_permutevar8x32_ps(t.lo, i),
                          _mm256_permutevar8x32_ps(t.hi, i),
                          _mm256_castsi256_ps(_mm256_slli_epi32(i, 28)));
}
inline __m256i fetch(const RegPair<std::int32_t>& t, __m256i i) {
  return _mm256_castps_si256(_mm256_blendv_ps(
      _mm256_castsi256_ps(_mm256_permutevar8x32_epi32(t.lo, i)),
      _mm256_castsi256_ps(_mm256_permutevar8x32_epi32(t.hi, i)),
      _mm256_castsi256_ps(_mm256_slli_epi32(i, 28))));
}
inline __m256 fetch(const Mem<float>& t, __m256i i) {
  return _mm256_i32gather_ps(t.p, i, 4);
}
inline __m256i fetch(const Mem<std::int32_t>& t, __m256i i) {
  return _mm256_i32gather_epi32(t.p, i, 4);
}

// Lane masks for _mm256_maskload_*: window of k leading -1 lanes starting
// at kLaneMask + (8 - k).
alignas(32) constexpr std::int32_t kLaneMask[16] = {-1, -1, -1, -1, -1, -1,
                                                    -1, -1, 0,  0,  0,  0,
                                                    0,  0,  0,  0};

/// The first k <= 8 entries of a table, zero above.
inline __m256i leading(std::size_t k) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneMask + (8 - k)));
}
inline Reg<float> reg(const float* p, std::size_t k) {
  return {_mm256_maskload_ps(p, leading(k))};
}
inline Reg<std::int32_t> reg(const std::int32_t* p, std::size_t k) {
  return {_mm256_maskload_epi32(p, leading(k))};
}
/// Exactly 16 entries.
inline RegPair<float> reg_pair(const float* p) {
  return {_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8)};
}
inline RegPair<std::int32_t> reg_pair(const std::int32_t* p) {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8))};
}

/// Runs body(s, t) with the plan's slope and intercept tables (nb + 1
/// entries) in the form their size allows, and returns what it returns.
template <typename St, typename Body>
inline std::size_t with_tables(std::size_t nb, const St* s, const St* t,
                               Body body) {
  if (nb + 1 <= 8) return body(reg(s, nb + 1), reg(t, nb + 1));
  if (nb + 1 == 16) return body(reg_pair(s), reg_pair(t));
  return body(Mem<St>{s}, Mem<St>{t});
}

/// The breakpoint probes of every bisection step. Step l (half-width
/// h = (nb + 1) / 2^(l+1)) probes bp[idx + h - 1], where idx is a multiple
/// of 2h, so its 2^l possible probes are bp[(2j + 1) h - 1] and a lane's
/// is entry j = idx / 2h. The steps with at most 16 probes keep them in
/// one table each, built once per call and fetched from one register
/// (steps 1-3) or a register pair (step 4), instead of gathering from bp;
/// the later steps of larger plans gather. Step 0 probes one breakpoint.
template <typename T>
struct Probes {
  using Vec = typename Lanes<T>::Vec;
  int steps = 0;  // log2(nb + 1)
  const T* bp;
  Vec first;
  Reg<T> regs[4];  // steps 1-3; regs[0] unused
  RegPair<T> pair;

  Probes(const T* breakpoints, std::size_t nb) : bp(breakpoints) {
    while ((std::size_t{1} << steps) < nb + 1) ++steps;
    alignas(32) T table[16] = {};
    for (int l = 0; l < steps && l < 5; ++l) {
      const std::size_t h = std::size_t{1} << (steps - 1 - l);
      for (std::size_t j = 0; j < (std::size_t{1} << l); ++j)
        table[j] = bp[(2 * j + 1) * h - 1];
      if (l == 0) first = fetch(reg(table, 1), _mm256_setzero_si256());
      if (l >= 1 && l <= 3) regs[l] = reg(table, 8);
      if (l == 4) pair = reg_pair(table);
    }
  }
};

/// Vectors per trip of the bisection loop below.
constexpr int kBisectVectors = 4;

/// idx += h in the lanes where !(x < probe(idx)), for V vectors.
template <int V, typename Vec, typename Probe>
inline void bisect_step8(const Vec (&x)[V], __m256i (&idx)[V], int h,
                         Probe probe) {
  const __m256i step = _mm256_set1_epi32(h);
  for (int v = 0; v < V; ++v)
    idx[v] = _mm256_add_epi32(idx[v], nlt_step(x[v], probe(idx[v]), step));
}

/// Segment indices of V vectors of 8 lanes (FP32 or quantized INT32), the
/// steps of detail::fill_indices per lane. The V vectors share each step's
/// probe table and run V independent fetch / compare / add chains.
template <int V, typename Vec, typename T>
inline void bisect8(const Vec (&x)[V], const Probes<T>& pr,
                    __m256i (&idx)[V]) {
  for (int v = 0; v < V; ++v) idx[v] = _mm256_setzero_si256();
  const int steps = pr.steps;
  if (steps == 0) return;
  bisect_step8(x, idx, 1 << (steps - 1), [&](__m256i) { return pr.first; });
  int l = 1;
  for (; l < steps && l < 4; ++l) {
    const __m256i log2_2h = _mm256_set1_epi32(steps - l);
    const Reg<T>& t = pr.regs[l];
    bisect_step8(x, idx, 1 << (steps - 1 - l), [&](__m256i i) {
      return fetch(t, _mm256_srlv_epi32(i, log2_2h));
    });
  }
  if (l < steps) {  // step 4: 16 probes
    const __m256i log2_2h = _mm256_set1_epi32(steps - l);
    bisect_step8(x, idx, 1 << (steps - 1 - l), [&](__m256i i) {
      return fetch(pr.pair, _mm256_srlv_epi32(i, log2_2h));
    });
    ++l;
  }
  for (; l < steps; ++l) {
    const int h = 1 << (steps - 1 - l);
    const Mem<T> t{pr.bp + h - 1};
    bisect_step8(x, idx, h, [&](__m256i i) { return fetch(t, i); });
  }
}

/// The bisection loop over p[0, n) in steps of 8 lanes. `load` maps 8
/// inputs to the values the breakpoints are compared with (the FP32
/// inputs, their binary16-rounded images, or the quantized INT32 grid
/// values); `finish` fetches, multiplies-adds and stores one vector from
/// those values and its segment indices. kBisectVectors vectors per trip
/// keep their chains in flight together, the remainder goes one vector at
/// a time. Returns where the scalar tail starts.
template <typename T, typename Load, typename Finish>
inline std::size_t bisect_loop8(float* p, std::size_t n, const Probes<T>& pr,
                                Load load, Finish finish) {
  using Vec = decltype(load(p));
  std::size_t i = 0;
  for (; i + 8 * kBisectVectors <= n; i += 8 * kBisectVectors) {
    Vec x[kBisectVectors];
    __m256i idx[kBisectVectors];
    for (int v = 0; v < kBisectVectors; ++v) x[v] = load(p + i + 8 * v);
    bisect8(x, pr, idx);
    for (int v = 0; v < kBisectVectors; ++v)
      finish(p + i + 8 * v, x[v], idx[v]);
  }
  for (; i + 8 <= n; i += 8) {
    Vec x[1] = {load(p + i)};
    __m256i idx[1];
    bisect8(x, pr, idx);
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

/// The FP32 inputs, as the breakpoints are compared with them.
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

/// The binary16-rounded inputs, as the breakpoints are compared with them.
inline __m256 load8_half(const float* q) {
  return round8_to_half(_mm256_loadu_ps(q));
}

}  // namespace

void avx2_fp32_eval(const float* bp, std::size_t nb, const float* s,
                    const float* t, float* p, std::size_t n) {
  const Probes<float> pr(bp, nb);
  const std::size_t i =
      with_tables(nb, s, t, [&](const auto& ss, const auto& tt) {
        return bisect_loop8(p, n, pr, load8,
                            [&](float* q, __m256 x, __m256i idx) {
                              _mm256_storeu_ps(
                                  q, _mm256_add_ps(
                                         _mm256_mul_ps(fetch(ss, idx), x),
                                         fetch(tt, idx)));
                            });
      });
  if (i < n) detail::scalar_fp32_eval(bp, nb, s, t, p + i, n - i);
}

void avx2_fp16_eval(const float* bp, std::size_t nb, const float* s,
                    const float* t, float* p, std::size_t n) {
  const Probes<float> pr(bp, nb);
  const std::size_t i =
      with_tables(nb, s, t, [&](const auto& ss, const auto& tt) {
        return bisect_loop8(p, n, pr, load8_half,
                            [&](float* q, __m256 xh, __m256i idx) {
                              _mm256_storeu_ps(q, half_mac8(fetch(ss, idx), xh,
                                                            fetch(tt, idx)));
                            });
      });
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
  const Probes<std::int32_t> pr(bp, nb);
  const std::size_t i =
      with_tables(nb, s, t, [&](const auto& qs, const auto& qt) {
        return bisect_loop8(p, n, pr, quantized,
                            [&](float* q, __m256i qx, __m256i idx) {
                              _mm256_storeu_ps(
                                  q, int_mac8(fetch(qs, idx), qx,
                                              fetch(qt, idx), vso));
                            });
      });
  if (i < n) detail::scalar_int32_eval(bp, nb, s, t, sx, so, p + i, n - i);
}

}  // namespace nnlut::simd

// 8-lane (AVX2) building blocks shared by the AVX2 tier TUs:
// lut_kernel_simd_avx2.cpp (-mavx2) and lut_kernel_simd_f16c.cpp
// (-mavx2 -mf16c). Everything is `static` for the same reason as
// lut_kernel_simd_detail.h: each TU gets its own copy compiled under its
// own -m flags, so the linker can never hand an AVX-containing copy to a
// generic TU. Both including TUs target the identical 8-lane ISA subset,
// and with -ffp-contract=off project-wide the copies are bit-identical.
//
// The comparator bank of Eq. 4 maps to `_mm256_cmp_ps(x, d_j, _CMP_NLT_UQ)`
// per breakpoint — one vector compare evaluates 8 comparators at once (the
// scan loop keeps 4 vectors in flight per breakpoint), and the
// mask-accumulate reproduces the scalar index formula (count of
// breakpoints with !(x < d), NaN landing in the padded tail) exactly.
// Bisection keeps the first (up to) 3 tree levels register-resident: 7 heap
// nodes in one register probed by vpermps, so each lane narrows to an
// 8-entry window before the first i32gather — the gather-latency hiding
// that turns AVX2 bisection from break-even into a win on gather-weak
// cores. Remaining levels gather one probe per step as before.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/lut_kernel_simd_detail.h"

#ifndef __AVX2__
#error "lut_kernel_simd_avx2_common.h requires -mavx2"
#endif
#include <immintrin.h>

namespace nnlut::simd::avx2detail {

// Lane masks for _mm256_maskload_*: window of k leading -1 lanes starting
// at kLaneMask + (8 - k).
alignas(32) static constexpr std::int32_t kLaneMask[16] = {-1, -1, -1, -1,
                                                           -1, -1, -1, -1,
                                                           0,  0,  0,  0,
                                                           0,  0,  0,  0};

static inline __m256i leading_lanes(std::size_t k) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneMask + (8 - k)));
}

/// The register-resident top of a bisection tree: heap nodes 1..2^levels-1
/// of the breakpoint array in one 8-lane register (slot t-1 = node t),
/// built once per eval call by detail::fill_bisect_nodes.
struct ResidentTreePs {
  __m256 nodes;
  int levels;
};

struct ResidentTreeEpi32 {
  __m256i nodes;
  int levels;
};

static inline ResidentTreePs load_resident_tree_ps(const float* bp,
                                                   std::size_t nb) {
  alignas(32) float a[8] = {};
  const int levels = detail::fill_bisect_nodes(bp, nb, 3, a);
  return {_mm256_load_ps(a), levels};
}

static inline ResidentTreeEpi32 load_resident_tree_epi32(
    const std::int32_t* bp, std::size_t nb) {
  alignas(32) std::int32_t a[8] = {};
  const int levels = detail::fill_bisect_nodes(bp, nb, 3, a);
  return {_mm256_load_si256(reinterpret_cast<const __m256i*>(a)), levels};
}

/// One comparator of the 8-lane bank scan. FP32: _CMP_NLT_UQ is exactly
/// !(x < d), true for x >= d and for NaN, and its -1 lanes are subtracted
/// to count. INT32: the -1 lanes of x < d are added, and scan_done counts
/// them down from nb (padded INT32_MAX sentinels never fire because the
/// quantizer saturates below them).
static inline __m256i scan_step(__m256i idx, __m256 x, const float* d) {
  const __m256 vd = _mm256_broadcast_ss(d);
  const __m256 ge = _mm256_cmp_ps(x, vd, _CMP_NLT_UQ);
  return _mm256_sub_epi32(idx, _mm256_castps_si256(ge));
}
static inline __m256i scan_step(__m256i acc, __m256i qx,
                                const std::int32_t* d) {
  return _mm256_add_epi32(acc, _mm256_cmpgt_epi32(_mm256_set1_epi32(*d), qx));
}
static inline __m256i scan_done(__m256i idx, __m256, std::size_t) {
  return idx;
}
static inline __m256i scan_done(__m256i acc, __m256i, std::size_t nb) {
  return _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(nb)), acc);
}

/// Comparator-bank scan of V vectors of 8 lanes (FP32 or quantized INT32):
/// idx counts the breakpoints each lane does not lie below. The V vectors
/// share each breakpoint and run V independent compare / accumulate
/// chains; per lane the sequence is the same for any V.
template <int V, typename Vec, typename Bp>
static inline void scan8(const Vec (&x)[V], const Bp* bp, std::size_t nb,
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
static inline std::size_t scan_loop8(float* p, std::size_t n, const Bp* bp,
                                     std::size_t nb, Load load,
                                     Finish finish) {
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

/// Branchless bisection for 8 FP32 lanes: the first rt.levels probes come
/// from the resident register (vpermps on the heap index), the rest gather.
/// Step for step this visits the same breakpoints as the scalar
/// bisect_index, so the selected segment is identical.
static inline __m256i fp32_bisect8(__m256 x, const float* bp, std::size_t nb,
                                   const ResidentTreePs& rt) {
  const __m256i one = _mm256_set1_epi32(1);
  __m256i pos = _mm256_setzero_si256();
  __m256i node = one;  // heap index of the next resident probe
  std::uint32_t step = static_cast<std::uint32_t>(nb + 1) >> 1;
  for (int l = 0; l < rt.levels; ++l, step >>= 1) {
    const __m256 d =
        _mm256_permutevar8x32_ps(rt.nodes, _mm256_sub_epi32(node, one));
    const __m256i ge = _mm256_castps_si256(_mm256_cmp_ps(x, d, _CMP_NLT_UQ));
    pos = _mm256_add_epi32(
        pos, _mm256_and_si256(ge, _mm256_set1_epi32(static_cast<int>(step))));
    node = _mm256_sub_epi32(_mm256_add_epi32(node, node), ge);  // 2t + (ge?1:0)
  }
  for (; step != 0; step >>= 1) {
    const __m256i probe =
        _mm256_add_epi32(pos, _mm256_set1_epi32(static_cast<int>(step) - 1));
    const __m256 d = _mm256_i32gather_ps(bp, probe, 4);
    const __m256i ge = _mm256_castps_si256(_mm256_cmp_ps(x, d, _CMP_NLT_UQ));
    pos = _mm256_add_epi32(
        pos, _mm256_and_si256(ge, _mm256_set1_epi32(static_cast<int>(step))));
  }
  return pos;
}

/// Branchless bisection for 8 quantized INT32 lanes, resident top levels
/// then gathers, mirroring fp32_bisect8.
static inline __m256i int32_bisect8(__m256i qx, const std::int32_t* bp,
                                    std::size_t nb,
                                    const ResidentTreeEpi32& rt) {
  const __m256i one = _mm256_set1_epi32(1);
  __m256i pos = _mm256_setzero_si256();
  __m256i node = one;
  std::uint32_t step = static_cast<std::uint32_t>(nb + 1) >> 1;
  for (int l = 0; l < rt.levels; ++l, step >>= 1) {
    const __m256i d =
        _mm256_permutevar8x32_epi32(rt.nodes, _mm256_sub_epi32(node, one));
    const __m256i lt = _mm256_cmpgt_epi32(d, qx);
    pos = _mm256_add_epi32(
        pos,
        _mm256_andnot_si256(lt, _mm256_set1_epi32(static_cast<int>(step))));
    node = _mm256_add_epi32(_mm256_add_epi32(node, node),
                            _mm256_andnot_si256(lt, one));
  }
  for (; step != 0; step >>= 1) {
    const __m256i probe =
        _mm256_add_epi32(pos, _mm256_set1_epi32(static_cast<int>(step) - 1));
    const __m256i d = _mm256_i32gather_epi32(bp, probe, 4);
    const __m256i lt = _mm256_cmpgt_epi32(d, qx);
    pos = _mm256_add_epi32(
        pos,
        _mm256_andnot_si256(lt, _mm256_set1_epi32(static_cast<int>(step))));
  }
  return pos;
}

/// The quantizer of detail::int_quantize on 8 lanes, step for step:
/// q = x / sx (one correctly-rounded divide), round-half-away-from-zero
/// (exact: r = q - trunc(q) is exact by Sterbenz, |r| >= 0.5 decides the
/// away-step), NaN -> 0, clamp to +-kIntQClamp, truncating convert.
static inline __m256i int_quantize8(__m256 x, __m256 vsx) {
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
static inline __m256 int_mac8(__m256i qs, __m256i qx, __m256i qt, __m256 vso) {
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

}  // namespace nnlut::simd::avx2detail

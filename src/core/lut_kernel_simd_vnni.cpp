// AVX-512 VNNI variant of the INT32 quantize+MAC path.
//
// vpdpwssd computes, per 32-bit lane, src + a.lo16*b.lo16 + a.hi16*b.hi16.
// With a = q_s (a full sign-extended int32 whose value fits int16: its low
// half IS q_s as int16 and its high half is the sign extension) and
// b = q_x & 0xffff (low half = q_x as int16, high half forced to zero so
// a's sign-extension bits contribute nothing), one instruction yields
// q_t + q_s * q_x exactly in int32 — replacing the two vpmuldq halves, two
// int64 adds and two double-bias conversions of the int64 MAC.
//
// Exactness gate, two levels:
//   - per table (once per eval): every padded slope fits int16 and
//     |q_s| * 2^15 + |q_t| <= INT32_MAX (detail::int32_mac_fits_int16_pairs),
//     so no representable quantized input can overflow the int32
//     accumulator. Tables that fail keep the int64 MAC wholesale.
//   - per vector: every lane's q_x must itself fit int16 (checked by a
//     shift-pair sign-extension round-trip); vectors with any wider lane
//     fall back to the int64 MAC for that vector.
// In the fast path the int32 accumulator equals the scalar int64
// accumulator value, and vcvtdq2ps rounds it to float exactly like the
// scalar static_cast<float>(int64) — so results are bit-identical to the
// avx512 tier and to forced scalar on every input; the fallback paths are
// the avx512 tier's own code.
//
// Everything but the MAC (quantize, comparator scan, permute/gather fetch)
// is the shared 16-lane template from lut_kernel_simd_avx512_common.h,
// instantiated in this TU.
//
// Compiled with -mavx512f -mavx512vnni only when the toolchain supports
// both; dispatch requires CPUID avx512f AND avx512vnni before routing here.
#include <cstddef>
#include <cstdint>

#include "core/lut_kernel_simd.h"
#include "core/lut_kernel_simd_detail.h"

#if !defined(__AVX512F__) || !defined(__AVX512VNNI__)
#error "lut_kernel_simd_vnni.cpp must be compiled with -mavx512f -mavx512vnni"
#endif
#include "core/lut_kernel_simd_avx512_common.h"

namespace nnlut::simd {
namespace {

namespace a5 = avx512detail;

/// int16-pair MAC with the per-vector q_x range guard. The table-level
/// contract is already established by the caller.
struct VnniMac {
  __m512 operator()(__m512i qs, __m512i qx, __m512i qt, __m512 vso) const {
    const __m512i sext =
        _mm512_srai_epi32(_mm512_slli_epi32(qx, 16), 16);
    if (_mm512_cmpeq_epi32_mask(qx, sext) != 0xffffu)
      return a5::int_mac16(qs, qx, qt, vso);
    const __m512i acc = _mm512_dpwssd_epi32(
        qt, qs, _mm512_and_si512(qx, _mm512_set1_epi32(0xffff)));
    return _mm512_mul_ps(_mm512_cvtepi32_ps(acc), vso);
  }
};

}  // namespace

void avx512vnni_int32_eval(const std::int32_t* bp, std::size_t nb,
                           const std::int32_t* s, const std::int32_t* t,
                           float sx, float so, float* p, std::size_t n) {
  if (detail::int32_mac_fits_int16_pairs(s, t, nb + 1)) {
    a5::int32_eval16(bp, nb, s, t, sx, so, p, n, VnniMac{});
  } else {
    a5::int32_eval16(bp, nb, s, t, sx, so, p, n, a5::Int64Mac{});
  }
}

}  // namespace nnlut::simd

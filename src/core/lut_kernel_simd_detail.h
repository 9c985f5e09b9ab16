// Shared scalar building blocks of the LUT plan evaluators.
//
// Included by the precision kernels (core/lut_kernel.cpp, which also runs
// them as the scalar tier) and the AVX2/AVX-512 translation units (which
// run these loops on sub-vector tails). Everything here has INTERNAL linkage on
// purpose: the SIMD TUs are compiled with -mavx2 / -mavx512f, and if these
// helpers had external linkage the linker could keep the copy containing
// AVX instructions and hand it to generic TUs — an illegal-instruction trap
// on narrower machines. `static` gives every TU its own copy compiled under
// its own flags; with floating-point contraction disabled project-wide
// (-ffp-contract=off, see CMakeLists.txt) all copies are bit-identical in
// behaviour.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "numerics/half.h"

namespace nnlut::simd::detail {

// Elements per indexing block: the element block plus the scratch index
// buffer stay in L1 between the index pass and the MAC pass.
inline constexpr std::size_t kBlock = 512;

// Clamp bound of the float->int32 quantizer: the largest round magnitude
// still representable in int32 (so the cast below is always defined).
inline constexpr float kIntQClamp = 2.147e9f;

/// I-BERT-style quantization: round-half-away-from-zero, NaN -> 0,
/// saturating at +-kIntQClamp.
[[maybe_unused]] static inline std::int32_t int_quantize(float v,
                                                         float scale) {
  const float q = std::round(v / scale);
  if (std::isnan(q)) return 0;
  return static_cast<std::int32_t>(std::clamp(q, -kIntQClamp, kIntQClamp));
}

/// Segment index for m elements by branchless bisection over the nb =
/// 2^k - 1 sorted, padded breakpoints: idx = 0, then for h = (nb+1)/2 ... 1,
/// idx += h when !(x < bp[idx + h - 1]). The breakpoints are
/// non-decreasing, so the predicate !(x < d_j) holds on a prefix of j and
/// the bisection lands on the prefix length — the count of breakpoints
/// with !(x < d) that Eq. 4's comparator bank produces, and
/// std::upper_bound(..) - begin, for every input including NaN (every
/// comparison true -> padded tail, which replicates the last segment). The
/// wide tiers run the same steps per lane.
template <typename T, typename X>
static inline void fill_indices(const T* bp, std::size_t nb, const X* xs,
                                std::size_t m, std::uint32_t* idx) {
  std::uint32_t h = static_cast<std::uint32_t>((nb + 1) / 2);
  if (h == 0) {
    for (std::size_t i = 0; i < m; ++i) idx[i] = 0;
    return;
  }
  // idx starts at 0, so every element's first probe is bp[h - 1].
  const T first = bp[h - 1];
  for (std::size_t i = 0; i < m; ++i)
    idx[i] = h * static_cast<std::uint32_t>(!(xs[i] < first));
  while ((h /= 2) != 0)
    for (std::size_t i = 0; i < m; ++i)
      idx[i] += h * static_cast<std::uint32_t>(!(xs[i] < bp[idx[i] + h - 1]));
}

/// FP16 MAC: every intermediate rounds through binary16. Operands must
/// already be binary16 values (exact in FP32).
[[maybe_unused]] static inline float half_mac(float s, float xh, float t) {
  return round_to_half(round_to_half(s * xh) + t);
}

/// FP32 plan evaluation, scalar reference shape: blockwise index fill, then
/// a mul+add MAC per element. This IS the portable tier; the wide tiers
/// call it on tails shorter than one vector.
[[maybe_unused]] static inline void scalar_fp32_eval(
    const float* bp, std::size_t nb, const float* s,
    const float* t, float* p, std::size_t n) {
  std::uint32_t idx[kBlock];
  while (n != 0) {
    const std::size_t m = std::min(n, kBlock);
    fill_indices(bp, nb, p, m, idx);
    for (std::size_t i = 0; i < m; ++i) p[i] = s[idx[i]] * p[i] + t[idx[i]];
    p += m;
    n -= m;
  }
}

/// FP16 plan evaluation, scalar reference shape: round inputs through
/// binary16, index on the half-rounded images, then the binary16 MAC. The
/// wide tiers replace the software rounding chain with vcvtps2ph/vcvtph2ps
/// round-trips (bit-identical — numerics/half.h matches the hardware
/// conversions exactly, NaN payloads included) and call this on tails.
[[maybe_unused]] static inline void scalar_fp16_eval(
    const float* bp, std::size_t nb, const float* s,
    const float* t, float* p, std::size_t n) {
  float xh[kBlock];
  std::uint32_t idx[kBlock];
  while (n != 0) {
    const std::size_t m = std::min(n, kBlock);
    for (std::size_t i = 0; i < m; ++i) xh[i] = round_to_half(p[i]);
    fill_indices(bp, nb, xh, m, idx);
    for (std::size_t i = 0; i < m; ++i)
      p[i] = half_mac(s[idx[i]], xh[i], t[idx[i]]);
    p += m;
    n -= m;
  }
}

/// INT32 plan evaluation, scalar reference shape: quantize, index, integer
/// MAC, dequantize.
[[maybe_unused]] static inline void scalar_int32_eval(
    const std::int32_t* bp, std::size_t nb, const std::int32_t* s,
    const std::int32_t* t, float sx, float so, float* p, std::size_t n) {
  std::int32_t qx[kBlock];
  std::uint32_t idx[kBlock];
  while (n != 0) {
    const std::size_t m = std::min(n, kBlock);
    for (std::size_t i = 0; i < m; ++i) qx[i] = int_quantize(p[i], sx);
    fill_indices(bp, nb, qx, m, idx);
    for (std::size_t i = 0; i < m; ++i) {
      // Integer MAC. |q_s| <= 2^15 keeps the product in int64 for any
      // clamped q_x; int64 keeps the C++ arithmetic well-defined after the
      // intercept add.
      const std::int64_t acc = static_cast<std::int64_t>(s[idx[i]]) * qx[i] +
                               static_cast<std::int64_t>(t[idx[i]]);
      p[i] = static_cast<float>(acc) * so;
    }
    p += m;
    n -= m;
  }
}

}  // namespace nnlut::simd::detail

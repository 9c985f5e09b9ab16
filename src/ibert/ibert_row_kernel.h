// I-BERT row-kernel bodies shared by every ISA tier of the row entry points
// (ibert/ibert_kernels.h).
//
// Plain C++, no intrinsics, in the manner of tensor/gemm_kernel.h: the
// baseline TU (ibert_kernels.cpp) and ibert_kernels_avx512.cpp each
// instantiate these bodies under their own -m flags, and the compiler maps
// the `#pragma omp simd` element loops onto that ISA's vector registers.
// AVX-512DQ supplies the 64-bit lane multiply (vpmullq) and the int64 <->
// float/double conversions the integer pipelines need; AVX2 has neither,
// so the avx2 tier runs the baseline instantiation.
//
// Everything here has INTERNAL linkage on purpose, for the reason
// core/lut_kernel_simd_detail.h gives: with external linkage the linker
// could keep the -mavx512f copy of an inline function and hand it to the
// baseline TU, which would trap on narrower CPUs. For the same reason the
// bodies use plain ternaries and compiler builtins instead of std::min,
// std::abs, std::floor and friends, whose out-of-line copies are shared
// between TUs.
//
// Determinism rule: every output bit equals the scalar per-element
// pipeline of the reference API (i_gelu, i_exp, i_sqrt). Each step keeps
// the bits:
//   * quantize() is round-half-away-from-zero exactly (see its comment);
//   * softmax's range-reduction quotient runs as a double division, exact
//     because the dividend is below 2^26;
//   * the int64 sums and maxes, and the float max of |v|, are exact in any
//     order, so the vectorised reductions match the serial ones;
//   * int64 -> float conversions round to nearest-even in every ISA;
//   * the project builds with -ffp-contract=off, so the float chains
//     (LayerNorm's ((q f) s_out) gamma + beta) round step by step.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ibert/ibert_kernels.h"

namespace nnlut::ibert::detail {

// Polynomial coefficients of I-BERT's integer erf (Alg. 2) and exp
// (Alg. 3), shared by the scalar reference API and the row kernels.
inline constexpr float kErfA = -0.2888f;
inline constexpr float kErfB = -1.769f;
inline constexpr float kErfC = 1.0f;
inline constexpr float kExpA = 0.3585f;
inline constexpr float kExpB = 1.353f;
inline constexpr float kExpC = 0.344f;
inline constexpr float kLn2 = 0.69314718056f;
inline constexpr float kSqrt2 = 1.41421356237309504880f;

// Softmax's quantization budget: its ln2/4 scale cap intentionally lets
// coarse rows quantize beyond the nominal grid, up to 2^24.
inline constexpr float kSoftmaxBudget = 16777216.0f;  // 2^24

// Softmax caps its scale at ln2/4: i_exp's range reduction then always has
// at least four grid steps per halving, so even rows with huge logit
// magnitudes (where the nominal per-row scale would be coarser than ln2)
// produce a valid, near-one-hot softmax instead of a degenerate all-zero
// table. Normal attention rows (max |logit| <= ~5.7e3 at 15 bits) are
// unaffected.
inline constexpr float kCoarsestSoftmaxScale = 0.25f * kLn2;

/// Saturating float -> int64 for scale-derived grid constants (q_b, q_c,
/// q_ln2, clip bounds): casting a float beyond int64 range is UB, which a
/// pathologically fine or coarse scale would otherwise trigger. Values
/// within the row kernels' floored scales never saturate (see row_scale).
[[maybe_unused]] static inline std::int64_t sat_q(float x) {
  constexpr float kLim = 4.0e18f;  // < 2^62, exactly representable as float
  if (x != x) return 0;
  return static_cast<std::int64_t>(x < -kLim ? -kLim : (x > kLim ? kLim : x));
}

/// The grid maximum 2^bits - 1 of the gelu/layernorm quantizer.
[[maybe_unused]] static inline float grid_budget(int bits) {
  return static_cast<float>((1 << bits) - 1);
}

/// Symmetric scale so that max finite |row| maps to 2^bits - 1. Non-finite
/// entries follow the same spirit as lut_kernel's int_quantize sanitization:
/// NaN and ±inf contribute nothing to the scale (±inf later saturates the
/// quantization budget in quantize(), i.e. behaves as "largest value on the
/// grid"; letting it drive the scale would blow up every downstream s^2).
/// The max magnitude is floored at 2^-6: scale-derived integer constants of
/// the polynomial pipelines grow as 1/s and 1/s^2, and an unbounded-fine
/// scale would push their int64 squares/products into (undefined) overflow.
/// Rows whose magnitudes all sit below the floor just land on the floor's
/// grid — near-zero inputs of these ops map to near-zero outputs anyway.
[[maybe_unused]] static float row_scale(const float* x, std::size_t n,
                                        int bits) {
  constexpr float kMinRowMax = 0.015625f;  // 2^-6
  constexpr float kMaxFinite = 3.40282347e38f;
  float mx = 0.0f;
#pragma omp simd reduction(max : mx)
  for (std::size_t i = 0; i < n; ++i) {
    const float a = __builtin_fabsf(x[i]);
    const float finite = a <= kMaxFinite ? a : 0.0f;  // NaN, inf -> 0
    mx = finite > mx ? finite : mx;
  }
  mx = mx > kMinRowMax ? mx : kMinRowMax;
  return mx / grid_budget(bits);
}

/// round(v / s) clamped to ±lim, with NaN -> 0 (±inf saturates the
/// caller's budget, i.e. behaves like the largest value its grid holds).
/// gelu/layernorm pass the grid budget 2^bits - 1 (finite values quantized
/// against their own row's scale never clamp); softmax passes 2^24.
///
/// Branchless and exact for any integer lim < 2^31 and finite s > 0:
/// clamping before rounding equals clamping after because lim is an
/// integer; the clamped x then truncates through int32, d = x - t is exact
/// (the fractional part of a float), and t + (d >= 1/2) - (d <= -1/2) is
/// round-half-away-from-zero (for |x| >= 2^23, x is already an integer and
/// d = 0).
///
/// NaN is replaced before the division and the clamp keeps the sign of x
/// rather than selecting a constant: a select of a constant lets GCC's PRE
/// fold the rest of the chain on that path, which leaves the conversions
/// conditional and stops the loop from vectorising.
[[gnu::always_inline]] static inline std::int64_t quantize(float v, float s,
                                                          float lim) {
  float x = (v != v ? 0.0f : v) / s;
  x = __builtin_fabsf(x) > lim ? __builtin_copysignf(lim, x) : x;
  const std::int32_t t = static_cast<std::int32_t>(x);
  const float d = x - static_cast<float>(t);
  return std::int64_t{t} + (d >= 0.5f) - (d <= -0.5f);
}

// The row kernels evaluate i_exp / i_gelu with their scale-derived
// constants hoisted: a row shares one scale, so the constants are computed
// once per row from exactly the float expressions of i_poly / i_erf /
// i_exp / i_gelu, and the per-element work is the same integer arithmetic.

/// i_exp's constants for input scale s: the quantized ln2 (clamped to one
/// grid step as in i_exp) and i_poly's q_b, q_c.
struct ExpConsts {
  std::int64_t q_ln2, qb, qc;
};

[[maybe_unused]] static inline ExpConsts exp_consts(float s) {
  const float s_poly = kExpA * s * s;
  ExpConsts k;
  k.q_ln2 = sat_q(__builtin_floorf(kLn2 / s));
  if (k.q_ln2 < 1) k.q_ln2 = 1;
  k.qb = sat_q(__builtin_floorf(kExpB / s));
  k.qc = sat_q(__builtin_floorf(kExpC / s_poly));
  return k;
}

/// i_gelu's constants for input scale s: i_erf's clip bound and i_poly's
/// q_b, q_c on the erf grid s / sqrt(2), the quantized 1 on erf's output
/// grid, and the GELU output scale.
struct GeluConsts {
  std::int64_t q_clip_max, qb, qc, q_one;
  float s_out;
};

[[maybe_unused]] static inline GeluConsts gelu_consts(float s) {
  const float s_erf = s / kSqrt2;
  const float s_poly = kErfA * s_erf * s_erf;
  GeluConsts k;
  k.q_clip_max = sat_q(__builtin_floorf(-kErfB / s_erf));
  k.qb = sat_q(__builtin_floorf(kErfB / s_erf));
  k.qc = sat_q(__builtin_floorf(kErfC / s_poly));
  k.q_one = sat_q(__builtin_floorf(1.0f / s_poly));
  k.s_out = s * s_poly / 2.0f;
  return k;
}

/// x[i] = i_gelu({quantize(x[i], s, budget), s}).value() for i < n, given
/// k = gelu_consts(s).
[[maybe_unused]] static void gelu_map(float* x, std::size_t n, float s,
                                      float budget, const GeluConsts& k) {
  const std::int64_t clip = k.q_clip_max, qb = k.qb, qc = k.qc;
  const std::int64_t q_one = k.q_one;
  const float s_out = k.s_out;
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t q = quantize(x[i], s, budget);
    const std::int64_t a = q < 0 ? -q : q;
    const std::int64_t base = (a < clip ? a : clip) + qb;
    const std::int64_t erf_abs = base * base + qc;
    const std::int64_t erf = q >= 0 ? erf_abs : -erf_abs;
    x[i] = static_cast<float>(q * (erf + q_one)) * s_out;
  }
}

/// Integer softmax of one row of n > 0 entries (I-BERT Alg. 3) on
/// caller-provided scratch qe[n].
[[maybe_unused]] static void softmax_span(float* row, std::size_t n,
                                          std::int64_t* qe, int input_bits,
                                          int out_bits) {
  float s = row_scale(row, n, input_bits);
  s = s < kCoarsestSoftmaxScale ? s : kCoarsestSoftmaxScale;

  // Quantize once; the max shift and i_exp read the stored grid values.
  std::int64_t qmax = INT64_MIN;
#pragma omp simd reduction(max : qmax)
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t q = quantize(row[i], s, kSoftmaxBudget);
    qe[i] = q;
    qmax = q > qmax ? q : qmax;
  }

  // i_exp of the shifted entries q - qmax in [-2^25, 0]; all share one
  // output scale. The quotient floor((qmax - q) / q_ln2) of the range
  // reduction is exact in double (both operands are integers and the
  // dividend is below 2^26; a q_ln2 beyond it gives 0 either way).
  const ExpConsts k = exp_consts(s);
  const std::int64_t q_ln2 = k.q_ln2, qb = k.qb, qc = k.qc;
  const auto q_ln2_div = static_cast<double>(q_ln2);
  std::int64_t qsum = 0;
#pragma omp simd reduction(+ : qsum)
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t neg = qmax - qe[i];
    const std::int64_t z =
        static_cast<std::int64_t>(static_cast<double>(neg) / q_ln2_div);
    const std::int64_t base = z * q_ln2 - neg + qb;
    const std::int64_t e = (base * base + qc) >> (z < 62 ? z : 62);
    qe[i] = e;
    qsum += e;
  }
  if (qsum <= 0) qsum = 1;

  // Fixed-point reciprocal of the integer sum. A 64-bit dividend keeps the
  // quotient fine-grained; the final right shift lands on 2^-out_bits scale.
  const int recip_bits = 62;
  const std::int64_t factor = (std::int64_t{1} << recip_bits) / qsum;
  const int shift = recip_bits - out_bits;
  const float s_out = 1.0f / static_cast<float>(std::int64_t{1} << out_bits);
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    row[i] = static_cast<float>((qe[i] * factor) >> shift) * s_out;
}

/// Integer LayerNorm of one row of n > 0 entries: integer mean/variance,
/// i_sqrt for the standard deviation, fixed-point reciprocal multiply;
/// gamma/beta (either may be null) folded in after dequantization. q[n] is
/// caller-provided scratch.
[[maybe_unused]] static void layernorm_span(const float* x, float* y,
                                            std::size_t n, const float* gamma,
                                            const float* beta, std::int64_t* q,
                                            int input_bits) {
  const float s = row_scale(x, n, input_bits);
  const float budget = grid_budget(input_bits);
  std::int64_t sum = 0;
#pragma omp simd reduction(+ : sum)
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = quantize(x[i], s, budget);
    sum += q[i];
  }
  const auto nn = static_cast<std::int64_t>(n);
  const std::int64_t mean = (sum >= 0 ? sum + nn / 2 : sum - nn / 2) / nn;

  std::int64_t var_sum = 0;
#pragma omp simd reduction(+ : var_sum)
  for (std::size_t i = 0; i < n; ++i) {
    q[i] -= mean;
    var_sum += q[i] * q[i];
  }
  // std_q = sqrt(sum (q - mu)^2) = sqrt(n) * sigma_q, via integer Newton.
  std::int64_t std_q = i_sqrt(var_sum);
  if (std_q == 0) std_q = 1;

  // Fixed-point reciprocal multiply: (q_i / std_q) * sqrt(n) normalizes.
  // gamma and beta apply in separate passes; each step rounds to float on
  // its own, so the per-element result is ((q f) s_out) gamma + beta.
  const std::int64_t factor = (std::int64_t{1} << 31) / std_q;
  const float s_out = __builtin_sqrtf(static_cast<float>(n)) /
                      static_cast<float>(std::int64_t{1} << 31);
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    y[i] = static_cast<float>(q[i] * factor) * s_out;
  if (gamma != nullptr) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) y[i] *= gamma[i];
  }
  if (beta != nullptr) {
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) y[i] += beta[i];
  }
}

/// One tier's instantiation of the row bodies, selected by the dispatch in
/// ibert_kernels.cpp.
struct RowKernels {
  float (*row_scale)(const float*, std::size_t, int);
  void (*gelu_map)(float*, std::size_t, float, float, const GeluConsts&);
  void (*softmax)(float*, std::size_t, std::int64_t*, int, int);
  void (*layernorm)(const float*, float*, std::size_t, const float*,
                    const float*, std::int64_t*, int);
};

/// This TU's instantiation.
[[maybe_unused]] static constexpr RowKernels kRowKernels{
    &row_scale, &gelu_map, &softmax_span, &layernorm_span};

}  // namespace nnlut::ibert::detail

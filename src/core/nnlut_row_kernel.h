// The exact arithmetic around the LUT lookups of SoftmaxApprox::rows and
// LayerNormApprox::rows (core/nnlut_ops.h), shared by every ISA tier.
//
// The paper replaces only the nonlinear function with a table; the row max,
// the shift and clamp, the row sums, the normalisation and LayerNorm's exact
// mean/variance and affine stay MAC-array work (Sec. 3.3). Those passes are
// the LutRowKernels table below. The baseline bodies here are plain C++:
// core/nnlut_ops.cpp installs them for the scalar and avx2 tiers (and
// LayerNormApprox's one-row operator() runs row_moments<1> and
// affine_row), and core/nnlut_ops_avx512.cpp runs them on the rows its
// 8-row tiles leave over and on the rows whose max falls back to the
// one-row chain.
//
// Everything has INTERNAL linkage, for the reason
// core/lut_kernel_simd_detail.h gives: with external linkage the linker
// could keep the -mavx512f copy of an inline function and hand it to the
// baseline TU. For the same reason the bodies use ternaries instead of
// std::max/std::clamp, whose out-of-line copies are shared between TUs;
// each ternary is exactly the libstdc++ expression it replaces.
//
// Determinism rule: every tier reproduces these bodies bit for bit. Each row
// reduces its own elements in ascending column order with the one-row
// expression, and -ffp-contract=off keeps every float step rounding on its
// own.
#pragma once

#include <cstddef>
#include <type_traits>

namespace nnlut::detail {

// Rows reduced side by side. A reduction over one row is a serial chain
// (every max or += waits on the previous one); kInterleave rows at once
// give the core independent chains to overlap. Each row still folds its own
// elements in ascending order with the one-row expression, so every row's
// result is bit-identical to reducing it alone.
inline constexpr std::size_t kInterleave = 8;

/// Calls body(r0, std::integral_constant<std::size_t, G>{}) for row groups
/// covering [0, nrows): full groups of G = kInterleave rows, then the
/// remaining rows one at a time (G = 1, the one-row loop).
template <typename Body>
[[maybe_unused]] static inline void for_row_groups(std::size_t nrows,
                                                   Body&& body) {
  std::size_t r = 0;
  for (; r + kInterleave <= nrows; r += kInterleave)
    body(r, std::integral_constant<std::size_t, kInterleave>{});
  for (; r < nrows; ++r) body(r, std::integral_constant<std::size_t, 1>{});
}

/// The std::max chain over one row: the running max moves only to a
/// strictly greater element, so a NaN is skipped unless it comes first and
/// the first of several equal maxima (+0 before -0 or the reverse) wins.
[[maybe_unused]] static inline float row_max(const float* x, std::size_t n) {
  float mx = x[0];
  for (std::size_t j = 1; j < n; ++j) mx = (mx < x[j]) ? x[j] : mx;
  return mx;
}

/// x - mx clamped to [lo, hi] in place, as std::clamp does: min(max(t, lo),
/// hi), so NaN stays NaN.
[[maybe_unused]] static inline void shift_clamp_row(float* x, std::size_t n,
                                                    float mx, float lo,
                                                    float hi) {
  for (std::size_t j = 0; j < n; ++j) {
    const float t = x[j] - mx;
    const float a = (t < lo) ? lo : t;
    x[j] = (hi < a) ? hi : a;
  }
}

/// Softmax pass 1: every row minus its max (the row_max chain), clamped to
/// [lo, hi], in place. The maxima of 8 rows are reduced side by side.
[[maybe_unused]] static void softmax_shift(float* data, std::size_t nrows,
                                           std::size_t ncols, float lo,
                                           float hi) {
  for_row_groups(nrows, [&](std::size_t r0, auto group) {
    constexpr std::size_t G = decltype(group)::value;
    float* rows = data + r0 * ncols;
    float mx[G];
    for (std::size_t g = 0; g < G; ++g) mx[g] = rows[g * ncols];
    for (std::size_t j = 1; j < ncols; ++j)
      for (std::size_t g = 0; g < G; ++g) {
        const float v = rows[g * ncols + j];
        mx[g] = (mx[g] < v) ? v : mx[g];
      }
    for (std::size_t g = 0; g < G; ++g)
      shift_clamp_row(rows + g * ncols, ncols, mx[g], lo, hi);
  });
}

/// Float sums of G rows of length n, `stride` floats apart, each from +0 in
/// ascending column order.
template <std::size_t G>
static inline void row_sums_group(const float* x, std::size_t stride,
                                  std::size_t n, float* out) {
  float sum[G] = {};
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t g = 0; g < G; ++g) sum[g] += x[g * stride + j];
  for (std::size_t g = 0; g < G; ++g) out[g] = sum[g];
}

/// Softmax pass 2: out[r] = the float sum of row r.
[[maybe_unused]] static void row_sums(const float* data, std::size_t nrows,
                                      std::size_t ncols, float* out) {
  for_row_groups(nrows, [&](std::size_t r0, auto group) {
    constexpr std::size_t G = decltype(group)::value;
    row_sums_group<G>(data + r0 * ncols, ncols, ncols, out + r0);
  });
}

/// Softmax pass 3: row r times s[r], in place.
[[maybe_unused]] static void scale_rows(float* data, std::size_t nrows,
                                        std::size_t ncols, const float* s) {
  for (std::size_t r = 0; r < nrows; ++r) {
    float* row = data + r * ncols;
    const float inv = s[r];
    for (std::size_t j = 0; j < ncols; ++j) row[j] *= inv;
  }
}

/// Exact mean and variance (the MAC-array work) of G rows of length n,
/// `stride` floats apart, accumulated in double exactly like the reference
/// implementation.
template <std::size_t G>
static inline void row_moments(const float* x, std::size_t stride,
                               std::size_t n, float* mean_out,
                               float* var_out) {
  double mean[G] = {};
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t g = 0; g < G; ++g) mean[g] += x[g * stride + j];
  for (std::size_t g = 0; g < G; ++g) mean[g] /= static_cast<double>(n);
  double var[G] = {};
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t g = 0; g < G; ++g) {
      const double d = x[g * stride + j] - mean[g];
      var[g] += d * d;
    }
  for (std::size_t g = 0; g < G; ++g) {
    mean_out[g] = static_cast<float>(mean[g]);
    var_out[g] = static_cast<float>(var[g] / static_cast<double>(n));
  }
}

/// LayerNorm pass 1: mean[r] and var[r] of every row.
[[maybe_unused]] static void moments_rows(const float* x, std::size_t nrows,
                                          std::size_t ncols, float* mean,
                                          float* var) {
  for_row_groups(nrows, [&](std::size_t r0, auto group) {
    constexpr std::size_t G = decltype(group)::value;
    row_moments<G>(x + r0 * ncols, ncols, ncols, mean + r0, var + r0);
  });
}

/// y = ((x - mean) * inv) * gamma + beta over one row; a null gamma or beta
/// skips that step.
[[maybe_unused]] static inline void affine_row(const float* x, float* y,
                                               std::size_t n, float mean,
                                               float inv, const float* gamma,
                                               const float* beta) {
  for (std::size_t j = 0; j < n; ++j) {
    float v = (x[j] - mean) * inv;
    if (gamma != nullptr) v *= gamma[j];
    if (beta != nullptr) v += beta[j];
    y[j] = v;
  }
}

/// LayerNorm pass 2: affine_row on every row with its mean[r] and inv[r].
[[maybe_unused]] static void affine_rows(const float* x, float* y,
                                         std::size_t nrows, std::size_t ncols,
                                         const float* mean, const float* inv,
                                         const float* gamma,
                                         const float* beta) {
  for (std::size_t r = 0; r < nrows; ++r)
    affine_row(x + r * ncols, y + r * ncols, ncols, mean[r], inv[r], gamma,
               beta);
}

/// One tier's implementation of the passes, selected per block by the
/// dispatch in core/nnlut_ops.cpp. Between them sit the block's one EXP
/// and one Divide (or 1/SQRT) LUT call, which stay tier-independent.
struct LutRowKernels {
  void (*softmax_shift)(float*, std::size_t, std::size_t, float, float);
  void (*row_sums)(const float*, std::size_t, std::size_t, float*);
  void (*scale_rows)(float*, std::size_t, std::size_t, const float*);
  void (*moments_rows)(const float*, std::size_t, std::size_t, float*,
                       float*);
  void (*affine_rows)(const float*, float*, std::size_t, std::size_t,
                      const float*, const float*, const float*, const float*);
};

}  // namespace nnlut::detail

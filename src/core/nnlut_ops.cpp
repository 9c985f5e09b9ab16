#include "core/nnlut_ops.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <vector>

#include "runtime/thread_pool.h"

namespace nnlut {

namespace {

// Rows reduced side by side. A reduction over one row is a serial chain
// (every std::max or += waits on the previous one); kInterleave rows at once
// give the core independent chains to overlap. Each row still folds its own
// elements in ascending order with the one-row expression, so every row's
// result is bit-identical to reducing it alone.
constexpr std::size_t kInterleave = 8;

/// Calls body(r0, std::integral_constant<std::size_t, G>{}) for row groups
/// covering [0, nrows): full groups of G = kInterleave rows, then the
/// remaining rows one at a time (G = 1, the one-row loop).
template <typename Body>
void for_row_groups(std::size_t nrows, Body&& body) {
  std::size_t r = 0;
  for (; r + kInterleave <= nrows; r += kInterleave)
    body(r, std::integral_constant<std::size_t, kInterleave>{});
  for (; r < nrows; ++r) body(r, std::integral_constant<std::size_t, 1>{});
}

/// Exact mean and variance (the MAC-array work) of G rows of length n,
/// `stride` floats apart, accumulated in double exactly like the reference
/// implementation.
template <std::size_t G>
void row_moments(const float* x, std::size_t stride, std::size_t n,
                 float* mean_out, float* var_out) {
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

void affine_row(const float* x, float* y, std::size_t n, float mean, float inv,
                std::span<const float> gamma, std::span<const float> beta) {
  for (std::size_t j = 0; j < n; ++j) {
    float v = (x[j] - mean) * inv;
    if (!gamma.empty()) v *= gamma[j];
    if (!beta.empty()) v += beta[j];
    y[j] = v;
  }
}

// Per-thread block scratch. The rows_block kernels run either on the caller
// or on pool worker threads, both long-lived, so once a thread has seen the
// largest block of a warmed serving slot these never reallocate. Every
// element is (re)written before it is read, so recycled contents cannot
// leak into results. t_softmax_row holds each row's max, then its sum, then
// its reciprocal.
thread_local std::vector<float> t_softmax_row;
thread_local std::vector<float> t_ln_mean;
thread_local std::vector<float> t_ln_vs;
thread_local std::vector<unsigned char> t_ln_scaled;

}  // namespace

void SoftmaxApprox::operator()(std::span<float> row) const {
  if (row.empty()) return;
  const float mx = *std::max_element(row.begin(), row.end());
  for (float& v : row) v = std::clamp(v - mx, exp_clip_.lo, exp_clip_.hi);
  exp_fn_->eval_inplace(row);
  float sum = 0.0f;
  for (float v : row) sum += v;
  // The normalizer lies in [1, row_size] because the max element maps to
  // exp(0) = 1; Table 1 trains the Divide LUT on (1, 1024) for exactly this.
  const float inv = recip_fn_->eval(sum);
  for (float& v : row) v *= inv;
}

void SoftmaxApprox::rows(std::span<float> data, std::size_t nrows,
                         std::size_t ncols) const {
  assert(data.size() == nrows * ncols);
  if (nrows == 0 || ncols == 0) return;
  if (nrows == 1) {
    (*this)(data);
    return;
  }
  // Rows are independent: shard row blocks across the pool, each block
  // running the batched three-pass kernel over its sub-span.
  runtime::parallel_for(0, nrows, runtime::grain_for(3 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          rows_block(data.data() + r0 * ncols, r1 - r0, ncols);
                        });
}

void SoftmaxApprox::rows_block(float* data, std::size_t nrows,
                               std::size_t ncols) const {
  std::vector<float>& acc = t_softmax_row;
  // Warm-once per thread: a serving slot's blocks stop growing it after the
  // first request of its largest seq bucket.
  acc.resize(nrows);  // lint:allow hot-alloc
  for_row_groups(nrows, [&](std::size_t r0, auto group) {
    constexpr std::size_t G = decltype(group)::value;
    const float* rows = data + r0 * ncols;
    float mx[G];
    for (std::size_t g = 0; g < G; ++g) mx[g] = rows[g * ncols];
    for (std::size_t j = 1; j < ncols; ++j)
      for (std::size_t g = 0; g < G; ++g)
        mx[g] = std::max(mx[g], rows[g * ncols + j]);
    for (std::size_t g = 0; g < G; ++g) acc[r0 + g] = mx[g];
  });
  for (std::size_t r = 0; r < nrows; ++r) {
    float* row = data + r * ncols;
    const float mx = acc[r];
    for (std::size_t j = 0; j < ncols; ++j)
      row[j] = std::clamp(row[j] - mx, exp_clip_.lo, exp_clip_.hi);
  }
  // One EXP LUT pass over every shifted logit of every row in the block.
  exp_fn_->eval_inplace(std::span<float>(data, nrows * ncols));
  for_row_groups(nrows, [&](std::size_t r0, auto group) {
    constexpr std::size_t G = decltype(group)::value;
    const float* rows = data + r0 * ncols;
    float sum[G] = {};
    for (std::size_t j = 0; j < ncols; ++j)
      for (std::size_t g = 0; g < G; ++g) sum[g] += rows[g * ncols + j];
    for (std::size_t g = 0; g < G; ++g) acc[r0 + g] = sum[g];
  });
  // One Divide LUT pass over all the block's row normalizers.
  recip_fn_->eval_inplace(acc);
  for (std::size_t r = 0; r < nrows; ++r) {
    float* row = data + r * ncols;
    const float inv = acc[r];
    for (std::size_t j = 0; j < ncols; ++j) row[j] *= inv;
  }
}

float LayerNormApprox::inv_std(float v) const {
  if (opt_.input_scaling && v < 1.0f) {
    // v*S stays within the trained range (0.1, 1024) for v > S^-1; smaller
    // variances saturate at the LUT boundary, which is the intended
    // behaviour of the power-of-two pre-scaler.
    return rsqrt_fn_->eval(v * kLayerNormInputScale) *
           std::sqrt(kLayerNormInputScale);
  }
  return rsqrt_fn_->eval(v);
}

void LayerNormApprox::operator()(std::span<const float> x, std::span<float> y,
                                 std::span<const float> gamma,
                                 std::span<const float> beta) const {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  if (n == 0) return;

  float mean = 0.0f, var = 0.0f;
  row_moments<1>(x.data(), n, n, &mean, &var);
  const float inv = inv_std(var + kLayerNormEps);
  affine_row(x.data(), y.data(), n, mean, inv, gamma, beta);
}

void LayerNormApprox::rows(std::span<const float> x, std::span<float> y,
                           std::size_t nrows, std::size_t ncols,
                           std::span<const float> gamma,
                           std::span<const float> beta) const {
  assert(x.size() == nrows * ncols && y.size() == nrows * ncols);
  if (nrows == 0 || ncols == 0) return;
  if (!opt_.allow_parallel) {
    rows_block(x.data(), y.data(), nrows, ncols, gamma, beta);
    return;
  }
  runtime::parallel_for(0, nrows, runtime::grain_for(4 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          rows_block(x.data() + r0 * ncols,
                                     y.data() + r0 * ncols, r1 - r0, ncols,
                                     gamma, beta);
                        });
}

void LayerNormApprox::rows_block(const float* x, float* y, std::size_t nrows,
                                 std::size_t ncols,
                                 std::span<const float> gamma,
                                 std::span<const float> beta) const {
  std::vector<float>& mean = t_ln_mean;
  std::vector<float>& vs = t_ln_vs;
  std::vector<unsigned char>& scaled = t_ln_scaled;
  // Warm-once per thread, like t_softmax_row.
  mean.resize(nrows);  // lint:allow hot-alloc
  vs.resize(nrows);    // lint:allow hot-alloc
  scaled.assign(nrows, 0);  // assign, not resize: stale 1s must clear
  for_row_groups(nrows, [&](std::size_t r0, auto group) {
    constexpr std::size_t G = decltype(group)::value;
    row_moments<G>(x + r0 * ncols, ncols, ncols, &mean[r0], &vs[r0]);
  });
  for (std::size_t r = 0; r < nrows; ++r) {
    vs[r] = vs[r] + kLayerNormEps;
    if (opt_.input_scaling && vs[r] < 1.0f) {
      vs[r] = vs[r] * kLayerNormInputScale;
      scaled[r] = 1;
    }
  }
  // One 1/SQRT LUT pass over every (pre-scaled) row variance.
  rsqrt_fn_->eval_inplace(vs);
  const float root_s = std::sqrt(kLayerNormInputScale);
  for (std::size_t r = 0; r < nrows; ++r) {
    const float inv = scaled[r] ? vs[r] * root_s : vs[r];
    affine_row(x + r * ncols, y + r * ncols, ncols, mean[r], inv, gamma, beta);
  }
}

}  // namespace nnlut

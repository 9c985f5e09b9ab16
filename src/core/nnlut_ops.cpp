#include "core/nnlut_ops.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/lut_kernel_simd.h"
#include "core/nnlut_row_kernel.h"
#include "runtime/thread_pool.h"

namespace nnlut {

#ifdef NNLUT_HAVE_AVX512
namespace detail {
// Defined in nnlut_ops_avx512.cpp (built with -mavx512f -mavx512dq).
const LutRowKernels& lut_row_kernels_avx512();
}  // namespace detail
#endif

namespace {

/// The baseline passes (core/nnlut_row_kernel.h), compiled for the portable
/// ISA.
constexpr detail::LutRowKernels kBaselineRowKernels{
    &detail::softmax_shift, &detail::row_sums, &detail::scale_rows,
    &detail::moments_rows, &detail::affine_rows};

/// The row passes of the active SIMD tier; avx2 runs the baseline build.
const detail::LutRowKernels& row_kernels() {
  switch (simd::active_simd_tier()) {
#ifdef NNLUT_HAVE_AVX512
    case simd::SimdTier::kAvx512:
      return detail::lut_row_kernels_avx512();
#endif
    default:
      return kBaselineRowKernels;
  }
}

// Per-thread block scratch. The rows_block kernels run either on the caller
// or on pool worker threads, both long-lived, so once a thread has seen the
// largest block of a warmed serving slot these never reallocate. Every
// element is (re)written before it is read, so recycled contents cannot
// leak into results. t_softmax_row holds each row's sum, then its
// reciprocal.
thread_local std::vector<float> t_softmax_row;
thread_local std::vector<float> t_ln_mean;
thread_local std::vector<float> t_ln_vs;
thread_local std::vector<unsigned char> t_ln_scaled;

}  // namespace

void SoftmaxApprox::operator()(std::span<float> row) const {
  if (row.empty()) return;
  const float mx = *std::max_element(row.begin(), row.end());
  for (float& v : row) v = std::clamp(v - mx, kExpRange.lo, kExpRange.hi);
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
  // running the tiled kernel (rows_block) over its sub-span.
  runtime::parallel_for(0, nrows, runtime::grain_for(3 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          rows_block(data.data() + r0 * ncols, r1 - r0, ncols);
                        });
}

void SoftmaxApprox::rows_block(float* data, std::size_t nrows,
                               std::size_t ncols) const {
  const detail::LutRowKernels& k = row_kernels();
  std::vector<float>& acc = t_softmax_row;
  // Warm-once per thread: a serving slot's blocks stop growing it after the
  // first request of its largest seq bucket.
  acc.resize(nrows);  // lint:allow hot-alloc
  // The five passes run per tile of rows, so a tile's logits stay in L1 from
  // the shift to the scale. Each pass is per element or per row, so tiling
  // changes no bit.
  const std::size_t tile = softmax_tile_rows(ncols);
  for (std::size_t r0 = 0; r0 < nrows; r0 += tile) {
    const std::size_t n = std::min(tile, nrows - r0);
    float* p = data + r0 * ncols;
    k.softmax_shift(p, n, ncols, kExpRange.lo, kExpRange.hi);
    // One EXP LUT call over every shifted logit of the tile.
    exp_fn_->eval_inplace(std::span<float>(p, n * ncols));
    k.row_sums(p, n, ncols, acc.data() + r0);
    // One Divide LUT call over the tile's row normalizers.
    recip_fn_->eval_inplace(std::span<float>(acc.data() + r0, n));
    k.scale_rows(p, n, ncols, acc.data() + r0);
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
  detail::row_moments<1>(x.data(), n, n, &mean, &var);
  const float inv = inv_std(var + kLayerNormEps);
  detail::affine_row(x.data(), y.data(), n, mean, inv,
                     gamma.empty() ? nullptr : gamma.data(),
                     beta.empty() ? nullptr : beta.data());
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
  const detail::LutRowKernels& k = row_kernels();
  std::vector<float>& mean = t_ln_mean;
  std::vector<float>& vs = t_ln_vs;
  std::vector<unsigned char>& scaled = t_ln_scaled;
  // Warm-once per thread, like t_softmax_row.
  mean.resize(nrows);  // lint:allow hot-alloc
  vs.resize(nrows);    // lint:allow hot-alloc
  scaled.assign(nrows, 0);  // assign, not resize: stale 1s must clear
  k.moments_rows(x, nrows, ncols, mean.data(), vs.data());
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
  for (std::size_t r = 0; r < nrows; ++r)
    if (scaled[r]) vs[r] = vs[r] * root_s;
  k.affine_rows(x, y, nrows, ncols, mean.data(), vs.data(),
                gamma.empty() ? nullptr : gamma.data(),
                beta.empty() ? nullptr : beta.data());
}

}  // namespace nnlut

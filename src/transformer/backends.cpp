#include "transformer/backends.h"

#include <cmath>
#include <stdexcept>

#include "ibert/ibert_kernels.h"
#include "numerics/math.h"
#include "runtime/thread_pool.h"

namespace nnlut::transformer {

namespace {

/// Elementwise activation over a span, sharded across the pool (elementwise
/// maps are trivially independent, so results are pool-size invariant).
void activation_sharded(std::span<float> xs, ActKind act) {
  runtime::parallel_for(0, xs.size(), runtime::grain_for(8),
                        [&](std::size_t i0, std::size_t i1) {
                          if (act == ActKind::kGelu) {
                            for (std::size_t i = i0; i < i1; ++i)
                              xs[i] = gelu_exact(xs[i]);
                          } else {
                            for (std::size_t i = i0; i < i1; ++i)
                              if (xs[i] < 0.0f) xs[i] = 0.0f;
                          }
                        });
}

/// Exact softmax over row blocks, sharded (used by the exact backend and by
/// the LUT backend when softmax is not selected for approximation).
void softmax_exact_rows(std::span<float> data, std::size_t nrows,
                        std::size_t ncols) {
  if (nrows == 0 || ncols == 0) return;
  runtime::parallel_for(0, nrows, runtime::grain_for(4 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          for (std::size_t r = r0; r < r1; ++r)
                            softmax_exact(data.subspan(r * ncols, ncols));
                        });
}

/// Exact LayerNorm over row blocks, sharded (same two call sites).
void layer_norm_exact_rows(std::span<const float> x, std::span<float> y,
                           std::size_t nrows, std::size_t ncols,
                           std::span<const float> gamma,
                           std::span<const float> beta) {
  if (nrows == 0 || ncols == 0) return;
  runtime::parallel_for(0, nrows, runtime::grain_for(4 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          for (std::size_t r = r0; r < r1; ++r)
                            layer_norm_exact(x.subspan(r * ncols, ncols),
                                             y.subspan(r * ncols, ncols),
                                             gamma, beta);
                        });
}

}  // namespace

// ------------------------------------------------- ExactNonlinearities ----

void ExactNonlinearities::activation_rows(std::span<float> data,
                                          std::size_t /*nrows*/,
                                          std::size_t /*ncols*/,
                                          int /*site*/) {
  activation_sharded(data, act_);
}

void ExactNonlinearities::softmax_rows(std::span<float> data,
                                       std::size_t nrows, std::size_t ncols,
                                       int /*site*/) {
  softmax_exact_rows(data, nrows, ncols);
}

void ExactNonlinearities::layer_norm_rows(std::span<const float> x,
                                          std::span<float> y,
                                          std::size_t nrows, std::size_t ncols,
                                          std::span<const float> gamma,
                                          std::span<const float> beta,
                                          int /*site*/) {
  layer_norm_exact_rows(x, y, nrows, ncols, gamma, beta);
}

// --------------------------------------------------- LutNonlinearities ----

LutNonlinearities::LutNonlinearities(std::unique_ptr<ScalarFn> gelu,
                                     std::unique_ptr<ScalarFn> exp,
                                     std::unique_ptr<ScalarFn> recip,
                                     std::unique_ptr<ScalarFn> rsqrt,
                                     Options opt)
    : gelu_fn_(std::move(gelu)),
      exp_fn_(std::move(exp)),
      recip_fn_(std::move(recip)),
      rsqrt_fn_(std::move(rsqrt)),
      opt_(opt) {}

void LutNonlinearities::activation_rows(std::span<float> data,
                                        std::size_t /*nrows*/,
                                        std::size_t /*ncols*/, int /*site*/) {
  if (opt_.select.gelu && opt_.act == ActKind::kGelu) {
    // Elementwise plan evaluation: shard sub-spans across the pool.
    runtime::parallel_for(0, data.size(), runtime::grain_for(8),
                          [&](std::size_t i0, std::size_t i1) {
                            gelu_fn_->eval_inplace(data.subspan(i0, i1 - i0));
                          });
    return;
  }
  // Exact fallback (including ReLU models: ReLU is not approximated).
  activation_sharded(data, opt_.act);
}

void LutNonlinearities::softmax_rows(std::span<float> data, std::size_t nrows,
                                     std::size_t ncols, int /*site*/) {
  if (!opt_.select.softmax) {
    softmax_exact_rows(data, nrows, ncols);
    return;
  }
  const SoftmaxApprox sm(*exp_fn_, *recip_fn_);
  sm.rows(data, nrows, ncols);
}

const ScalarFn& LutNonlinearities::rsqrt_for_site(int site) const {
  if (site >= 0 && static_cast<std::size_t>(site) < site_rsqrt_.size() &&
      site_rsqrt_[static_cast<std::size_t>(site)]) {
    return *site_rsqrt_[static_cast<std::size_t>(site)];
  }
  return *rsqrt_fn_;
}

void LutNonlinearities::layer_norm_rows(std::span<const float> x,
                                        std::span<float> y, std::size_t nrows,
                                        std::size_t ncols,
                                        std::span<const float> gamma,
                                        std::span<const float> beta,
                                        int site) {
  if (!opt_.select.layer_norm) {
    layer_norm_exact_rows(x, y, nrows, ncols, gamma, beta);
    return;
  }

  LayerNormApprox::Options lopt;
  lopt.input_scaling = opt_.input_scaling;

  if (capture_) {
    if (site < 0) throw std::invalid_argument("site must be non-negative");
    if (capture_buffers_.size() <= static_cast<std::size_t>(site))
      capture_buffers_.resize(static_cast<std::size_t>(site) + 1);
    const CapturingFn cap(rsqrt_for_site(site),
                          capture_buffers_[static_cast<std::size_t>(site)]);
    // The capture sink is single-threaded state; keep the block serial so
    // calibration sees every row exactly once and in order.
    lopt.allow_parallel = false;
    const LayerNormApprox ln(cap, lopt);
    ln.rows(x, y, nrows, ncols, gamma, beta);
    return;
  }

  const LayerNormApprox ln(rsqrt_for_site(site), lopt);
  ln.rows(x, y, nrows, ncols, gamma, beta);
}

void LutNonlinearities::set_site_rsqrt(int site, std::unique_ptr<ScalarFn> fn) {
  if (site < 0) throw std::invalid_argument("site must be non-negative");
  if (site_rsqrt_.size() <= static_cast<std::size_t>(site))
    site_rsqrt_.resize(static_cast<std::size_t>(site) + 1);
  site_rsqrt_[static_cast<std::size_t>(site)] = std::move(fn);
}

void LutNonlinearities::enable_rsqrt_capture() { capture_ = true; }

void LutNonlinearities::disable_rsqrt_capture() { capture_ = false; }

const std::vector<float>& LutNonlinearities::captured_rsqrt_inputs(
    int site) const {
  static const std::vector<float> kEmpty;
  if (site < 0 || static_cast<std::size_t>(site) >= capture_buffers_.size())
    return kEmpty;
  return capture_buffers_[static_cast<std::size_t>(site)];
}

// ------------------------------------------------- IBertNonlinearities ----

void IBertNonlinearities::activation_rows(std::span<float> data,
                                          std::size_t nrows, std::size_t ncols,
                                          int /*site*/) {
  if (act_ == ActKind::kGelu) {
    ibert::gelu_rows(data, nrows, ncols);  // one scale per token row
  } else {
    activation_sharded(data, ActKind::kRelu);  // elementwise, row-agnostic
  }
}

void IBertNonlinearities::softmax_rows(std::span<float> data,
                                       std::size_t nrows, std::size_t ncols,
                                       int /*site*/) {
  ibert::softmax_rows(data, nrows, ncols);
}

void IBertNonlinearities::layer_norm_rows(std::span<const float> x,
                                          std::span<float> y,
                                          std::size_t nrows, std::size_t ncols,
                                          std::span<const float> gamma,
                                          std::span<const float> beta,
                                          int /*site*/) {
  ibert::layernorm_rows(x, y, nrows, ncols, gamma, beta);
}

// ------------------------------------------------------------ factories ---

std::unique_ptr<LutNonlinearities> make_lut_backend(
    const LutSet& luts, LutPrecision precision,
    LutNonlinearities::Options opt) {
  // Input magnitude bounds for INT32 quantization, from the Table-1 training
  // ranges (the paper pre-scales unit inputs to the covered range).
  auto gelu = make_lut_fn(luts.gelu, precision, 5.0f);
  auto exp = make_lut_fn(luts.exp, precision, 256.0f);
  auto recip = make_lut_fn(luts.reciprocal, precision, 1024.0f);
  auto rsqrt = make_lut_fn(luts.rsqrt, precision, 1024.0f);
  return std::make_unique<LutNonlinearities>(std::move(gelu), std::move(exp),
                                             std::move(recip), std::move(rsqrt),
                                             opt);
}

}  // namespace nnlut::transformer

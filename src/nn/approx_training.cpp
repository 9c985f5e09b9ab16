#include "nn/approx_training.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace nnlut::nn {

Tensor LutAct::forward(const Tensor& x) {
  if (lut_ == nullptr) throw std::logic_error("LutAct used without a LUT");
  x_cache_ = x;
  Tensor y = x;
  lut_->eval_inplace(y.flat());  // whole tensor through the compiled plan
  return y;
}

Tensor LutAct::backward(const Tensor& dy) {
  assert(dy.size() == x_cache_.size());
  Tensor dx = dy;
  const auto xs = x_cache_.flat();
  auto d = dx.flat();
  const auto slopes = lut_->slopes();
  for (std::size_t i = 0; i < d.size(); ++i)
    d[i] *= slopes[lut_->segment_index(xs[i])];
  return dx;
}

LutLayerNorm::LutLayerNorm(std::size_t dim, const PiecewiseLinear* rsqrt_lut,
                           bool input_scaling)
    : gamma({dim}),
      beta({dim}),
      rsqrt_(rsqrt_lut),
      input_scaling_(input_scaling) {
  gamma.value.fill(1.0f);
}

float LutLayerNorm::inv_std(float v) const {
  if (input_scaling_ && v < 1.0f)
    return (*rsqrt_)(v * kLayerNormInputScale) *
           std::sqrt(kLayerNormInputScale);
  return (*rsqrt_)(v);
}

float LutLayerNorm::inv_std_grad(float v) const {
  const auto slopes = rsqrt_->slopes();
  if (input_scaling_ && v < 1.0f) {
    const float xs = v * kLayerNormInputScale;
    return slopes[rsqrt_->segment_index(xs)] * kLayerNormInputScale *
           std::sqrt(kLayerNormInputScale);
  }
  return slopes[rsqrt_->segment_index(v)];
}

Tensor LutLayerNorm::forward(const Tensor& x) {
  if (rsqrt_ == nullptr)
    throw std::logic_error("LutLayerNorm used without a LUT");
  assert(x.rank() == 2 && x.dim(1) == gamma.value.dim(0));
  const std::size_t rows = x.dim(0), dim = x.dim(1);

  u_cache_ = Tensor({rows, dim});
  r_cache_.assign(rows, 0.0f);
  v_cache_.assign(rows, 0.0f);
  Tensor y({rows, dim});

  for (std::size_t r = 0; r < rows; ++r) {
    const auto xin = x.row(r);
    double mean = 0.0;
    for (float vv : xin) mean += vv;
    mean /= static_cast<double>(dim);
    double var = 0.0;
    for (float vv : xin) {
      const double d = vv - mean;
      var += d * d;
    }
    var /= static_cast<double>(dim);

    const float v = static_cast<float>(var) + kLayerNormEps;
    const float inv = inv_std(v);
    v_cache_[r] = v;
    r_cache_[r] = inv;

    auto u = u_cache_.row(r);
    auto yo = y.row(r);
    for (std::size_t j = 0; j < dim; ++j) {
      u[j] = xin[j] - static_cast<float>(mean);
      yo[j] = u[j] * inv * gamma.value[j] + beta.value[j];
    }
  }
  return y;
}

Tensor LutLayerNorm::backward(const Tensor& dy) {
  const std::size_t rows = dy.dim(0), dim = dy.dim(1);
  assert(rows == u_cache_.dim(0));
  Tensor dx({rows, dim});
  const float inv_n = 1.0f / static_cast<float>(dim);
  const auto dgamma = gamma.ensure_grad().flat();
  const auto dbeta = beta.ensure_grad().flat();

  for (std::size_t r = 0; r < rows; ++r) {
    const auto dyr = dy.row(r);
    const auto u = u_cache_.row(r);
    auto dxr = dx.row(r);
    const float rr = r_cache_[r];
    const float rp = inv_std_grad(v_cache_[r]);

    double sum_g = 0.0, sum_gu = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      const float g = dyr[j] * gamma.value[j];
      dgamma[j] += dyr[j] * u[j] * rr;
      dbeta[j] += dyr[j];
      sum_g += g;
      sum_gu += static_cast<double>(g) * u[j];
    }
    const float mg = static_cast<float>(sum_g) * inv_n;
    const float gu = static_cast<float>(sum_gu);

    for (std::size_t j = 0; j < dim; ++j) {
      const float g = dyr[j] * gamma.value[j];
      dxr[j] = rr * (g - mg) + 2.0f * u[j] * inv_n * rp * gu;
    }
  }
  return dx;
}

}  // namespace nnlut::nn

#include "nn/layers.h"

#include <cassert>
#include <cmath>

#include "numerics/math.h"
#include "tensor/ops.h"

namespace nnlut::nn {

namespace {
void xavier_init(Tensor& t, std::size_t fan_in, std::size_t fan_out, Rng& rng) {
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (float& v : t.flat()) v = rng.uniform(-bound, bound);
}
}  // namespace

// -------------------------------------------------------------- Linear ----

Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : w({in, out}), b({out}) {
  xavier_init(w.value, in, out, rng);
}

Tensor Linear::forward(const Tensor& x) {
  assert(x.rank() == 2 && x.dim(1) == in_features());
  x_cache_ = x;
  Tensor y({x.dim(0), out_features()});
  matmul(x, w.value, y);
  add_row_bias(y, b.value.flat());
  return y;
}

Tensor Linear::backward(const Tensor& dy) {
  assert(dy.rank() == 2 && dy.dim(1) == out_features());
  assert(dy.dim(0) == x_cache_.dim(0));
  // dW += X^T dY ; db += colsum(dY) ; dX = dY W^T.
  matmul_at_accumulate(x_cache_, dy, w.ensure_grad());
  col_sum_accumulate(dy, b.ensure_grad().flat());
  Tensor dx({dy.dim(0), in_features()});
  matmul_bt(dy, w.value, dx);
  return dx;
}

// ----------------------------------------------------------- LayerNorm ----

LayerNorm::LayerNorm(std::size_t dim) : gamma({dim}), beta({dim}) {
  gamma.value.fill(1.0f);
}

Tensor LayerNorm::forward(const Tensor& x) {
  assert(x.rank() == 2 && x.dim(1) == gamma.value.dim(0));
  const std::size_t rows = x.dim(0), dim = x.dim(1);
  xhat_cache_ = Tensor({rows, dim});
  inv_std_.assign(rows, 0.0f);
  Tensor y({rows, dim});

  for (std::size_t r = 0; r < rows; ++r) {
    const auto xin = x.row(r);
    double mean = 0.0;
    for (float v : xin) mean += v;
    mean /= static_cast<double>(dim);
    double var = 0.0;
    for (float v : xin) {
      const double d = v - mean;
      var += d * d;
    }
    var /= static_cast<double>(dim);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    inv_std_[r] = inv;
    auto xh = xhat_cache_.row(r);
    auto yo = y.row(r);
    for (std::size_t j = 0; j < dim; ++j) {
      xh[j] = (xin[j] - static_cast<float>(mean)) * inv;
      yo[j] = xh[j] * gamma.value[j] + beta.value[j];
    }
  }
  return y;
}

Tensor LayerNorm::backward(const Tensor& dy) {
  const std::size_t rows = dy.dim(0), dim = dy.dim(1);
  assert(rows == xhat_cache_.dim(0));
  Tensor dx({rows, dim});
  const auto dgamma = gamma.ensure_grad().flat();
  const auto dbeta = beta.ensure_grad().flat();

  for (std::size_t r = 0; r < rows; ++r) {
    const auto dyr = dy.row(r);
    const auto xh = xhat_cache_.row(r);
    auto dxr = dx.row(r);

    // dgamma_j += dy_j * xhat_j ; dbeta_j += dy_j.
    double sum_g = 0.0, sum_gx = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      const float g = dyr[j] * gamma.value[j];
      dgamma[j] += dyr[j] * xh[j];
      dbeta[j] += dyr[j];
      sum_g += g;
      sum_gx += static_cast<double>(g) * xh[j];
    }
    // Standard LayerNorm backward:
    // dx = inv_std * (g - mean(g) - xhat * mean(g * xhat)).
    const float mg = static_cast<float>(sum_g / dim);
    const float mgx = static_cast<float>(sum_gx / dim);
    for (std::size_t j = 0; j < dim; ++j) {
      const float g = dyr[j] * gamma.value[j];
      dxr[j] = inv_std_[r] * (g - mg - xh[j] * mgx);
    }
  }
  return dx;
}

// -------------------------------------------------------------- NoNorm ----

NoNorm::NoNorm(std::size_t dim) : gamma({dim}), beta({dim}) {
  gamma.value.fill(1.0f);
}

Tensor NoNorm::forward(const Tensor& x) {
  assert(x.rank() == 2 && x.dim(1) == gamma.value.dim(0));
  x_cache_ = x;
  const std::size_t rows = x.dim(0), dim = x.dim(1);
  Tensor y({rows, dim});
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t j = 0; j < dim; ++j)
      y.at(r, j) = x.at(r, j) * gamma.value[j] + beta.value[j];
  return y;
}

Tensor NoNorm::backward(const Tensor& dy) {
  const std::size_t rows = dy.dim(0), dim = dy.dim(1);
  Tensor dx({rows, dim});
  const auto dgamma = gamma.ensure_grad().flat();
  const auto dbeta = beta.ensure_grad().flat();
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t j = 0; j < dim; ++j) {
      dgamma[j] += dy.at(r, j) * x_cache_.at(r, j);
      dbeta[j] += dy.at(r, j);
      dx.at(r, j) = dy.at(r, j) * gamma.value[j];
    }
  return dx;
}

// ----------------------------------------------------------- Embedding ----

Embedding::Embedding(std::size_t vocab, std::size_t dim, Rng& rng)
    : table({vocab, dim}) {
  for (float& v : table.value.flat()) v = rng.normal(0.0f, 0.02f);
}

Tensor Embedding::forward(std::span<const int> ids) {
  ids_cache_.assign(ids.begin(), ids.end());
  const std::size_t dim = table.value.dim(1);
  Tensor y({ids.size(), dim});
  for (std::size_t r = 0; r < ids.size(); ++r) {
    assert(ids[r] >= 0 &&
           static_cast<std::size_t>(ids[r]) < table.value.dim(0));
    const auto src = table.value.row(static_cast<std::size_t>(ids[r]));
    auto dst = y.row(r);
    for (std::size_t j = 0; j < dim; ++j) dst[j] = src[j];
  }
  return y;
}

void Embedding::backward(const Tensor& dy) {
  assert(dy.dim(0) == ids_cache_.size());
  const std::size_t dim = table.value.dim(1);
  Tensor& grad = table.ensure_grad();
  for (std::size_t r = 0; r < ids_cache_.size(); ++r) {
    auto dst = grad.row(static_cast<std::size_t>(ids_cache_[r]));
    const auto src = dy.row(r);
    for (std::size_t j = 0; j < dim; ++j) dst[j] += src[j];
  }
}

// --------------------------------------------------------- Activations ----

float gelu_grad(float x) {
  // d/dx [x * Phi(x)] = Phi(x) + x * phi(x), with Phi the normal CDF.
  const float phi = std::exp(-0.5f * x * x) * 0.3989422804f;  // 1/sqrt(2pi)
  const float Phi = 0.5f * (1.0f + std::erf(x * static_cast<float>(M_SQRT1_2)));
  return Phi + x * phi;
}

Tensor GeluAct::forward(const Tensor& x) {
  x_cache_ = x;
  Tensor y = x;
  for (float& v : y.flat()) v = gelu_exact(v);
  return y;
}

Tensor GeluAct::backward(const Tensor& dy) {
  assert(dy.size() == x_cache_.size());
  Tensor dx = dy;
  const auto xs = x_cache_.flat();
  auto d = dx.flat();
  for (std::size_t i = 0; i < d.size(); ++i) d[i] *= gelu_grad(xs[i]);
  return dx;
}

Tensor ReluAct::forward(const Tensor& x) {
  x_cache_ = x;
  Tensor y = x;
  for (float& v : y.flat())
    if (v < 0.0f) v = 0.0f;
  return y;
}

Tensor ReluAct::backward(const Tensor& dy) {
  assert(dy.size() == x_cache_.size());
  Tensor dx = dy;
  const auto xs = x_cache_.flat();
  auto d = dx.flat();
  for (std::size_t i = 0; i < d.size(); ++i)
    if (xs[i] <= 0.0f) d[i] = 0.0f;
  return dx;
}

}  // namespace nnlut::nn

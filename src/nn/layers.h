// Trainable layers with hand-written forward/backward passes. This is the
// substrate that lets the repository train transformer models from scratch
// (the paper evaluates on *fine-tuned* RoBERTa/MobileBERT; without their
// checkpoints we must be able to produce trained models ourselves).
//
// Convention: activations are 2-D tensors [rows, features] with
// rows = batch * seq for transformer layers. backward(dy) returns dx and
// accumulates parameter gradients (call Param::zero_grad between steps).
#pragma once

#include <span>
#include <vector>

#include "numerics/rng.h"
#include "tensor/tensor.h"

namespace nnlut::nn {

/// A trainable parameter: value plus accumulated gradient. `grad` stays
/// empty until the first gradient write, so a model that only runs forward
/// (inference, serving) holds no gradient memory; after a backward pass,
/// zero_grad() or an optimizer's construction it is sized to `value`.
struct Param {
  Tensor value;
  Tensor grad;

  Param() = default;
  explicit Param(std::vector<std::size_t> shape) : value(std::move(shape)) {}

  /// `grad`, sized to `value` and zero-filled the first time it is used.
  /// Every gradient writer goes through this.
  Tensor& ensure_grad() {
    if (grad.shape() != value.shape()) grad = Tensor(value.shape());
    return grad;
  }
  void zero_grad() { ensure_grad().zero(); }
  std::size_t size() const { return value.size(); }
};

/// y = x W + b with W [in, out].
class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in, std::size_t out, Rng& rng);

  Tensor forward(const Tensor& x);
  /// Returns dx; accumulates dW, db.
  Tensor backward(const Tensor& dy);

  std::size_t in_features() const { return w.value.dim(0); }
  std::size_t out_features() const { return w.value.dim(1); }
  std::vector<Param*> params() { return {&w, &b}; }

  Param w;
  Param b;

 private:
  Tensor x_cache_;
};

/// Trainable LayerNorm over the last dimension.
class LayerNorm {
 public:
  LayerNorm() = default;
  explicit LayerNorm(std::size_t dim);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  std::vector<Param*> params() { return {&gamma, &beta}; }

  Param gamma;
  Param beta;
  float eps = 1e-5f;

 private:
  Tensor xhat_cache_;           // normalized activations
  std::vector<float> inv_std_;  // per row
};

/// MobileBERT-style NoNorm: y = gamma * x + beta (element-wise affine, no
/// cross-feature statistics — hence no 1/sqrt non-linearity at inference).
class NoNorm {
 public:
  NoNorm() = default;
  explicit NoNorm(std::size_t dim);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  std::vector<Param*> params() { return {&gamma, &beta}; }

  Param gamma;
  Param beta;

 private:
  Tensor x_cache_;
};

/// Token embedding lookup: ids -> rows of a [vocab, dim] table.
class Embedding {
 public:
  Embedding() = default;
  Embedding(std::size_t vocab, std::size_t dim, Rng& rng);

  Tensor forward(std::span<const int> ids);
  /// Scatter-accumulates gradients for the rows used in forward.
  void backward(const Tensor& dy);

  std::vector<Param*> params() { return {&table}; }

  Param table;

 private:
  std::vector<int> ids_cache_;
};

/// Elementwise activations with cached inputs.
class GeluAct {
 public:
  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

 private:
  Tensor x_cache_;
};

class ReluAct {
 public:
  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

 private:
  Tensor x_cache_;
};

/// Derivative of GELU at x (used by GeluAct and exposed for tests).
float gelu_grad(float x);

}  // namespace nnlut::nn

// Approximation-aware fine-tuning layers (extension; cf. the paper's Sec. 1:
// I-BERT and Softermax "take advantage of approximation-aware fine-tuning to
// adjust the entire model parameters for compensation of approximation
// errors" — NN-LUT's pitch is that it does NOT need this. These layers make
// the comparison measurable: they run a LUT *inside* the training graph, so
// gradient descent adapts the transformer weights to the approximation.
//
// Backward passes use the LUT's exact derivative: the active segment's
// slope (the LUT is piecewise-linear, so this is its true gradient almost
// everywhere).
#pragma once

#include "core/nnlut_ops.h"
#include "core/piecewise_linear.h"
#include "nn/layers.h"

namespace nnlut::nn {

/// Elementwise activation through a LUT (e.g. an approximated GELU).
class LutAct {
 public:
  LutAct() = default;
  /// The LUT must outlive this layer.
  explicit LutAct(const PiecewiseLinear* lut) : lut_(lut) {}

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  bool has_lut() const { return lut_ != nullptr; }

 private:
  const PiecewiseLinear* lut_ = nullptr;
  Tensor x_cache_;
};

/// Trainable LayerNorm whose 1/sqrt(var + eps) comes from a LUT, with the
/// paper's power-of-two input scaling. Forward matches
/// core::LayerNormApprox; backward differentiates through the piecewise
/// inv-std, including the d(inv_std)/d(var) term:
///   dx_j = r*(g_j - mean(g)) + (2 u_j / n) * r'(v) * sum_i g_i u_i
/// with u = x - mu, r = LUT-based inv_std, g = dy * gamma.
class LutLayerNorm {
 public:
  LutLayerNorm() = default;
  LutLayerNorm(std::size_t dim, const PiecewiseLinear* rsqrt_lut,
               bool input_scaling = true);

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  std::vector<Param*> params() { return {&gamma, &beta}; }

  /// inv_std and its derivative w.r.t. v (= var + eps), through the LUT and
  /// the input-scaling branch.
  float inv_std(float v) const;
  float inv_std_grad(float v) const;

  Param gamma;
  Param beta;

 private:
  const PiecewiseLinear* rsqrt_ = nullptr;
  bool input_scaling_ = true;

  Tensor u_cache_;               // x - mu per element
  std::vector<float> r_cache_;   // inv_std per row
  std::vector<float> v_cache_;   // var + eps per row
};

}  // namespace nnlut::nn

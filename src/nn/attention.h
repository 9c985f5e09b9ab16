// Multi-head self-attention with hand-written backward pass.
// Activations are [batch*seq, hidden]; every per-(batch, head) product is a
// strided gemm call over column slices of them, so nothing is reshaped.
#pragma once

#include <vector>

#include "nn/layers.h"

namespace nnlut::nn {

class MultiHeadAttention {
 public:
  MultiHeadAttention() = default;
  MultiHeadAttention(std::size_t hidden, std::size_t heads, Rng& rng);

  /// x: [batch*seq, hidden]. Full (unmasked) bidirectional attention, the
  /// BERT-encoder setting.
  Tensor forward(const Tensor& x, std::size_t batch, std::size_t seq);
  Tensor backward(const Tensor& dy);

  std::vector<Param*> params();

  Linear wq, wk, wv, wo;
  std::size_t heads = 1;

 private:
  std::size_t batch_ = 0, seq_ = 0, head_dim_ = 0;
  // Caches from forward: the Q, K, V projections [batch*seq, hidden] (head h
  // is the column slice at h*head_dim) and the attention probabilities
  // [batch*heads, seq, seq].
  Tensor q_, k_, v_;
  Tensor probs_;
};

}  // namespace nnlut::nn

#include "nn/attention.h"

#include <cassert>
#include <cmath>

#include "numerics/math.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace nnlut::nn {

MultiHeadAttention::MultiHeadAttention(std::size_t hidden, std::size_t heads_n,
                                       Rng& rng)
    : wq(hidden, hidden, rng),
      wk(hidden, hidden, rng),
      wv(hidden, hidden, rng),
      wo(hidden, hidden, rng),
      heads(heads_n) {
  assert(hidden % heads_n == 0);
}

std::vector<Param*> MultiHeadAttention::params() {
  std::vector<Param*> ps;
  for (Linear* l : {&wq, &wk, &wv, &wo})
    for (Param* p : l->params()) ps.push_back(p);
  return ps;
}

Tensor MultiHeadAttention::forward(const Tensor& x, std::size_t batch,
                                   std::size_t seq) {
  const std::size_t hidden = x.dim(1);
  assert(x.dim(0) == batch * seq);
  batch_ = batch;
  seq_ = seq;
  head_dim_ = hidden / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  q_ = wq.forward(x);  // [B*S, H]; head h is the column slice h*head_dim
  k_ = wk.forward(x);
  v_ = wv.forward(x);
  probs_ = Tensor({batch * heads, seq, seq});
  Tensor context({batch * seq, hidden});

  // Per (batch, head): P = softmax(Q K^T * scale), context = P V, all three
  // operands read as column slices of the [B*S, H] projections.
  for (std::size_t bh = 0; bh < batch * heads; ++bh) {
    const std::size_t off =
        (bh / heads) * seq * hidden + (bh % heads) * head_dim_;
    float* p = probs_.data() + bh * seq * seq;
    gemm(seq, seq, head_dim_, q_.data() + off, hidden, k_.data() + off, hidden,
         p, seq, {.trans_b = true});
    for (std::size_t e = 0; e < seq * seq; ++e) p[e] *= scale;
    for (std::size_t i = 0; i < seq; ++i) softmax_exact({p + i * seq, seq});
    gemm(seq, head_dim_, seq, p, seq, v_.data() + off, hidden,
         context.data() + off, hidden);
  }

  return wo.forward(context);
}

Tensor MultiHeadAttention::backward(const Tensor& dy) {
  const std::size_t hidden = heads * head_dim_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  const Tensor dcontext = wo.backward(dy);  // [B*S, H]

  Tensor dq({batch_ * seq_, hidden});
  Tensor dk({batch_ * seq_, hidden});
  Tensor dv({batch_ * seq_, hidden});
  Tensor ds({seq_, seq_});

  for (std::size_t bh = 0; bh < batch_ * heads; ++bh) {
    const std::size_t off =
        (bh / heads) * seq_ * hidden + (bh % heads) * head_dim_;
    const float* p = probs_.data() + bh * seq_ * seq_;
    // dP = dC V^T, then the softmax backward row by row, in place:
    // dS[i,j] = P[i,j] * (dP[i,j] - sum_k P[i,k] dP[i,k]) * scale.
    gemm(seq_, seq_, head_dim_, dcontext.data() + off, hidden, v_.data() + off,
         hidden, ds.data(), seq_, {.trans_b = true});
    for (std::size_t i = 0; i < seq_; ++i) {
      const float* prow = p + i * seq_;
      float* dsrow = ds.data() + i * seq_;
      double dot = 0.0;
      for (std::size_t j = 0; j < seq_; ++j)
        dot += static_cast<double>(prow[j]) * dsrow[j];
      for (std::size_t j = 0; j < seq_; ++j)
        dsrow[j] = prow[j] * (dsrow[j] - static_cast<float>(dot)) * scale;
    }
    // dV = P^T dC, dQ = dS K, dK = dS^T Q.
    gemm(seq_, head_dim_, seq_, p, seq_, dcontext.data() + off, hidden,
         dv.data() + off, hidden, {.trans_a = true});
    gemm(seq_, head_dim_, seq_, ds.data(), seq_, k_.data() + off, hidden,
         dq.data() + off, hidden);
    gemm(seq_, head_dim_, seq_, ds.data(), seq_, q_.data() + off, hidden,
         dk.data() + off, hidden, {.trans_a = true});
  }

  Tensor dx = wq.backward(dq);
  add_inplace(dx, wk.backward(dk));
  add_inplace(dx, wv.backward(dv));
  return dx;
}

}  // namespace nnlut::nn

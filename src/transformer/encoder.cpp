#include "transformer/encoder.h"

#include <cassert>
#include <stdexcept>

#include "tensor/ops.h"

namespace nnlut::transformer {

// ------------------------------------------------------------ NormSlot ----

NormSlot::NormSlot(NormKind kind, std::size_t dim) : kind_(kind) {
  if (kind_ == NormKind::kLayerNorm) {
    ln_ = nn::LayerNorm(dim);
  } else {
    nonorm_ = nn::NoNorm(dim);
  }
}

void NormSlot::install_lut_rsqrt(const PiecewiseLinear* lut,
                                 bool input_scaling) {
  if (kind_ != NormKind::kLayerNorm) return;  // NoNorm has no 1/sqrt
  lut_rsqrt_ = lut;
  if (lut != nullptr) {
    // Share the affine parameters with the exact layer so switching the
    // implementation preserves the trained gamma/beta (and their gradients
    // accumulate into the same tensors).
    lut_ln_ = nn::LutLayerNorm(ln_.gamma.value.dim(0), lut, input_scaling);
    lut_ln_.gamma.value = ln_.gamma.value;
    lut_ln_.beta.value = ln_.beta.value;
  }
}

Tensor NormSlot::forward(const Tensor& x) {
  if (kind_ != NormKind::kLayerNorm) return nonorm_.forward(x);
  if (lut_rsqrt_ != nullptr) {
    // Keep the LUT layer's affine params in sync with the canonical ones.
    lut_ln_.gamma.value = ln_.gamma.value;
    lut_ln_.beta.value = ln_.beta.value;
    return lut_ln_.forward(x);
  }
  return ln_.forward(x);
}

Tensor NormSlot::backward(const Tensor& dy) {
  if (kind_ != NormKind::kLayerNorm) return nonorm_.backward(dy);
  if (lut_rsqrt_ != nullptr) {
    lut_ln_.gamma.zero_grad();
    lut_ln_.beta.zero_grad();
    Tensor dx = lut_ln_.backward(dy);
    // Accumulate into the canonical parameter gradients.
    for (std::size_t i = 0; i < ln_.gamma.grad.size(); ++i) {
      ln_.gamma.grad[i] += lut_ln_.gamma.grad[i];
      ln_.beta.grad[i] += lut_ln_.beta.grad[i];
    }
    return dx;
  }
  return ln_.backward(dy);
}

std::vector<nn::Param*> NormSlot::params() {
  return kind_ == NormKind::kLayerNorm ? ln_.params() : nonorm_.params();
}

const nn::Param& NormSlot::gamma() const {
  return kind_ == NormKind::kLayerNorm ? ln_.gamma : nonorm_.gamma;
}

const nn::Param& NormSlot::beta() const {
  return kind_ == NormKind::kLayerNorm ? ln_.beta : nonorm_.beta;
}

// -------------------------------------------------------- EncoderLayer ----

EncoderLayer::EncoderLayer(const ModelConfig& cfg, Rng& rng)
    : attn(cfg.hidden, cfg.heads, rng),
      norm1(cfg.norm, cfg.hidden),
      norm2(cfg.norm, cfg.hidden),
      ff1(cfg.hidden, cfg.ffn, rng),
      ff2(cfg.ffn, cfg.hidden, rng),
      act_(cfg.act) {}

void EncoderLayer::install_lut_activation(const PiecewiseLinear* lut) {
  use_lut_act_ = (lut != nullptr);
  lut_act_ = nn::LutAct(lut);
}

Tensor EncoderLayer::forward(const Tensor& x, std::size_t batch,
                             std::size_t seq) {
  Tensor a = attn.forward(x, batch, seq);
  add_inplace(a, x);  // residual
  const Tensor x1 = norm1.forward(a);

  Tensor h = ff1.forward(x1);
  if (use_lut_act_) {
    h = lut_act_.forward(h);
  } else {
    h = (act_ == ActKind::kGelu) ? gelu_.forward(h) : relu_.forward(h);
  }
  Tensor f = ff2.forward(h);
  add_inplace(f, x1);  // residual
  return norm2.forward(f);
}

Tensor EncoderLayer::backward(const Tensor& dy) {
  Tensor df = norm2.backward(dy);  // gradient of (f + x1)

  Tensor dh = ff2.backward(df);
  if (use_lut_act_) {
    dh = lut_act_.backward(dh);
  } else {
    dh = (act_ == ActKind::kGelu) ? gelu_.backward(dh) : relu_.backward(dh);
  }
  Tensor dx1 = ff1.backward(dh);
  add_inplace(dx1, df);  // residual path

  Tensor da = norm1.backward(dx1);  // gradient of (a + x)
  Tensor dx = attn.backward(da);
  add_inplace(dx, da);  // residual path
  return dx;
}

std::vector<nn::Param*> EncoderLayer::params() {
  std::vector<nn::Param*> ps = attn.params();
  for (auto* p : norm1.params()) ps.push_back(p);
  for (auto* p : norm2.params()) ps.push_back(p);
  for (auto* p : ff1.params()) ps.push_back(p);
  for (auto* p : ff2.params()) ps.push_back(p);
  return ps;
}

// ------------------------------------------------------------- Encoder ----

Encoder::Encoder(const ModelConfig& cfg, Rng& rng)
    : tok_emb(cfg.vocab, cfg.hidden, rng),
      pos_emb(cfg.max_seq, cfg.hidden, rng),
      type_emb(cfg.type_vocab, cfg.hidden, rng),
      emb_norm(cfg.norm, cfg.hidden),
      cfg_(cfg) {
  layers.reserve(cfg.layers);
  for (std::size_t i = 0; i < cfg.layers; ++i) layers.emplace_back(cfg, rng);
}

Tensor Encoder::forward(const BatchInput& in) {
  // An empty batch has no rows for a head to read: a classification head
  // would take row 0 of a 0-row hidden state.
  if (in.batch == 0 || in.seq == 0)
    throw std::invalid_argument(
        "Encoder::forward: empty batch (batch or seq is 0)");
  if (in.token_ids.size() != in.batch * in.seq ||
      in.type_ids.size() != in.batch * in.seq)
    throw std::invalid_argument("Encoder::forward: bad batch shape");
  if (in.seq > cfg_.max_seq)
    throw std::invalid_argument("Encoder::forward: sequence too long");
  batch_ = in.batch;
  seq_ = in.seq;

  Tensor x = tok_emb.forward(in.token_ids);

  std::vector<int> pos_ids(in.batch * in.seq);
  for (std::size_t b = 0; b < in.batch; ++b)
    for (std::size_t s = 0; s < in.seq; ++s)
      pos_ids[b * in.seq + s] = static_cast<int>(s);
  add_inplace(x, pos_emb.forward(pos_ids));
  add_inplace(x, type_emb.forward(in.type_ids));

  x = emb_norm.forward(x);
  for (EncoderLayer& layer : layers) x = layer.forward(x, in.batch, in.seq);
  return x;
}

void Encoder::backward(const Tensor& dhidden) {
  Tensor d = dhidden;
  for (std::size_t i = layers.size(); i-- > 0;) d = layers[i].backward(d);
  d = emb_norm.backward(d);
  tok_emb.backward(d);
  pos_emb.backward(d);
  type_emb.backward(d);
}

std::vector<nn::Param*> Encoder::params() {
  std::vector<nn::Param*> ps;
  for (auto* p : tok_emb.params()) ps.push_back(p);
  for (auto* p : pos_emb.params()) ps.push_back(p);
  for (auto* p : type_emb.params()) ps.push_back(p);
  for (auto* p : emb_norm.params()) ps.push_back(p);
  for (EncoderLayer& l : layers)
    for (auto* p : l.params()) ps.push_back(p);
  return ps;
}

}  // namespace nnlut::transformer

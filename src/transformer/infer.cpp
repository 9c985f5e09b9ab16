#include "transformer/infer.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "ibert/quantization.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace nnlut::transformer {

namespace {

/// Project a tensor to the matmul operand precision, in place. kInt8 gives
/// each run of `group` consecutive values its own symmetric scale: weights
/// pass their whole size (one per-tensor scale), activations their row
/// length (one scale per token, so a request's rows never depend on the
/// requests merged into its batch).
void project(Tensor& t, MatmulMode mode, std::size_t group) {
  switch (mode) {
    case MatmulMode::kFp32:
      return;
    case MatmulMode::kFp16:
      ibert::fake_quantize_fp16(t.flat());
      return;
    case MatmulMode::kInt8:
      for (std::size_t i = 0; i < t.size(); i += group)
        ibert::fake_quantize(t.flat().subspan(i, group), 8);
      return;
  }
}

/// Project an activation block to the matmul operand precision, row by row.
void project_rows(Tensor& t, MatmulMode mode) { project(t, mode, t.dim(1)); }

/// Throws std::invalid_argument naming the tensor if `t` holds a NaN or
/// +-inf. The matmul kernels propagate non-finite weights into every logit
/// they touch, so the model rejects them once, up front. `layer` is the
/// encoder layer index, or -1 for the head.
void require_finite(const Tensor& t, int layer, const char* name,
                    const char* what) {
  for (std::size_t i = 0; i < t.size(); ++i)
    if (!std::isfinite(t[i]))
      throw std::invalid_argument(
          "InferenceModel: " +
          (layer < 0 ? std::string() : "layer " + std::to_string(layer) + " ") +
          name + " " + what + " has a non-finite value at index " +
          std::to_string(i));
}

}  // namespace

void InferenceModel::PreparedLinear::apply_into(const Tensor& x,
                                                MatmulMode mode, Workspace& ws,
                                                Tensor& y) const {
  const Tensor& w = weight();
  assert(y.rank() == 2 && y.dim(0) == x.dim(0) && y.dim(1) == w.dim(1));
  const Tensor* operand = &x;
  if (mode != MatmulMode::kFp32) {
    ws.prepare(ws.proj, {x.dim(0), x.dim(1)});
    std::memcpy(ws.proj.data(), x.data(), x.size() * sizeof(float));
    project_rows(ws.proj, mode);
    operand = &ws.proj;
  }
  matmul(*operand, w, y);  // matmul zero-fills y before accumulating
  add_row_bias(y, lin->b.value.flat());
  if (mode == MatmulMode::kFp16) ibert::fake_quantize_fp16(y.flat());
}

InferenceModel::InferenceModel(const TaskModel& model, NonlinearitySet& nl,
                               MatmulMode mode)
    : model_(&model), nl_(&nl), mode_(mode) {
  // Weights are checked before projection and after it: int8 scaling can
  // hide an inf (the scale becomes inf, every value 0), and fp16 rounds
  // weights past 65504 to inf.
  const auto prepared = [](const nn::Linear& lin, MatmulMode m, int layer,
                           const char* name) {
    require_finite(lin.w.value, layer, name, "weight");
    require_finite(lin.b.value, layer, name, "bias");
    PreparedLinear p{&lin, Tensor()};
    if (m != MatmulMode::kFp32) {
      p.projected = lin.w.value;
      project(p.projected, m, p.projected.size());
      require_finite(p.projected, layer, name, "weight after projection");
    }
    return p;
  };
  layers_.reserve(model.encoder.layers.size());
  for (const EncoderLayer& l : model.encoder.layers) {
    const int at = static_cast<int>(layers_.size());
    layers_.push_back({prepared(l.attn.wq, mode, at, "attn.wq"),
                       prepared(l.attn.wk, mode, at, "attn.wk"),
                       prepared(l.attn.wv, mode, at, "attn.wv"),
                       prepared(l.attn.wo, mode, at, "attn.wo"),
                       prepared(l.ff1, mode, at, "ff1"),
                       prepared(l.ff2, mode, at, "ff2")});
  }
  // The classification head stays FP32 (it is a tiny readout; the paper's
  // experiments quantize the transformer body).
  head_ = prepared(model.head_lin, MatmulMode::kFp32, -1, "head");
}

int InferenceModel::embedding_norm_site() const {
  return static_cast<int>(2 * model_->encoder.layers.size());
}

void InferenceModel::norm_rows(const Tensor& x, Tensor& y,
                               const NormSlot& slot, int site) {
  const std::size_t rows = x.dim(0), dim = x.dim(1);
  const auto gamma = slot.gamma().value.flat();
  const auto beta = slot.beta().value.flat();
  if (slot.kind() == NormKind::kLayerNorm) {
    // One backend call for the whole [rows x dim] block.
    nl_->layer_norm_rows(x.flat(), y.flat(), rows, dim, gamma, beta, site);
  } else {
    // NoNorm: element-wise affine; no non-linearity to approximate.
    runtime::parallel_for(0, rows, runtime::grain_for(2 * dim),
                          [&](std::size_t r0, std::size_t r1) {
                            for (std::size_t r = r0; r < r1; ++r) {
                              const auto xin = x.row(r);
                              auto yo = y.row(r);
                              for (std::size_t j = 0; j < dim; ++j)
                                yo[j] = xin[j] * gamma[j] + beta[j];
                            }
                          });
  }
}

void InferenceModel::validate(const BatchInput& in) const {
  const Encoder& enc = model_->encoder;
  // An empty request has no rows for a head to read: a classification head
  // would take row 0 of a 0-row hidden state.
  if (in.batch == 0 || in.seq == 0)
    throw std::invalid_argument(
        "InferenceModel::encode: empty request (batch or seq is 0)");
  // A wrapped batch * seq could match a short token_ids while the heads
  // loop over the full batch.
  if (in.batch > std::numeric_limits<std::size_t>::max() / in.seq)
    throw std::invalid_argument(
        "InferenceModel::encode: batch * seq overflows size_t");
  if (in.token_ids.size() != in.batch * in.seq)
    throw std::invalid_argument("InferenceModel::encode: bad batch shape");

  if (!in.type_ids.empty() && in.type_ids.size() != in.token_ids.size())
    throw std::invalid_argument("InferenceModel::encode: bad type_ids shape");

  // Validate every id before touching the embedding tables: a negative or
  // out-of-vocabulary id would otherwise index out of bounds.
  const std::size_t rows = in.batch * in.seq;
  const int vocab = static_cast<int>(enc.tok_emb.table.value.dim(0));
  const int type_vocab = static_cast<int>(enc.type_emb.table.value.dim(0));
  if (in.seq > enc.pos_emb.table.value.dim(0))
    throw std::out_of_range(
        "InferenceModel::encode: seq exceeds the position-embedding table");
  for (std::size_t r = 0; r < rows; ++r) {
    const int tok = in.token_ids[r];
    if (tok < 0 || tok >= vocab)
      throw std::out_of_range("InferenceModel::encode: token id " +
                              std::to_string(tok) + " at position " +
                              std::to_string(r) + " outside vocab of " +
                              std::to_string(vocab));
    if (!in.type_ids.empty()) {
      const int typ = in.type_ids[r];
      if (typ < 0 || typ >= type_vocab)
        throw std::out_of_range("InferenceModel::encode: type id " +
                                std::to_string(typ) + " at position " +
                                std::to_string(r) + " outside type vocab of " +
                                std::to_string(type_vocab));
    }
  }
}

const Tensor& InferenceModel::encode_into(const BatchInput& in,
                                          Workspace& ws) {
  const Encoder& enc = model_->encoder;
  const ModelConfig& cfg = enc.config();
  validate(in);

  const std::size_t rows = in.batch * in.seq;
  const std::size_t hidden = cfg.hidden;

  // Embeddings (kept FP32; they are table reads, not matmuls).
  ws.prepare(ws.x, {rows, hidden});
  runtime::parallel_for(
      0, rows, runtime::grain_for(3 * hidden),
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
          const int tok = in.token_ids[r];
          const int typ = in.type_ids.empty() ? 0 : in.type_ids[r];
          const int pos = static_cast<int>(r % in.seq);
          const auto te =
              enc.tok_emb.table.value.row(static_cast<std::size_t>(tok));
          const auto pe =
              enc.pos_emb.table.value.row(static_cast<std::size_t>(pos));
          const auto ye =
              enc.type_emb.table.value.row(static_cast<std::size_t>(typ));
          auto dst = ws.x.row(r);
          for (std::size_t j = 0; j < hidden; ++j) dst[j] = te[j] + pe[j] + ye[j];
        }
      });

  ws.prepare(ws.xn, {rows, hidden});
  norm_rows(ws.x, ws.xn, enc.emb_norm, embedding_norm_site());
  std::swap(ws.x, ws.xn);  // bytes move, values don't: x now holds the norm

  const std::size_t heads = cfg.heads;
  const std::size_t hd = hidden / heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

  // One [batch*heads*seq, seq] score slot reused by every layer.
  const std::size_t batch_heads = in.batch * heads;
  const std::size_t score_rows = batch_heads * in.seq;
  ws.prepare(ws.scores, {score_rows, in.seq});

  for (std::size_t li = 0; li < enc.layers.size(); ++li) {
    const LayerWeights& lw = layers_[li];
    const int site = static_cast<int>(li);
    Tensor& x = ws.x;

    Tensor& q = ws.prepare(ws.q, {rows, hidden});
    lw.wq.apply_into(x, mode_, ws, q);
    Tensor& k = ws.prepare(ws.k, {rows, hidden});
    lw.wk.apply_into(x, mode_, ws, k);
    Tensor& v = ws.prepare(ws.v, {rows, hidden});
    lw.wv.apply_into(x, mode_, ws, v);
    // Attention-score matmuls run at the same precision as the projections.
    project_rows(q, mode_);
    project_rows(k, mode_);
    project_rows(v, mode_);

    // Attention as per-(batch, head) GEMM calls:
    //   scores_bh  = Q_bh (seq x hd, lda hidden) * K_bh^T (K_bh read
    //                transposed in place, ldb hidden)
    //   context_bh = P_bh (seq x seq) * V_bh (seq x hd, ldb hidden)
    // Softmax runs over ALL score rows of the layer in one backend call in
    // between. Every (batch, head) pair writes disjoint outputs, so both
    // passes shard over the flattened pair index.
    Tensor& scores = ws.scores;
    Tensor& context = ws.prepare(ws.context, {rows, hidden});
    runtime::parallel_for(
        0, batch_heads, runtime::grain_for(in.seq * in.seq * hd),
        [&](std::size_t p0, std::size_t p1) {
          for (std::size_t bh = p0; bh < p1; ++bh) {
            const std::size_t off =
                (bh / heads) * in.seq * hidden + (bh % heads) * hd;
            float* sc = scores.data() + bh * in.seq * in.seq;
            gemm(in.seq, in.seq, hd, q.data() + off, hidden, k.data() + off,
                 hidden, sc, in.seq, {.trans_b = true});
            for (std::size_t e = 0; e < in.seq * in.seq; ++e) sc[e] *= scale;
          }
        });
    if (mode_ == MatmulMode::kFp16) ibert::fake_quantize_fp16(scores.flat());
    nl_->softmax_rows(scores.flat(), score_rows, in.seq, site);

    runtime::parallel_for(
        0, batch_heads, runtime::grain_for(in.seq * in.seq * hd),
        [&](std::size_t p0, std::size_t p1) {
          for (std::size_t bh = p0; bh < p1; ++bh) {
            const std::size_t off =
                (bh / heads) * in.seq * hidden + (bh % heads) * hd;
            gemm(in.seq, hd, in.seq, scores.data() + bh * in.seq * in.seq,
                 in.seq, v.data() + off, hidden, context.data() + off,
                 hidden);
          }
        });

    Tensor& attn_out = ws.prepare(ws.attn_out, {rows, hidden});
    lw.wo.apply_into(context, mode_, ws, attn_out);
    add_inplace(attn_out, x);  // residual
    Tensor& x1 = ws.prepare(ws.x1, {rows, hidden});
    norm_rows(attn_out, x1, enc.layers[li].norm1, 2 * site);

    Tensor& hmid = ws.prepare(ws.hmid, {rows, lw.ff1.weight().dim(1)});
    lw.ff1.apply_into(x1, mode_, ws, hmid);
    // Activation over the whole [tokens x d_ff] tensor in one backend call;
    // the row-granular entry point keeps backends with grouped quantization
    // scales (I-BERT) independent of how requests were packed into the batch.
    nl_->activation_rows(hmid.flat(), hmid.dim(0), hmid.dim(1), site);
    Tensor& f = ws.prepare(ws.f, {rows, hidden});
    lw.ff2.apply_into(hmid, mode_, ws, f);
    add_inplace(f, x1);  // residual
    Tensor& x2 = ws.prepare(ws.x2, {rows, hidden});
    norm_rows(f, x2, enc.layers[li].norm2, 2 * site + 1);
    std::swap(ws.x, ws.x2);
  }
  return ws.x;
}

Tensor InferenceModel::encode(const BatchInput& in) {
  Workspace ws;  // pool-less: slots are heap tensors local to this call
  encode_into(in, ws);
  return std::move(ws.x);
}

Tensor InferenceModel::encode(const BatchInput& in, Workspace& ws) {
  const Tensor& hidden = encode_into(in, ws);
  // The result escapes the workspace: give it its own slab so ws.x stays
  // recyclable and the copy returns to the pool with the caller.
  Tensor out = Tensor::pooled({hidden.dim(0), hidden.dim(1)}, ws.pool());
  std::memcpy(out.data(), hidden.data(), hidden.size() * sizeof(float));
  return out;
}

Tensor InferenceModel::logits(const BatchInput& in) {
  Workspace ws;
  return logits(in, ws);
}

Tensor InferenceModel::logits(const BatchInput& in, Workspace& ws) {
  const Tensor& hidden = encode_into(in, ws);
  if (model_->head() == HeadKind::kSpan) {
    Tensor out = Tensor::pooled({hidden.dim(0), head_.weight().dim(1)}, ws.pool());
    head_.apply_into(hidden, MatmulMode::kFp32, ws, out);
    return out;
  }
  Tensor& cls = ws.prepare(ws.cls, {in.batch, model_->config().hidden});
  for (std::size_t b = 0; b < in.batch; ++b) {
    const auto src = hidden.row(b * in.seq);
    auto dst = cls.row(b);
    for (std::size_t j = 0; j < dst.size(); ++j) dst[j] = src[j];
  }
  Tensor out = Tensor::pooled({in.batch, head_.weight().dim(1)}, ws.pool());
  head_.apply_into(cls, MatmulMode::kFp32, ws, out);
  return out;
}

}  // namespace nnlut::transformer

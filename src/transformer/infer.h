// Forward-only inference engine with approximated nonlinearities and
// reduced-precision matrix multiplication. This is the vehicle for the
// paper's accuracy experiments: train a TaskModel in FP32, then run
// inference with
//   - a NonlinearitySet backend (exact / Linear-LUT / NN-LUT / I-BERT), and
//   - a MatmulMode (FP32 / FP16 / INT8-simulated)
// and measure the task metric.
//
// Site numbering (for per-instance calibration): for layer l,
//   activation and softmax sites = l;
//   LayerNorm sites = 2l (post-attention) and 2l+1 (post-FFN);
//   the embedding LayerNorm is site 2*layers.
#pragma once

#include "transformer/backends.h"
#include "transformer/model.h"
#include "transformer/workspace.h"

namespace nnlut::transformer {

enum class MatmulMode {
  kFp32,  // reference
  kFp16,  // weights & every matmul operand/result rounded through binary16
  kInt8,  // weights & matmul operands symmetric-fake-quantized to 8 bits,
          // one scale per weight tensor and per activation row (token), so
          // batching never changes a request's logits (accumulation in FP32
          // stands in for the INT32 accumulator; see DESIGN.md substitution
          // table)
};

class InferenceModel {
 public:
  /// Borrows the trained model and the backend; both must outlive this,
  /// and the model must not be modified while it is borrowed: embeddings,
  /// norm parameters, biases and (in kFp32 mode) the linear weights are read
  /// in place, so a process holds one copy of the weights however many
  /// InferenceModels share the model. kFp16 and kInt8 own one projected copy
  /// of each encoder linear weight.
  InferenceModel(const TaskModel& model, NonlinearitySet& nl,
                 MatmulMode mode = MatmulMode::kFp32);

  /// Hidden states [batch*seq, hidden] after the encoder stack.
  Tensor encode(const BatchInput& in);

  /// Task logits with the same shapes as TaskModel::forward.
  Tensor logits(const BatchInput& in);

  /// Workspace-backed variants: every intermediate lives in `ws`, recycled
  /// across calls (zero allocations once the workspace is warm for the
  /// request's seq bucket), and the returned logits draw their storage from
  /// ws.pool() so the slab returns to the pool when the caller destroys the
  /// result. Bit-identical to the plain overloads — the workspace moves
  /// bytes, never values. `ws` is single-caller state: use one workspace
  /// per serving thread (each Engine slot's scheduler owns one).
  Tensor logits(const BatchInput& in, Workspace& ws);
  Tensor encode(const BatchInput& in, Workspace& ws);

  /// All input checks encode() performs, without running the model: throws
  /// std::invalid_argument on an empty request (batch or seq 0) and on
  /// shape mismatches (a batch * seq that overflows size_t included), and
  /// std::out_of_range on token/type ids outside the embedding tables or
  /// seq beyond the position table. The serving layer
  /// pre-validates each request with this so a malformed submission
  /// rejects alone instead of poisoning its batch; it is const and touches
  /// only this model's tables, so every Engine ModelSlot validates
  /// concurrently on client threads against its own InferenceModel with no
  /// shared state.
  void validate(const BatchInput& in) const;

  /// Site id of the embedding LayerNorm.
  int embedding_norm_site() const;

 private:
  struct PreparedLinear {
    /// The model's layer: its bias, and its weight in kFp32, are read in
    /// place.
    const nn::Linear* lin = nullptr;
    /// kFp16/kInt8: the weight rounded to the matmul precision. Empty in
    /// kFp32, where rounding is a no-op.
    Tensor projected;

    const Tensor& weight() const {
      return projected.empty() ? lin->w.value : projected;
    }
    /// y = project(x) * weight() + bias at `mode`. `y` must be preshaped to
    /// [x.rows, weight().cols] (matmul's contract; it is overwritten). The
    /// operand projection (a precision-rounded copy of x) stages in ws.proj;
    /// in kFp32 mode x feeds the matmul directly and ws.proj is untouched,
    /// so apply carries no allocations of its own.
    void apply_into(const Tensor& x, MatmulMode mode, Workspace& ws,
                    Tensor& y) const;
  };

  /// Encoder stack with every intermediate in `ws`; the result is ws.x.
  const Tensor& encode_into(const BatchInput& in, Workspace& ws);

  void norm_rows(const Tensor& x, Tensor& y, const NormSlot& slot, int site);

  const TaskModel* model_;
  NonlinearitySet* nl_;
  MatmulMode mode_;

  // The encoder's linear layers (layout mirrors the encoder), each with its
  // projected weight when the mode rounds weights.
  struct LayerWeights {
    PreparedLinear wq, wk, wv, wo, ff1, ff2;
  };
  std::vector<LayerWeights> layers_;
  PreparedLinear head_;
};

}  // namespace nnlut::transformer

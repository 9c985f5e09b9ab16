// Per-call scratch for the inference encoder, recycled across requests.
//
// InferenceModel::encode used to allocate every intermediate — embeddings,
// per-layer activations, attention scores/context, FFN scratch — fresh on
// each call, which made the allocator the bottleneck of a warmed serving
// slot. A Workspace hoists all of those intermediates into named slots that
// persist across calls: prepare() reshapes a slot in place when its storage
// already fits (no allocation — the steady-state path) and otherwise
// (re)acquires from the attached BufferPool, whose power-of-two size
// classes mean every request of a seq bucket lands on the same slabs the
// previous one just returned.
//
// Threading: a Workspace is single-caller state, exactly like the model's
// forward pass — each Engine ModelSlot owns one and only its scheduler
// thread touches it. The pool may be nullptr (pools-off): slots then live
// on the heap but are still recycled via vector-capacity reuse.
//
// Determinism: slots are zero-filled on prepare() and every kernel writes
// the same values in the same order regardless of where the bytes live, so
// logits are bit-identical with any pool configuration, including none.
#pragma once

#include <cstddef>
#include <initializer_list>

#include "runtime/buffer_pool.h"
#include "tensor/tensor.h"

namespace nnlut::transformer {

class Workspace {
 public:
  /// `pool`, when given, must outlive the workspace's use (the Engine's
  /// ModelSlot owns both, pool first).
  explicit Workspace(runtime::BufferPool* pool = nullptr) : pool_(pool) {}

  runtime::BufferPool* pool() const { return pool_; }

  /// Shape slot `t` to `shape`, zero-filled: in place when the current
  /// storage fits, from the pool (or heap when pool-less) when it must
  /// grow. Returns `t` for call-site brevity.
  Tensor& prepare(Tensor& t, std::initializer_list<std::size_t> shape) {
    if (pool_ != nullptr && !t.pool_backed() &&
        t.capacity() < shape_numel({shape.begin(), shape.size()})) {
      t = Tensor::pooled(shape, pool_);
    } else {
      t.reset(shape);
    }
    return t;
  }

  // Slots, named for the encoder intermediate each carries (infer.cpp).
  Tensor x;         // running hidden states [rows, hidden]
  Tensor xn;        // norm_rows output, swapped with x
  Tensor q, k, v;   // attention projections [rows, hidden]
  Tensor scores;    // attention scores [batch*heads*seq, seq]
  Tensor context;   // attention context [rows, hidden]
  Tensor attn_out;  // W_O projection + residual [rows, hidden]
  Tensor x1, x2;    // post-norm states [rows, hidden]
  Tensor hmid;      // FFN inner activation [rows, ffn]
  Tensor f;         // FFN output + residual [rows, hidden]
  Tensor proj;      // matmul-operand projection scratch (fp16/int8 modes)
  Tensor cls;       // [CLS] row gather for classification heads

 private:
  runtime::BufferPool* pool_;
};

}  // namespace nnlut::transformer

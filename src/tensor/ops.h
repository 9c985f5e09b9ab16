// Dense math on Tensors: matmul variants (the hot path of transformer
// training and inference), bias/elementwise helpers and row-wise reductions.
// Every matmul variant is one tiled, ISA-dispatched gemm (tensor/gemm.h)
// per block of output rows, sharded across the runtime thread pool
// (runtime/thread_pool.h); gemm fixes each element's accumulation order, so
// results are bit-identical for any pool size and SIMD tier. No kernel
// skips zero operands: 0 * NaN and 0 * inf reach the output as NaN.
#pragma once

#include <functional>
#include <span>

#include "tensor/tensor.h"

namespace nnlut {

/// C = A(m,k) * B(k,n). C must be preshaped to (m,n); it is overwritten.
void matmul(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A(m,k) * B(n,k)^T  -> (m,n).
void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c);

/// C += A(k,m)^T * B(k,n). Used for weight-gradient accumulation.
void matmul_at_accumulate(const Tensor& a, const Tensor& b, Tensor& c);

/// y += x (same shape).
void add_inplace(Tensor& y, const Tensor& x);

/// Adds bias vector b (len n) to every row of 2-D tensor y (m,n).
void add_row_bias(Tensor& y, std::span<const float> b);

/// y = alpha * y.
void scale_inplace(Tensor& y, float alpha);

/// Column sums of 2-D tensor x (m,n), accumulated into out (len n).
void col_sum_accumulate(const Tensor& x, std::span<float> out);

/// Apply f to every element in place.
void apply(Tensor& t, const std::function<float(float)>& f);

/// Max |x| over the whole tensor (0 for empty).
float abs_max(const Tensor& t);

}  // namespace nnlut

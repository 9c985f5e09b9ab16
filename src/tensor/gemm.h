// Strided single-precision GEMM, the kernel under every matrix product of
// the repo: nnlut::matmul / matmul_bt / matmul_at_accumulate (inference
// projections and the training backward pass), the attention score and
// context products of the inference encoder and the training attention of
// nn::MultiHeadAttention.
//
// gemm() runs on the calling thread; callers shard it (the tensor ops over
// output row blocks, attention over (batch, head) pairs). The body is the
// register-tiled template in tensor/gemm_kernel.h, instantiated once per
// ISA tier and selected through simd::active_simd_tier(), so
// RuntimeConfig::simd and NNLUT_SIMD_TIER pin it like the LUT kernels.
// Every tier computes each output element in the same order (see the
// determinism rule in gemm_kernel.h): results are bit-identical across
// tiers, thread counts, row partitions and operand layouts.
#pragma once

#include <cstddef>

namespace nnlut {

/// Operand layouts and the C update of one gemm call.
struct GemmMode {
  bool trans_a = false;     // a holds A^T: k x m, leading dimension lda
  bool trans_b = false;     // b holds B^T: n x k, leading dimension ldb
  bool accumulate = false;  // C += A * B: each element's sum starts from C
};

/// C(m,n) = A(m,k) * B(k,n), or C += A * B under mode.accumulate. Operands
/// are row-major with leading dimensions lda, ldb, ldc (>= their row
/// widths), so any of them can be a column slice of a wider matrix;
/// mode.trans_a / trans_b read A / B from its stored transpose. Without
/// accumulate every C element is overwritten and k == 0 zero-fills C; with
/// it k == 0 leaves C untouched.
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, const float* b, std::size_t ldb, float* c,
          std::size_t ldc, GemmMode mode = {});

}  // namespace nnlut

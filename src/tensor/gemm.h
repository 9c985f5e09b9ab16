// Strided single-precision GEMM, the kernel under nnlut::matmul and the
// attention score/context products of the inference encoder.
//
// gemm() runs on the calling thread; callers shard it (matmul over output
// row blocks, attention over (batch, head) pairs). The body is the
// register-tiled template in tensor/gemm_kernel.h, instantiated once per
// ISA tier and selected through simd::active_simd_tier(), so
// RuntimeConfig::simd and NNLUT_SIMD_TIER pin it like the LUT kernels.
// Every tier computes each output element in the same order (see the
// determinism rule in gemm_kernel.h): results are bit-identical across
// tiers, thread counts and row partitions.
#pragma once

#include <cstddef>

namespace nnlut {

/// C(m,n) = A(m,k) * B(k,n). All three are row-major with leading
/// dimensions lda, ldb, ldc (>= their widths), so any of them can be a
/// column slice of a wider matrix. Every C element is overwritten; k == 0
/// zero-fills C.
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, const float* b, std::size_t ldb, float* c,
          std::size_t ldc);

}  // namespace nnlut

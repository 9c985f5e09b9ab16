// AVX2 tier of nnlut::gemm: the shared tiled kernel (tensor/gemm_kernel.h)
// compiled with -mavx2, 8 floats per ymm register. The 6x16 tile keeps
// twelve ymm accumulators of the sixteen. No -mfma: the kernel multiplies
// then adds, as every tier must for bit-identical results.
//
// This TU is compiled with -mavx2 only when the toolchain supports it; the
// dispatch in gemm.cpp never calls into it unless CPUID reports AVX2.
#include <cstddef>

#include "tensor/gemm_kernel.h"

#ifndef __AVX2__
#error "gemm_avx2.cpp must be compiled with -mavx2"
#endif

namespace nnlut {

void gemm_avx2(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, const float* b, std::size_t ldb, float* c,
               std::size_t ldc, GemmMode mode) {
  gemm_detail::gemm_tiled<6, 16>(m, n, k, a, lda, b, ldb, c, ldc, mode);
}

}  // namespace nnlut

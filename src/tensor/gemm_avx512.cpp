// AVX-512 tier of nnlut::gemm: the shared tiled kernel
// (tensor/gemm_kernel.h) compiled with -mavx512f, 16 floats per zmm
// register. The 8x32 tile keeps sixteen zmm accumulators of the 32, which
// the narrower tiers' 16-register files could not hold.
//
// This TU is compiled with -mavx512f only when the toolchain supports it;
// the dispatch in gemm.cpp never calls into it unless CPUID reports
// AVX-512F.
#include <cstddef>

#include "tensor/gemm_kernel.h"

#ifndef __AVX512F__
#error "gemm_avx512.cpp must be compiled with -mavx512f"
#endif

namespace nnlut {

void gemm_avx512(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 std::size_t lda, const float* b, std::size_t ldb, float* c,
                 std::size_t ldc, GemmMode mode) {
  gemm_detail::gemm_tiled<8, 32>(m, n, k, a, lda, b, ldb, c, ldc, mode);
}

}  // namespace nnlut

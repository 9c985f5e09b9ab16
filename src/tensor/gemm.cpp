// Tier dispatch for nnlut::gemm, plus the portable baseline instantiation
// of the tiled kernel. This TU builds without ISA flags, so its tile runs
// on any x86-64 CPU (SSE2) and on non-x86 targets.
#include "tensor/gemm.h"

#include "core/lut_kernel_simd.h"
#include "tensor/gemm_kernel.h"

namespace nnlut {

// Per-tier entry points, each defined in its own -m flagged TU.
#ifdef NNLUT_HAVE_AVX2
void gemm_avx2(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, const float* b, std::size_t ldb, float* c,
               std::size_t ldc, GemmMode mode);
#endif
#ifdef NNLUT_HAVE_AVX512
void gemm_avx512(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 std::size_t lda, const float* b, std::size_t ldb, float* c,
                 std::size_t ldc, GemmMode mode);
#endif

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t lda, const float* b, std::size_t ldb, float* c,
          std::size_t ldc, GemmMode mode) {
  switch (simd::active_simd_tier()) {
#ifdef NNLUT_HAVE_AVX512
    case simd::SimdTier::kAvx512:
      return gemm_avx512(m, n, k, a, lda, b, ldb, c, ldc, mode);
#endif
#ifdef NNLUT_HAVE_AVX2
    case simd::SimdTier::kAvx2:
      return gemm_avx2(m, n, k, a, lda, b, ldb, c, ldc, mode);
#endif
    default:
      // 3x16: twelve 4-wide accumulators of the sixteen SSE2 registers.
      return gemm_detail::gemm_tiled<3, 16>(m, n, k, a, lda, b, ldb, c, ldc,
                                            mode);
  }
}

}  // namespace nnlut

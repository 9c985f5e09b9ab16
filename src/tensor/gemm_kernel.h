// Register-tiled GEMM body shared by every ISA tier of nnlut::gemm.
//
// One plain-C++ template, no intrinsics: each tier's translation unit
// (gemm.cpp for the portable baseline, gemm_avx2.cpp, gemm_avx512.cpp)
// instantiates it with its own MR x NR accumulator tile under its own -m
// flags, and the compiler maps the NR-wide inner loop onto that ISA's
// vector registers. The tile is sized so the MR*NR accumulators fit the
// register file with room for the B row: 8x32 is 16 of AVX-512's 32 zmm,
// but the same tile would spill on the 16 ymm/xmm of AVX2 and SSE2, which
// get narrower tiles.
//
// The j loop carries `#pragma omp simd` (the TUs build with -fopenmp-simd:
// the pragma only, no OpenMP runtime). Without it GCC fully unrolls the
// short j loop first and then vectorizes the k loop as an in-order
// reduction, which measured 3-20x slower for several tile shapes. The
// pragma changes which loop becomes vector code, never an element's sum.
//
// Everything here has INTERNAL linkage on purpose, for the reason
// core/lut_kernel_simd_detail.h gives: with external linkage the linker
// could keep the -mavx512f copy of an inline function and hand it to the
// baseline TU, which would trap on narrower CPUs. For the same reason the
// copies and fills are plain loops, not std::copy_n / std::fill, whose
// out-of-line instantiations are shared between TUs.
//
// Determinism rule: every output element is computed exactly as the naive
// i-k-j loop computes it. It starts at 0.0f (at its value in C when
// accumulating) and adds A[i][p] * B[p][j] for p = 0, 1, ..., k-1 in
// ascending order, one multiply then one add (the project builds with
// -ffp-contract=off, so no FMA). Tiling only changes which elements are in
// flight together, never the order of one element's sum; k-blocking spills
// a partial sum to C and reloads it, which is exact. The transposed
// layouts only change how the packers gather A and B. Results are
// therefore bit-identical for every tier, tile size, thread count, row
// partition and operand layout.
#pragma once

#include <cstddef>

#include "tensor/gemm.h"

namespace nnlut::gemm_detail {

static inline std::size_t min_size(std::size_t a, std::size_t b) {
  return a < b ? a : b;
}

// Depth of one k block: the packed B panel (kKc x NR floats) stays in L1/L2
// while every row tile of the call streams past it.
inline constexpr std::size_t kKc = 256;

/// One full MR x NR tile of C (leading dimension ldc): starts from zero
/// when `first`, else from the partial sums already in C, then adds
/// ar[i][p] * bp[p*NR + j] for p < kc in ascending order.
template <std::size_t MR, std::size_t NR>
[[gnu::always_inline]] static inline void tile_kernel(
    std::size_t kc, const float* const (&ar)[MR], const float* bp, float* c,
    std::size_t ldc, bool first) {
  float acc[MR][NR];
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t j = 0; j < NR; ++j)
      acc[i][j] = first ? 0.0f : c[i * ldc + j];
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * NR;
    for (std::size_t i = 0; i < MR; ++i) {
      const float av = ar[i][p];
#pragma omp simd
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t j = 0; j < NR; ++j) c[i * ldc + j] = acc[i][j];
}

/// nnlut::gemm on the calling thread (see tensor/gemm.h for the operand
/// layouts and the k == 0 cases).
template <std::size_t MR, std::size_t NR>
static void gemm_tiled(std::size_t m, std::size_t n, std::size_t k,
                       const float* a, std::size_t lda, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc,
                       GemmMode mode) {
  if (k == 0) {
    for (std::size_t i = 0; i < m && !mode.accumulate; ++i)
      for (std::size_t j = 0; j < n; ++j) c[i * ldc + j] = 0.0f;
    return;
  }
  // The B panel of one (column tile, k block), packed contiguous and padded
  // with zeros past the last column; the A panel of one row tile, packed
  // only when A comes transposed; and a scratch tile for C edges. All live
  // on the stack: no heap and no per-thread state.
  alignas(64) float bp[kKc * NR];
  alignas(64) float ap[MR * kKc];
  alignas(64) float edge[MR * NR] = {};
  for (std::size_t j0 = 0; j0 < n; j0 += NR) {
    const std::size_t nr = min_size(NR, n - j0);
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
      const std::size_t kc = min_size(kKc, k - k0);
      const bool first = k0 == 0 && !mode.accumulate;
      if (mode.trans_b) {  // column j of the panel is row j0 + j of B^T
        for (std::size_t j = 0; j < NR; ++j)
          for (std::size_t p = 0; p < kc; ++p)
            bp[p * NR + j] = j < nr ? b[(j0 + j) * ldb + k0 + p] : 0.0f;
      } else {
        for (std::size_t p = 0; p < kc; ++p) {
          const float* src = b + (k0 + p) * ldb + j0;
          float* dst = bp + p * NR;
          for (std::size_t j = 0; j < NR; ++j) dst[j] = j < nr ? src[j] : 0.0f;
        }
      }
      for (std::size_t i0 = 0; i0 < m; i0 += MR) {
        const std::size_t mr = min_size(MR, m - i0);
        if (mode.trans_a) {  // row i of the panel is column i0 + i of A^T
          for (std::size_t p = 0; p < kc; ++p)
            for (std::size_t i = 0; i < mr; ++i)
              ap[i * kKc + p] = a[(k0 + p) * lda + i0 + i];
        }
        // Rows past the edge re-read the tile's last row. Their sums, like
        // those of the padded columns, land in `edge` and are dropped.
        const float* ar[MR];
        for (std::size_t i = 0; i < MR; ++i) {
          const std::size_t r = min_size(i, mr - 1);
          ar[i] = mode.trans_a ? ap + r * kKc : a + (i0 + r) * lda + k0;
        }
        float* ct = c + i0 * ldc + j0;
        if (mr == MR && nr == NR) {
          tile_kernel<MR, NR>(kc, ar, bp, ct, ldc, first);
          continue;
        }
        for (std::size_t i = 0; i < mr && !first; ++i)
          for (std::size_t j = 0; j < nr; ++j)
            edge[i * NR + j] = ct[i * ldc + j];
        tile_kernel<MR, NR>(kc, ar, bp, edge, NR, first);
        for (std::size_t i = 0; i < mr; ++i)
          for (std::size_t j = 0; j < nr; ++j)
            ct[i * ldc + j] = edge[i * NR + j];
      }
    }
  }
}

}  // namespace nnlut::gemm_detail

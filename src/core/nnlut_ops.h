// Drop-in replacements for the transformer's composite non-linear
// operations, built from scalar approximators exactly as the paper deploys
// them (GELU needs no composition: its one LUT on (-5, 5) is a ScalarFn
// applied elementwise):
//   Softmax   -> EXP LUT on (x - max) plus a reciprocal ("Divide") LUT on the
//                normalizer (Sec. 3.3.1, Table 1)
//   LayerNorm -> exact mean/variance (MAC-array work) plus a 1/SQRT LUT with
//                power-of-two input scaling for small variances (Sec. 3.3.2)
//
// Both ops are batch-granular: single-row entry points feed one span
// through the backend's batched primitive, and the rows() entry points
// evaluate a [rows x cols] block with few backend calls per LUT. Softmax
// runs the block in L1-sized row tiles, each with one EXP LUT call over the
// tile's shifted logits and one Divide LUT call over its row normalizers;
// LayerNorm makes one 1/SQRT LUT call over all the block's row variances.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>

#include "core/scalar_fn.h"
#include "numerics/math.h"

namespace nnlut {

/// Logits per row tile of SoftmaxApprox::rows (16 KiB): small enough that
/// a tile stays in L1 across its five passes.
inline constexpr std::size_t kSoftmaxTileFloats = 4096;

/// Rows per softmax tile at `ncols` logits a row: kSoftmaxTileFloats / ncols
/// rounded down to a multiple of 8, at least 8, so the 8-row kernels stay
/// full.
constexpr std::size_t softmax_tile_rows(std::size_t ncols) {
  return std::max<std::size_t>(8, kSoftmaxTileFloats / ncols / 8 * 8);
}

/// Softmax replacement: y_i = explut(x_i - max) * reciplut(sum_j explut(...)).
///
/// Inputs to the EXP LUT are clipped to kExpRange, its Table-1 training
/// range. The paper's hardware assumes inputs pre-scaled to the unit's
/// covered range (Sec. 5.1); exp(-256) underflows FP32 anyway, so the clip
/// changes nothing mathematically but keeps linear extrapolation of the
/// leftmost segment from injecting garbage for extreme logits.
class SoftmaxApprox {
 public:
  SoftmaxApprox(const ScalarFn& exp_fn, const ScalarFn& recip_fn)
      : exp_fn_(&exp_fn), recip_fn_(&recip_fn) {}

  /// One row, in place.
  void operator()(std::span<float> row) const;

  /// `nrows` contiguous rows of length `ncols`, in place. Row blocks are
  /// sharded across the runtime thread pool (rows are independent, so the
  /// result is bit-identical for any pool size). Each block walks its rows
  /// in tiles of softmax_tile_rows(ncols) rows, so a tile stays in L1
  /// through all five passes: max, shift and clamp; one EXP LUT call over
  /// the tile's shifted logits; row sums; one Divide LUT call over the
  /// tile's normalizers; scale. Every pass is per element or per row, so
  /// the tile size changes no bit. The passes around the two LUT calls run
  /// on the active SIMD tier (core/nnlut_row_kernel.h):
  /// the baseline interleaves 8 row reductions, the AVX-512 tier takes each
  /// row max 16 lanes wide and sums 8 rows per vector. Every row is still
  /// reduced in ascending column order with operator()'s expressions, so
  /// every row equals operator() on it, on every tier.
  void rows(std::span<float> data, std::size_t nrows, std::size_t ncols) const;

 private:
  void rows_block(float* data, std::size_t nrows, std::size_t ncols) const;

  const ScalarFn* exp_fn_;
  const ScalarFn* recip_fn_;
};

/// Power-of-two input scale S = 2^10 of the LayerNorm 1/SQRT LUT (Sec.
/// 3.3.2), shared by LayerNormApprox and nn::LutLayerNorm.
inline constexpr float kLayerNormInputScale = 1024.0f;
/// Variance epsilon of every LayerNorm replacement: 1/sqrt(var + eps).
inline constexpr float kLayerNormEps = 1e-5f;

/// LayerNorm replacement. Mean/variance stay exact (they are dot products the
/// MAC array computes); only 1/sqrt(var + eps) goes through the LUT.
///
/// Input scaling (Sec. 3.3.2): the LUT is trained on (0.1, 1024). When the
/// variance v < 1, evaluate lut(v * S) * sqrt(S) with S = 2^10 so the LUT
/// only ever sees its well-trained monotonous range; S power-of-two makes
/// the scaling a bit-shift in hardware.
class LayerNormApprox {
 public:
  struct Options {
    bool input_scaling = true;  // S = kLayerNormInputScale when v < 1
    // Disable when the rsqrt ScalarFn is stateful (e.g. a CapturingFn whose
    // sink must see rows in order from one thread): rows() then runs the
    // whole block on the calling thread instead of sharding it.
    bool allow_parallel = true;
  };

  explicit LayerNormApprox(const ScalarFn& rsqrt_fn)
      : rsqrt_fn_(&rsqrt_fn), opt_() {}
  LayerNormApprox(const ScalarFn& rsqrt_fn, Options opt)
      : rsqrt_fn_(&rsqrt_fn), opt_(opt) {}

  void operator()(std::span<const float> x, std::span<float> y,
                  std::span<const float> gamma,
                  std::span<const float> beta) const;

  /// `nrows` contiguous rows of length `ncols`, sharded row-blockwise across
  /// the runtime thread pool (bit-identical for any pool size): each block
  /// computes exact per-row mean/variance, then ONE 1/SQRT LUT call over all
  /// its row variances, then the affine pass. The moments and the affine
  /// pass run on the active SIMD tier (core/nnlut_row_kernel.h; 8 rows
  /// interleaved at baseline, 8 rows per double vector at AVX-512), each
  /// row's double accumulation in ascending column order, so every row
  /// equals operator() on it, on every tier.
  void rows(std::span<const float> x, std::span<float> y, std::size_t nrows,
            std::size_t ncols, std::span<const float> gamma,
            std::span<const float> beta) const;

  /// The (possibly input-scaled) 1/sqrt evaluation on variance v.
  float inv_std(float v) const;

 private:
  void rows_block(const float* x, float* y, std::size_t nrows,
                  std::size_t ncols, std::span<const float> gamma,
                  std::span<const float> beta) const;

  const ScalarFn* rsqrt_fn_;
  Options opt_;
};

}  // namespace nnlut

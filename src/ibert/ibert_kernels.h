// Reimplementation of I-BERT's integer-only approximations of non-linear
// operations (Kim et al., "I-BERT: Integer-only BERT Quantization",
// ICML 2021 — Algorithms 2-4), used by the paper as the state-of-the-art
// baseline for both accuracy (Table 2b) and hardware cost (Table 4).
//
// Quantized values are (q, S) pairs with real value q * S. All arithmetic on
// q is integer; scales are tracked on the side exactly as in I-BERT.
#pragma once

#include <cstdint>
#include <span>

namespace nnlut::ibert {

/// A quantized scalar: real value = q * s. The integer field is 64 bits wide
/// because intermediate products of the I-BERT pipelines (e.g. x * (erf + 1))
/// legitimately exceed 32 bits before the final requantization step; the
/// hardware datapath sizes those stages accordingly (cf. Fig. 3b).
struct QValue {
  std::int64_t q = 0;
  float s = 1.0f;
  float value() const { return static_cast<float>(q) * s; }
};

/// Integer-only second-order polynomial a*(x+b)^2 + c (I-BERT Alg. 1):
/// q_out = (q + q_b)^2 + q_c with q_b = floor(b/S), q_c = floor(c/(a S^2)),
/// S_out = a * S^2.
QValue i_poly(QValue in, float a, float b, float c);

/// Integer erf via the sign-symmetric clipped polynomial (I-BERT Alg. 2):
/// a = -0.2888, b = -1.769, c = 1; |x| clipped to -b.
QValue i_erf(QValue in);

/// Integer GELU: x/2 * (1 + i_erf(x / sqrt(2))) (I-BERT Alg. 2).
QValue i_gelu(QValue in);

/// Integer exponential for non-positive inputs (I-BERT Alg. 3):
/// x = -z ln2 + p with p in (-ln2, 0]; exp(x) = i_poly(p) >> z.
/// Inputs with q > 0 are clamped to 0 (softmax always feeds x - max <= 0).
/// Scales coarser than ln2 (s > ln2, where floor(ln2/s) = 0) are handled by
/// clamping the quantized ln2 to one grid step instead of dividing by zero.
QValue i_exp(QValue in);

/// Integer square root by Newton iteration (I-BERT Alg. 4):
/// x_{k+1} = floor((x_k + floor(n / x_k)) / 2), run to convergence
/// (at most `max_iter`). Returns floor(sqrt(n)).
std::int64_t i_sqrt(std::int64_t n, int max_iter = 20);

/// Number of Newton iterations i_sqrt needed for n (for latency analysis).
int i_sqrt_iterations(std::int64_t n, int max_iter = 20);

// ---------------------------------------------------------------------------
// Row-level operations used when swapping I-BERT kernels into a transformer.
// Inputs/outputs are float tensors; each function quantizes its input with a
// symmetric per-row scale (I-BERT pre-scales inputs in the same spirit),
// runs the integer pipeline, and dequantizes the result.
//
// Non-finite input contract (matches lut_kernel's int_quantize): NaN entries
// quantize to 0 and contribute nothing to the row scale; ±inf entries also
// skip the row scale and saturate the quantization budget (the grid maximum
// 2^bits - 1 for gelu/layernorm, 2^24 for softmax), i.e. they behave as the
// largest representable magnitude. No input value invokes UB in these
// row-level kernels — the quantizer replaces NaN by 0 and clamps v / S to
// the budget before it truncates through int32, so no out-of-range or
// non-finite value is ever converted to an integer; the row scale floors
// the max magnitude at 2^-6 (so scale-derived integer constants like
// floor(b/S) stay far from int64 limits), and softmax caps the scale at
// ln2/4 (so the integer exp's range reduction stays valid for rows whose
// magnitudes dwarf the grid: they produce a near-one-hot result, as exact
// softmax would, rather than a degenerate all-zero table). The truncated
// value t is then rounded half away from zero, exactly as std::round
// would, by adding (d >= 1/2) - (d <= -1/2) for the exact remainder
// d = v / S - t.
//
// The *_rows block entry points process `nrows` contiguous rows with per-row
// scales; rows are independent, so row blocks are sharded across the runtime
// thread pool (runtime/thread_pool.h) with scratch buffers hoisted per
// shard. Results are bit-identical for any pool size.
//
// The row bodies (ibert/ibert_row_kernel.h) are plain C++ instantiated per
// SIMD tier and dispatched on simd::active_simd_tier(), so NNLUT_SIMD_TIER
// and RuntimeConfig::simd pin them: the avx512 tier runs an AVX-512F+DQ
// build (eight int64 lanes per register), scalar and avx2 the portable
// baseline. Every tier produces the bits of the scalar reference
// functions above.
// ---------------------------------------------------------------------------

/// Integer softmax (I-BERT Alg. 3): subtract integer max, i_exp each entry,
/// normalize by the integer sum with a 2^bits fixed-point reciprocal.
void softmax_row(std::span<float> row, int input_bits = 15, int out_bits = 30);

/// Integer softmax over `nrows` contiguous rows of length `ncols`.
void softmax_rows(std::span<float> data, std::size_t nrows, std::size_t ncols,
                  int input_bits = 15, int out_bits = 30);

/// Integer GELU over `nrows` contiguous rows of length `ncols` with one
/// scale PER ROW. Each row's result depends only on that row's content, so
/// packed multi-request batches match solo execution bit-for-bit (the
/// serving batcher's contract).
void gelu_rows(std::span<float> data, std::size_t nrows, std::size_t ncols,
               int input_bits = 15);

/// Integer LayerNorm: integer mean/variance, i_sqrt for the standard
/// deviation, fixed-point reciprocal multiply; gamma/beta folded in after
/// dequantization (they are channelwise affine constants).
void layernorm_row(std::span<const float> x, std::span<float> y,
                   std::span<const float> gamma, std::span<const float> beta,
                   int input_bits = 15);

/// Integer LayerNorm over `nrows` contiguous rows of length `ncols`.
void layernorm_rows(std::span<const float> x, std::span<float> y,
                    std::size_t nrows, std::size_t ncols,
                    std::span<const float> gamma, std::span<const float> beta,
                    int input_bits = 15);

}  // namespace nnlut::ibert

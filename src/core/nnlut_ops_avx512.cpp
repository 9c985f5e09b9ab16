// AVX-512 tier of the LUT Softmax/LayerNorm row passes
// (core/nnlut_row_kernel.h): the same results bit for bit, with
//   * the row max as a 16-lane max fused with the shift-and-clamp pass;
//   * row sums and LayerNorm's double mean/variance reduced 8 rows per
//     vector, the columns brought into lanes by in-register 8x8 transposes;
//   * the scale and affine passes 16 columns per register.
//
// Exactness of the max. vmaxps(m, v) keeps m unless v > m, so without NaNs
// the 16 lanes and their horizontal reduction yield the row's largest
// value, which is unique, and equal to the std::max chain's, except for the
// sign of a zero: -0 and +0 compare equal, and the chain keeps whichever
// comes first. A NaN is skipped by the chain unless it comes first, but
// poisons a lane here. So a row that holds a NaN, or whose max is zero,
// reruns the one-row chain (detail::row_max); every other row's max, and
// therefore its shifted logits, are identical.
//
// Exactness of the sums and moments. After the transpose lane g of column
// vector k holds row g's element k, and each lane adds its columns in
// ascending order from +0 with the one-row expression (float adds for the
// softmax normalizer; float -> double, subtract, multiply, add for the
// moments). Columns past the last full 8-wide tile finish in scalar per
// lane, and rows past the last full 8-row group run the one-row loops.
//
// The clamp min(max(t, lo), hi) is std::clamp's expression: vmaxps(lo, t)
// is (t < lo) ? lo : t and vminps(hi, a) is (hi < a) ? hi : a, NaN
// included.
//
// Built with -mavx512f -mavx512dq only when the toolchain supports both;
// the dispatch in nnlut_ops.cpp routes here only when CPUID reports them
// (simd::detected_simd_tier).
#include <immintrin.h>

#include <cstddef>

#include "core/nnlut_row_kernel.h"

#if !defined(__AVX512F__) || !defined(__AVX512DQ__)
#error "nnlut_ops_avx512.cpp must be compiled with -mavx512f -mavx512dq"
#endif

namespace nnlut::detail {
namespace {

constexpr std::size_t kLanes = 16;  // floats per zmm register
constexpr std::size_t kTile = 8;    // rows per transposed tile, columns too
static_assert(kTile == kInterleave, "one vector lane per interleaved row");

/// static_cast<float> on 8 doubles. The zero-masked form with every lane
/// selected: the unmasked _mm512_cvtpd_ps builds its pass-through operand
/// from a self-assigned undefined value, which GCC 12 flags as
/// uninitialized (see CMakeLists.txt).
inline __m256 to_float(__m512d v) {
  return _mm512_maskz_cvtpd_ps(static_cast<__mmask8>(0xFF), v);
}

/// Calls step(j, lanes) along a row of n floats: full 16-lane steps, then
/// one step over the last n % 16 columns under a mask. Masked-off lanes
/// touch no memory.
template <typename Step>
void for_each_step(std::size_t n, Step&& step) {
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    step(j, static_cast<__mmask16>(0xFFFF));
  if (j < n) step(j, static_cast<__mmask16>((1u << (n - j)) - 1u));
}

/// Columns j .. j+7 of 8 rows `stride` floats apart, as 8 vectors: lane g
/// of c[k] is x[g * stride + k]. The first stage pairs row g's and row
/// g+4's 128-bit halves at load time, so only the unpack and shuffle
/// stages use the shuffle port.
inline void transpose8(const float* x, std::size_t stride, __m256 c[kTile]) {
  __m256 r[kTile];
  for (std::size_t k = 0; k < 4; ++k) {
    const float* lo = x + k * stride;
    const float* hi = x + (k + 4) * stride;
    r[k] = _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(lo)),
                                _mm_loadu_ps(hi), 1);
    r[k + 4] = _mm256_insertf128_ps(
        _mm256_castps128_ps256(_mm_loadu_ps(lo + 4)), _mm_loadu_ps(hi + 4), 1);
  }
  for (std::size_t h = 0; h < kTile; h += 4) {
    const __m256 t0 = _mm256_unpacklo_ps(r[h], r[h + 1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[h], r[h + 1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[h + 2], r[h + 3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[h + 2], r[h + 3]);
    c[h] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    c[h + 1] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    c[h + 2] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    c[h + 3] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  }
}

void softmax_shift_avx512(float* data, std::size_t nrows, std::size_t ncols,
                          float lo, float hi) {
  const __m512 neg_inf = _mm512_set1_ps(-__builtin_inff());
  const __m512 vlo = _mm512_set1_ps(lo);
  const __m512 vhi = _mm512_set1_ps(hi);
  for (std::size_t r = 0; r < nrows; ++r) {
    float* row = data + r * ncols;
    __m512 m = neg_inf;
    __mmask16 nan = 0;
    // Masked-off lanes read -inf, which leaves the max unchanged.
    auto max_step = [&](std::size_t j, __mmask16 lanes) {
      const __m512 v = _mm512_mask_loadu_ps(neg_inf, lanes, row + j);
      nan |= _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
      m = _mm512_max_ps(m, v);
    };
    for_each_step(ncols, max_step);
    float mx = _mm512_reduce_max_ps(m);
    if (nan != 0 || mx == 0.0f) mx = row_max(row, ncols);
    const __m512 vmx = _mm512_set1_ps(mx);
    auto shift_step = [&](std::size_t j, __mmask16 lanes) {
      const __m512 t =
          _mm512_sub_ps(_mm512_maskz_loadu_ps(lanes, row + j), vmx);
      _mm512_mask_storeu_ps(row + j, lanes,
                            _mm512_min_ps(vhi, _mm512_max_ps(vlo, t)));
    };
    for_each_step(ncols, shift_step);
  }
}

/// Float sums of one 8-row tile of length n, `stride` floats apart:
/// row_sums_group<8>, one row per lane.
void sums_tile(const float* x, std::size_t stride, std::size_t n,
               float* out) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + kTile <= n; j += kTile) {
    __m256 c[kTile];
    transpose8(x + j, stride, c);
    for (std::size_t k = 0; k < kTile; ++k) acc = _mm256_add_ps(acc, c[k]);
  }
  _mm256_storeu_ps(out, acc);
  for (; j < n; ++j)
    for (std::size_t g = 0; g < kTile; ++g) out[g] += x[g * stride + j];
}

void row_sums_avx512(const float* data, std::size_t nrows, std::size_t ncols,
                     float* out) {
  for_row_groups(nrows, [&](std::size_t r0, auto group) {
    constexpr std::size_t G = decltype(group)::value;
    if constexpr (G == kTile)
      sums_tile(data + r0 * ncols, ncols, ncols, out + r0);
    else
      row_sums_group<G>(data + r0 * ncols, ncols, ncols, out + r0);
  });
}

void scale_rows_avx512(float* data, std::size_t nrows, std::size_t ncols,
                       const float* s) {
  for (std::size_t r = 0; r < nrows; ++r) {
    float* row = data + r * ncols;
    const __m512 inv = _mm512_set1_ps(s[r]);
    auto step = [&](std::size_t j, __mmask16 lanes) {
      _mm512_mask_storeu_ps(
          row + j, lanes,
          _mm512_mul_ps(_mm512_maskz_loadu_ps(lanes, row + j), inv));
    };
    for_each_step(ncols, step);
  }
}

/// Exact double mean and variance of one 8-row tile of length n, `stride`
/// floats apart: row_moments<8>, one row per double lane.
void moments_tile(const float* x, std::size_t stride, std::size_t n,
                  float* mean_out, float* var_out) {
  const std::size_t body = n - n % kTile;
  const __m512d nd = _mm512_set1_pd(static_cast<double>(n));
  __m512d mean = _mm512_setzero_pd();
  for (std::size_t j = 0; j < body; j += kTile) {
    __m256 c[kTile];
    transpose8(x + j, stride, c);
    for (std::size_t k = 0; k < kTile; ++k)
      mean = _mm512_add_pd(mean, _mm512_cvtps_pd(c[k]));
  }
  double md[kTile];
  _mm512_storeu_pd(md, mean);
  for (std::size_t j = body; j < n; ++j)
    for (std::size_t g = 0; g < kTile; ++g) md[g] += x[g * stride + j];
  mean = _mm512_div_pd(_mm512_loadu_pd(md), nd);

  __m512d var = _mm512_setzero_pd();
  for (std::size_t j = 0; j < body; j += kTile) {
    __m256 c[kTile];
    transpose8(x + j, stride, c);
    for (std::size_t k = 0; k < kTile; ++k) {
      const __m512d d = _mm512_sub_pd(_mm512_cvtps_pd(c[k]), mean);
      var = _mm512_add_pd(var, _mm512_mul_pd(d, d));
    }
  }
  double vd[kTile];
  _mm512_storeu_pd(md, mean);
  _mm512_storeu_pd(vd, var);
  for (std::size_t j = body; j < n; ++j)
    for (std::size_t g = 0; g < kTile; ++g) {
      const double d = x[g * stride + j] - md[g];
      vd[g] += d * d;
    }
  var = _mm512_loadu_pd(vd);
  _mm256_storeu_ps(mean_out, to_float(mean));
  _mm256_storeu_ps(var_out, to_float(_mm512_div_pd(var, nd)));
}

void moments_rows_avx512(const float* x, std::size_t nrows, std::size_t ncols,
                         float* mean, float* var) {
  for_row_groups(nrows, [&](std::size_t r0, auto group) {
    constexpr std::size_t G = decltype(group)::value;
    if constexpr (G == kTile)
      moments_tile(x + r0 * ncols, ncols, ncols, mean + r0, var + r0);
    else
      row_moments<G>(x + r0 * ncols, ncols, ncols, mean + r0, var + r0);
  });
}

void affine_rows_avx512(const float* x, float* y, std::size_t nrows,
                        std::size_t ncols, const float* mean, const float* inv,
                        const float* gamma, const float* beta) {
  for (std::size_t r = 0; r < nrows; ++r) {
    const float* xr = x + r * ncols;
    float* yr = y + r * ncols;
    const __m512 vm = _mm512_set1_ps(mean[r]);
    const __m512 vi = _mm512_set1_ps(inv[r]);
    auto step = [&](std::size_t j, __mmask16 lanes) {
      __m512 v = _mm512_mul_ps(
          _mm512_sub_ps(_mm512_maskz_loadu_ps(lanes, xr + j), vm), vi);
      if (gamma != nullptr)
        v = _mm512_mul_ps(v, _mm512_maskz_loadu_ps(lanes, gamma + j));
      if (beta != nullptr)
        v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(lanes, beta + j));
      _mm512_mask_storeu_ps(yr + j, lanes, v);
    };
    for_each_step(ncols, step);
  }
}

constexpr LutRowKernels kAvx512RowKernels{
    &softmax_shift_avx512, &row_sums_avx512, &scale_rows_avx512,
    &moments_rows_avx512, &affine_rows_avx512};

}  // namespace

const LutRowKernels& lut_row_kernels_avx512() { return kAvx512RowKernels; }

}  // namespace nnlut::detail

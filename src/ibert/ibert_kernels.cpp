// The scalar reference API of the I-BERT kernels, plus the row entry
// points: their tier dispatch and the portable baseline instantiation of
// the row bodies (ibert/ibert_row_kernel.h). This TU builds without ISA
// flags, so the baseline runs on any x86-64 CPU (SSE2) and on non-x86
// targets.
#include "ibert/ibert_kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "core/lut_kernel_simd.h"
#include "ibert/ibert_row_kernel.h"
#include "runtime/thread_pool.h"

namespace nnlut::ibert {

using detail::kErfA;
using detail::kErfB;
using detail::kErfC;
using detail::kExpA;
using detail::kExpB;
using detail::kExpC;
using detail::kLn2;
using detail::sat_q;

QValue i_poly(QValue in, float a, float b, float c) {
  const std::int64_t qb = sat_q(std::floor(b / in.s));
  const float s_out = a * in.s * in.s;
  const std::int64_t qc = sat_q(std::floor(c / s_out));
  const std::int64_t base = in.q + qb;
  QValue out;
  out.q = base * base + qc;
  out.s = s_out;
  return out;
}

QValue i_erf(QValue in) {
  const std::int64_t sgn = in.q >= 0 ? 1 : -1;
  const std::int64_t q_abs = std::abs(in.q);
  // Clip |x| at -b = 1.769 where the polynomial reaches erf's plateau.
  const std::int64_t q_clip_max = sat_q(std::floor(-kErfB / in.s));
  QValue clipped;
  clipped.q = std::min(q_abs, q_clip_max);
  clipped.s = in.s;

  QValue l = i_poly(clipped, kErfA, kErfB, kErfC);
  l.q *= sgn;
  return l;
}

QValue i_gelu(QValue in) {
  QValue x_for_erf;
  x_for_erf.q = in.q;
  x_for_erf.s = in.s / detail::kSqrt2;
  const QValue erf = i_erf(x_for_erf);

  const std::int64_t q_one = sat_q(std::floor(1.0f / erf.s));
  QValue out;
  out.q = in.q * (erf.q + q_one);
  out.s = in.s * erf.s / 2.0f;
  return out;
}

QValue i_exp(QValue in) {
  if (in.q > 0) in.q = 0;  // softmax always feeds x - max <= 0

  // When the input scale is coarser than ln2 (s > ln2), floor(ln2 / s) is 0
  // and the range-reduction division below would divide by zero. Clamp to 1:
  // each quantization step then counts as (at least) one halving, which is
  // the closest representable behaviour on such a grid. Normal scales
  // (s <= ln2) are unaffected.
  std::int64_t q_ln2 = sat_q(std::floor(kLn2 / in.s));
  if (q_ln2 < 1) q_ln2 = 1;

  const std::int64_t z = (-in.q) / q_ln2;  // floor for non-negative operands
  QValue p;
  p.q = in.q + z * q_ln2;  // p in (-ln2, 0]
  p.s = in.s;

  QValue l = i_poly(p, kExpA, kExpB, kExpC);
  l.q = l.q >> std::min<std::int64_t>(z, 62);
  return l;
}

std::int64_t i_sqrt(std::int64_t n, int max_iter) {
  if (n <= 0) return 0;
  // Initial guess 2^ceil(bits/2) >= sqrt(n) guarantees monotone descent.
  int bits = 0;
  while ((n >> bits) != 0) ++bits;
  std::int64_t x = std::int64_t{1} << ((bits + 1) / 2);
  for (int i = 0; i < max_iter; ++i) {
    const std::int64_t next = (x + n / x) >> 1;
    if (next >= x) break;  // converged (floor-sqrt reached)
    x = next;
  }
  return x;
}

int i_sqrt_iterations(std::int64_t n, int max_iter) {
  if (n <= 0) return 0;
  int bits = 0;
  while ((n >> bits) != 0) ++bits;
  std::int64_t x = std::int64_t{1} << ((bits + 1) / 2);
  for (int i = 0; i < max_iter; ++i) {
    const std::int64_t next = (x + n / x) >> 1;
    if (next >= x) return i;
    x = next;
  }
  return max_iter;
}

#ifdef NNLUT_HAVE_AVX512
// Defined in ibert_kernels_avx512.cpp (built with -mavx512f -mavx512dq).
const detail::RowKernels& row_kernels_avx512();
#endif

namespace {
/// The row bodies of the active SIMD tier. avx2 lacks 64-bit lane
/// multiplies and int64 conversions, so it runs the baseline
/// instantiation.
const detail::RowKernels& row_kernels() {
  switch (simd::active_simd_tier()) {
#ifdef NNLUT_HAVE_AVX512
    case simd::SimdTier::kAvx512:
      return row_kernels_avx512();
#endif
    default:
      return detail::kRowKernels;
  }
}

// Integer scratch rows, one per thread. Pool workers persist across calls,
// so after the first request of a seq bucket the resize below never
// reallocates — the row kernels go allocation-free at steady state. Each
// thread owns its vector outright (no sharing, TSan-clean).
thread_local std::vector<std::int64_t> t_softmax_scratch;
thread_local std::vector<std::int64_t> t_layernorm_scratch;

/// This thread's scratch row grown to n entries (warm-once, see above).
std::int64_t* scratch(std::vector<std::int64_t>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);  // lint:allow hot-alloc
  return v.data();
}
}  // namespace

void softmax_rows(std::span<float> data, std::size_t nrows, std::size_t ncols,
                  int input_bits, int out_bits) {
  assert(data.size() == nrows * ncols);
  if (nrows == 0 || ncols == 0) return;
  // Per-row scales make rows fully independent: shard row blocks across the
  // pool, each shard on its own thread's scratch row.
  const detail::RowKernels& k = row_kernels();
  runtime::parallel_for(0, nrows, runtime::grain_for(8 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          std::int64_t* qe = scratch(t_softmax_scratch, ncols);
                          for (std::size_t r = r0; r < r1; ++r)
                            k.softmax(data.data() + r * ncols, ncols, qe,
                                      input_bits, out_bits);
                        });
}

void gelu_rows(std::span<float> data, std::size_t nrows, std::size_t ncols,
               int input_bits) {
  if (nrows == 0 || ncols == 0) return;
  assert(data.size() == nrows * ncols);
  const detail::RowKernels& k = row_kernels();
  const float budget = detail::grid_budget(input_bits);
  runtime::parallel_for(0, nrows, runtime::grain_for(4 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          for (std::size_t r = r0; r < r1; ++r) {
                            float* row = data.data() + r * ncols;
                            const float s = k.row_scale(row, ncols, input_bits);
                            k.gelu_map(row, ncols, s, budget,
                                       detail::gelu_consts(s));
                          }
                        });
}

void layernorm_rows(std::span<const float> x, std::span<float> y,
                    std::size_t nrows, std::size_t ncols,
                    std::span<const float> gamma, std::span<const float> beta,
                    int input_bits) {
  assert(x.size() == nrows * ncols && y.size() == nrows * ncols);
  if (nrows == 0 || ncols == 0) return;
  const detail::RowKernels& k = row_kernels();
  const float* g = gamma.empty() ? nullptr : gamma.data();
  const float* b = beta.empty() ? nullptr : beta.data();
  runtime::parallel_for(0, nrows, runtime::grain_for(6 * ncols),
                        [&](std::size_t r0, std::size_t r1) {
                          std::int64_t* q = scratch(t_layernorm_scratch, ncols);
                          for (std::size_t r = r0; r < r1; ++r)
                            k.layernorm(x.data() + r * ncols,
                                        y.data() + r * ncols, ncols, g, b, q,
                                        input_bits);
                        });
}

}  // namespace nnlut::ibert

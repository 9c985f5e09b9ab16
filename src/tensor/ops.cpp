#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "runtime/thread_pool.h"
#include "tensor/gemm.h"

namespace nnlut {

namespace {
void check_2d(const Tensor& t) {
  assert(t.rank() == 2);
  (void)t;
}

// One gemm per block of output rows, sharded across the runtime pool.
// Output rows are independent and gemm keeps each element's k order, so
// results are bit-identical for any pool size.
void sharded_gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
                  std::size_t lda, const float* b, std::size_t ldb, float* c,
                  GemmMode mode) {
  runtime::parallel_for(
      0, m, runtime::grain_for(k * n), [&](std::size_t i0, std::size_t i1) {
        const float* ai = mode.trans_a ? a + i0 : a + i0 * lda;
        gemm(i1 - i0, n, k, ai, lda, b, ldb, c + i0 * n, n, mode);
      });
}
}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  check_2d(a);
  check_2d(b);
  check_2d(c);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  assert(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  sharded_gemm(m, n, k, a.data(), k, b.data(), n, c.data(), {});
}

void matmul_bt(const Tensor& a, const Tensor& b, Tensor& c) {
  check_2d(a);
  check_2d(b);
  check_2d(c);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  assert(b.dim(1) == k && c.dim(0) == m && c.dim(1) == n);
  sharded_gemm(m, n, k, a.data(), k, b.data(), k, c.data(),
               {.trans_b = true});
}

void matmul_at_accumulate(const Tensor& a, const Tensor& b, Tensor& c) {
  check_2d(a);
  check_2d(b);
  check_2d(c);
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  assert(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  sharded_gemm(m, n, k, a.data(), m, b.data(), n, c.data(),
               {.trans_a = true, .accumulate = true});
}

void add_inplace(Tensor& y, const Tensor& x) {
  assert(y.size() == x.size());
  float* py = y.data();
  const float* px = x.data();
  for (std::size_t i = 0; i < y.size(); ++i) py[i] += px[i];
}

void add_row_bias(Tensor& y, std::span<const float> b) {
  check_2d(y);
  assert(y.dim(1) == b.size());
  const std::size_t m = y.dim(0), n = y.dim(1);
  float* p = y.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) p[i * n + j] += b[j];
}

void scale_inplace(Tensor& y, float alpha) {
  for (float& v : y.flat()) v *= alpha;
}

void col_sum_accumulate(const Tensor& x, std::span<float> out) {
  check_2d(x);
  assert(x.dim(1) == out.size());
  const std::size_t m = x.dim(0), n = x.dim(1);
  const float* p = x.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out[j] += p[i * n + j];
}

void apply(Tensor& t, const std::function<float(float)>& f) {
  for (float& v : t.flat()) v = f(v);
}

float abs_max(const Tensor& t) {
  float m = 0.0f;
  for (float v : t.flat()) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace nnlut

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "core/lut_kernel_simd.h"
#include "numerics/rng.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace nnlut {
namespace {

Tensor random_tensor(std::initializer_list<std::size_t> shape, Rng& rng) {
  Tensor t(shape);
  for (float& v : t.flat()) v = rng.uniform(-1.0f, 1.0f);
  return t;
}

// Naive reference matmul for cross-checking the optimized kernels.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
      c.at(i, j) = acc;
    }
  return c;
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  for (float v : t.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillAndAccess) {
  Tensor t({2, 2});
  t.at(0, 1) = 5.0f;
  EXPECT_EQ(t.at(0, 1), 5.0f);
  EXPECT_EQ(t[1], 5.0f);  // row-major layout
}

TEST(Tensor, RowView) {
  Tensor t({2, 3});
  t.at(1, 0) = 7.0f;
  auto r = t.row(1);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 7.0f);
  r[2] = 9.0f;
  EXPECT_EQ(t.at(1, 2), 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  for (std::size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(r[i], static_cast<float>(i));
}

TEST(Tensor, ThreeDAccessor) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 42.0f;
  EXPECT_EQ(t[(1 * 3 + 2) * 4 + 3], 42.0f);
}

TEST(Tensor, ShapeString) {
  Tensor t({4, 5});
  EXPECT_EQ(t.shape_string(), "[4, 5]");
}

TEST(Ops, MatmulMatchesNaive) {
  Rng rng(3);
  const Tensor a = random_tensor({7, 5}, rng);
  const Tensor b = random_tensor({5, 9}, rng);
  Tensor c({7, 9});
  matmul(a, b, c);
  const Tensor expect = ref_matmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], expect[i], 1e-5f);
}

TEST(Ops, MatmulBtMatchesNaive) {
  Rng rng(4);
  const Tensor a = random_tensor({6, 5}, rng);
  const Tensor bt = random_tensor({8, 5}, rng);  // b = bt^T : (5, 8)
  Tensor c({6, 8});
  matmul_bt(a, bt, c);

  Tensor b({5, 8});
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 5; ++j) b.at(j, i) = bt.at(i, j);
  const Tensor expect = ref_matmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], expect[i], 1e-5f);
}

TEST(Ops, MatmulAtMatchesNaive) {
  Rng rng(5);
  const Tensor at = random_tensor({5, 6}, rng);  // a = at^T : (6, 5)
  const Tensor b = random_tensor({5, 7}, rng);
  Tensor c({6, 7});  // zeroed, so C += A * B leaves C = A * B
  matmul_at_accumulate(at, b, c);

  Tensor a({6, 5});
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 6; ++j) a.at(j, i) = at.at(i, j);
  const Tensor expect = ref_matmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], expect[i], 1e-5f);
}

TEST(Ops, MatmulAtAccumulates) {
  Rng rng(6);
  const Tensor at = random_tensor({3, 4}, rng);
  const Tensor b = random_tensor({3, 2}, rng);
  Tensor c = Tensor::full({4, 2}, 1.0f);
  Tensor base({4, 2});  // zeroed: A * B alone
  matmul_at_accumulate(at, b, base);
  matmul_at_accumulate(at, b, c);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], base[i] + 1.0f, 1e-5f);
}

TEST(Ops, AddRowBias) {
  Tensor y({2, 3});
  const std::vector<float> bias{1.0f, 2.0f, 3.0f};
  add_row_bias(y, bias);
  EXPECT_EQ(y.at(0, 0), 1.0f);
  EXPECT_EQ(y.at(1, 2), 3.0f);
}

TEST(Ops, ColSumAccumulate) {
  Tensor x({2, 2});
  x.at(0, 0) = 1;
  x.at(0, 1) = 2;
  x.at(1, 0) = 3;
  x.at(1, 1) = 4;
  std::vector<float> out{10.0f, 10.0f};
  col_sum_accumulate(x, out);
  EXPECT_EQ(out[0], 14.0f);
  EXPECT_EQ(out[1], 16.0f);
}

TEST(Ops, AddAndScaleInplace) {
  Tensor y = Tensor::full({2, 2}, 2.0f);
  Tensor x = Tensor::full({2, 2}, 3.0f);
  add_inplace(y, x);
  scale_inplace(y, 0.5f);
  for (float v : y.flat()) EXPECT_EQ(v, 2.5f);
}

TEST(Ops, AbsMax) {
  Tensor t({3});
  t[0] = -7.0f;
  t[1] = 2.0f;
  t[2] = 5.0f;
  EXPECT_EQ(abs_max(t), 7.0f);
}

TEST(Ops, ApplyElementwise) {
  Tensor t = Tensor::full({2, 2}, 4.0f);
  apply(t, [](float v) { return v * v; });
  for (float v : t.flat()) EXPECT_EQ(v, 16.0f);
}

TEST(Ops, MatmulPropagatesNonFiniteBThroughZeroA) {
  // Row 0 of A is all zeros; B holds a NaN and an inf. 0 * NaN and 0 * inf
  // are NaN, so every output column that touches them must be NaN.
  Tensor a({2, 3});
  a.at(1, 0) = 1.0f;
  Tensor b({3, 4});
  b.at(0, 1) = std::numeric_limits<float>::quiet_NaN();
  b.at(2, 2) = std::numeric_limits<float>::infinity();
  Tensor c({2, 4});
  matmul(a, b, c);
  EXPECT_EQ(c.at(0, 0), 0.0f);
  EXPECT_TRUE(std::isnan(c.at(0, 1)));
  EXPECT_TRUE(std::isnan(c.at(0, 2)));
  EXPECT_EQ(c.at(0, 3), 0.0f);
  EXPECT_TRUE(std::isnan(c.at(1, 1)));
  EXPECT_TRUE(std::isnan(c.at(1, 2)));  // 0 * inf in the k = 2 term

  // matmul_at_accumulate had the same skip. A = at^T, whose row 0 (at's
  // column 0) is all zeros.
  Tensor at({3, 2});
  at.at(0, 1) = 1.0f;
  Tensor g({2, 4});
  matmul_at_accumulate(at, b, g);
  EXPECT_EQ(g.at(0, 0), 0.0f);
  EXPECT_TRUE(std::isnan(g.at(0, 1)));
  EXPECT_TRUE(std::isnan(g.at(0, 2)));
}

// The naive oracle of the GEMM determinism rule: each C element starts at
// 0.0f (at its value in C under accumulate) and adds A[i][p] * B[p][j] for
// ascending p, multiply then add. trans_a / trans_b read A / B from their
// stored transposes, as gemm does.
void naive_gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
                std::size_t lda, const float* b, std::size_t ldb, float* c,
                std::size_t ldc, GemmMode mode = {}) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (std::size_t j = 0; j < n && !mode.accumulate; ++j) crow[j] = 0.0f;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = mode.trans_a ? a[p * lda + i] : a[i * lda + p];
      for (std::size_t j = 0; j < n; ++j)
        crow[j] += av * (mode.trans_b ? b[j * ldb + p] : b[p * ldb + j]);
    }
  }
}

std::uint32_t bits(float v) {
  std::uint32_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// Values with exact zeros of both signs mixed in, so zero operands (which
// the kernels must not skip) appear in every tile.
std::vector<float> gemm_operand(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    const int kind = rng.uniform_int(0, 9);
    x = kind == 0 ? 0.0f : kind == 1 ? -0.0f : rng.uniform(-2.0f, 2.0f);
  }
  return v;
}

constexpr std::size_t kGemmDims[] = {0, 1, 5, 17, 31, 33, 64, 100};

/// Pins the GEMM tier (nullopt: the automatic choice, which honours
/// NNLUT_SIMD_TIER) and the pool size for one scope. One RuntimeConfig sets
/// both: it owns the tier override too.
class ScopedTierAndPool {
 public:
  ScopedTierAndPool(std::optional<simd::SimdTier> tier, std::size_t threads) {
    runtime::set_runtime_config({threads, tier});
  }
  ~ScopedTierAndPool() { runtime::set_runtime_config({}); }
};

/// A Tensor-level matmul and the gemm layout it runs.
struct MatmulVariant {
  const char* name;
  void (*fn)(const Tensor&, const Tensor&, Tensor&);
  GemmMode mode;
};
constexpr MatmulVariant kMatmulVariants[] = {
    {"matmul", matmul, {}},
    {"matmul_bt", matmul_bt, {.trans_b = true}},
    {"matmul_at_accumulate", matmul_at_accumulate,
     {.trans_a = true, .accumulate = true}},
};

/// Every matmul variant over every m, k, n in kGemmDims at the given tiers x
/// pool sizes {1, 4}, bitwise against the naive oracle. The overwriting
/// variants start from a NaN canvas (k == 0 must zero it), the accumulating
/// one from a random canvas (k == 0 must leave it as it is).
void expect_matmul_parity(
    const std::vector<std::optional<simd::SimdTier>>& tiers) {
  Rng rng(21);
  for (const MatmulVariant& var : kMatmulVariants)
    for (const std::size_t m : kGemmDims)
      for (const std::size_t k : kGemmDims)
        for (const std::size_t n : kGemmDims) {
          const GemmMode mode = var.mode;
          Tensor a(mode.trans_a ? std::vector{k, m} : std::vector{m, k});
          Tensor b(mode.trans_b ? std::vector{n, k} : std::vector{k, n});
          Tensor canvas = Tensor::full(
              {m, n}, std::numeric_limits<float>::quiet_NaN());
          const auto fill = [&](Tensor& t) {
            const std::vector<float> v = gemm_operand(t.size(), rng);
            std::copy(v.begin(), v.end(), t.data());
          };
          fill(a);
          fill(b);
          if (mode.accumulate) fill(canvas);
          std::vector<float> expect(canvas.data(), canvas.data() + m * n);
          naive_gemm(m, n, k, a.data(), a.dim(1), b.data(), b.dim(1),
                     expect.data(), n, mode);
          for (const auto& tier : tiers)
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
              ScopedTierAndPool scope(tier, threads);
              if (tier) {
                ASSERT_EQ(simd::active_simd_tier(), *tier);
              }
              Tensor c = canvas;
              var.fn(a, b, c);
              for (std::size_t e = 0; e < m * n; ++e)
                ASSERT_EQ(bits(c[e]), bits(expect[e]))
                    << var.name << " m=" << m << " k=" << k << " n=" << n
                    << " elem " << e << " tier "
                    << simd::simd_tier_name(simd::active_simd_tier())
                    << " threads " << threads;
            }
        }
}

TEST(Ops, GemmParityEveryTierAndPool) {
  std::vector<std::optional<simd::SimdTier>> tiers;
  for (const simd::SimdTier t : simd::available_simd_tiers())
    tiers.push_back(t);
  expect_matmul_parity(tiers);
}

// The tier automatic dispatch picks, so a NNLUT_SIMD_TIER=<tier> run of
// this case checks that tier through the environment path.
TEST(Ops, GemmParityActiveTier) {
  std::printf("active tier: %s\n",
              simd::simd_tier_name(simd::active_simd_tier()));
  expect_matmul_parity({std::nullopt});
}

// Strided operands, as attention passes them: Q_h, K_h and V_h are column
// slices of [rows, hidden] (lda/ldb = hidden), context_h is a column slice
// of its output (ldc = hidden). Columns outside the slice stay untouched.
TEST(Ops, GemmParityStridedOperands) {
  Rng rng(22);
  struct Case {
    std::size_t m, n, k, lda, ldb, ldc;
    GemmMode mode;
  };
  const Case cases[] = {
      {17, 17, 16, 64, 64, 17, {.trans_b = true}},  // scores: Q_h * K_h^T
      {128, 128, 64, 256, 256, 128, {.trans_b = true}},
      {17, 16, 17, 17, 64, 64, {}},  // context: P_h * V_h (ldb, ldc hidden)
      {128, 64, 128, 128, 256, 256, {}},
      {17, 16, 17, 17, 64, 64, {.trans_a = true}},  // training dV = P^T dC
      {33, 31, 300, 301, 40, 45, {}},  // k past one k block, odd strides
      {33, 31, 300, 40, 301, 45, {.trans_a = true, .trans_b = true}},
      {33, 31, 300, 301, 40, 45, {.accumulate = true}},  // onto the canvas
      {33, 31, 300, 40, 45, 45, {.trans_a = true, .accumulate = true}},
      {5, 100, 1, 3, 101, 102, {}},
      {5, 7, 0, 3, 9, 9, {.accumulate = true}},  // k == 0: C bit-for-bit kept
  };
  for (const Case& t : cases) {
    const std::vector<float> a =
        gemm_operand((t.mode.trans_a ? t.k : t.m) * t.lda, rng);
    const std::vector<float> b =
        gemm_operand((t.mode.trans_b ? t.n : t.k) * t.ldb, rng);
    const std::vector<float> canvas = gemm_operand(t.m * t.ldc, rng);
    std::vector<float> expect = canvas;
    naive_gemm(t.m, t.n, t.k, a.data(), t.lda, b.data(), t.ldb, expect.data(),
               t.ldc, t.mode);
    for (const simd::SimdTier tier : simd::available_simd_tiers()) {
      ScopedTierAndPool scope(tier, 1);
      ASSERT_EQ(simd::active_simd_tier(), tier);
      std::vector<float> c = canvas;
      gemm(t.m, t.n, t.k, a.data(), t.lda, b.data(), t.ldb, c.data(), t.ldc,
           t.mode);
      for (std::size_t e = 0; e < c.size(); ++e)
        ASSERT_EQ(bits(c[e]), bits(expect[e]))
            << "m=" << t.m << " n=" << t.n << " k=" << t.k << " trans_a "
            << t.mode.trans_a << " trans_b " << t.mode.trans_b
            << " accumulate " << t.mode.accumulate << " elem " << e
            << " tier " << simd::simd_tier_name(tier);
    }
  }
}

TEST(Ops, MatmulEmptyDims) {
  Tensor a({0, 4});
  Tensor b({4, 3});
  Tensor c({0, 3});
  matmul(a, b, c);  // must not crash
  EXPECT_EQ(c.size(), 0u);
}

}  // namespace
}  // namespace nnlut

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "ibert/ibert_kernels.h"
#include "ibert/quantization.h"
#include "numerics/math.h"
#include "numerics/rng.h"

namespace nnlut::ibert {
namespace {

using nnlut::Rng;

// ---------------------------------------------------------------- i_sqrt ---

TEST(ISqrt, MatchesFloorSqrtExhaustiveSmall) {
  for (std::int64_t n = 0; n <= 10000; ++n) {
    const auto expect = static_cast<std::int64_t>(std::floor(std::sqrt(
        static_cast<double>(n))));
    EXPECT_EQ(i_sqrt(n), expect) << n;
  }
}

TEST(ISqrt, LargeValues) {
  for (std::int64_t n :
       {std::int64_t{1} << 20, std::int64_t{1} << 31, std::int64_t{1} << 40,
        (std::int64_t{1} << 40) + 12345}) {
    const std::int64_t r = i_sqrt(n);
    EXPECT_LE(r * r, n);
    EXPECT_GT((r + 1) * (r + 1), n);
  }
}

TEST(ISqrt, ZeroAndNegative) {
  EXPECT_EQ(i_sqrt(0), 0);
  EXPECT_EQ(i_sqrt(-5), 0);
}

TEST(ISqrt, IterationCountBounded) {
  // The paper's Table 4 gives i_sqrt a 5-cycle latency budget; Newton on
  // 32-bit variances converges within a handful of iterations.
  for (std::int64_t n : {std::int64_t{100}, std::int64_t{1} << 16,
                         std::int64_t{1} << 30, std::int64_t{1} << 32}) {
    EXPECT_LE(i_sqrt_iterations(n), 6) << n;
  }
}

// ----------------------------------------------------------------- i_exp ---

TEST(IExp, TracksExpOnSoftmaxRange) {
  const float s = 8.0f / 32767.0f;  // logits pre-scaled to |x| <= 8
  for (float x = -8.0f; x <= 0.0f; x += 0.01f) {
    const QValue out = i_exp({static_cast<std::int32_t>(std::lround(x / s)), s});
    EXPECT_NEAR(out.value(), std::exp(x), 0.01f) << x;
  }
}

TEST(IExp, PositiveInputClampedToOne) {
  const float s = 1.0f / 1000.0f;
  const QValue out = i_exp({500, s});  // x = 0.5 clamps to 0
  EXPECT_NEAR(out.value(), 1.0f, 0.05f);
}

TEST(IExp, VeryNegativeSaturatesToZero) {
  const float s = 64.0f / 32767.0f;
  const QValue out =
      i_exp({static_cast<std::int32_t>(std::lround(-60.0f / s)), s});
  EXPECT_NEAR(out.value(), 0.0f, 1e-6f);
}

// ---------------------------------------------------------------- i_gelu ---

TEST(IGelu, TracksGelu) {
  const float s = 5.0f / 32767.0f;
  double worst = 0;
  for (float x = -5.0f; x <= 5.0f; x += 0.01f) {
    const QValue out =
        i_gelu({static_cast<std::int32_t>(std::lround(x / s)), s});
    worst = std::max(worst, std::abs(static_cast<double>(out.value()) -
                                     gelu_exact(x)));
  }
  // I-BERT's polynomial erf is itself approximate (~1e-2 worst case).
  EXPECT_LT(worst, 0.03);
}

TEST(IErf, OddSymmetry) {
  const float s = 3.0f / 32767.0f;
  for (float x = 0.1f; x <= 3.0f; x += 0.1f) {
    const auto q = static_cast<std::int32_t>(std::lround(x / s));
    const QValue pos = i_erf({q, s});
    const QValue neg = i_erf({-q, s});
    EXPECT_NEAR(pos.value(), -neg.value(), 1e-5f) << x;
  }
}

TEST(IErf, SaturatesToPlusMinusOne) {
  const float s = 10.0f / 32767.0f;
  const QValue big = i_erf({32000, s});
  const QValue neg = i_erf({-32000, s});
  EXPECT_NEAR(big.value(), 1.0f, 0.02f);
  EXPECT_NEAR(neg.value(), -1.0f, 0.02f);
}

// ---------------------------------------------------------------- i_poly ---

TEST(IPoly, QuadraticExact) {
  // a(x+b)^2 + c at modest scales stays within quantization error.
  const float a = 0.5f, b = -1.0f, c = 2.0f;
  const float s = 4.0f / 4096.0f;
  for (float x = -4.0f; x <= 4.0f; x += 0.05f) {
    const QValue out =
        i_poly({static_cast<std::int32_t>(std::lround(x / s)), s}, a, b, c);
    const float expect = a * (x + b) * (x + b) + c;
    EXPECT_NEAR(out.value(), expect, 0.02f) << x;
  }
}

// ------------------------------------------------------------ row kernels --

TEST(SoftmaxRow, SumsToOne) {
  Rng rng(5);
  for (int t = 0; t < 20; ++t) {
    std::vector<float> row(48);
    for (float& v : row) v = rng.uniform(-6.0f, 6.0f);
    softmax_rows(row, 1, row.size());
    const float sum = std::accumulate(row.begin(), row.end(), 0.0f);
    EXPECT_NEAR(sum, 1.0f, 0.01f);
  }
}

TEST(SoftmaxRow, TracksExactSoftmax) {
  Rng rng(6);
  double worst = 0;
  for (int t = 0; t < 20; ++t) {
    std::vector<float> row(32), expect(32);
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = rng.uniform(-5.0f, 5.0f);
      expect[i] = row[i];
    }
    softmax_rows(row, 1, row.size());
    softmax_exact(expect);
    for (std::size_t i = 0; i < row.size(); ++i)
      worst = std::max(worst,
                       std::abs(static_cast<double>(row[i]) - expect[i]));
  }
  EXPECT_LT(worst, 0.01);
}

TEST(GeluRow, TracksExactGelu) {
  Rng rng(7);
  std::vector<float> row(256), expect(256);
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] = rng.uniform(-4.0f, 4.0f);
    expect[i] = gelu_exact(row[i]);
  }
  gelu_rows(row, 1, row.size());
  for (std::size_t i = 0; i < row.size(); ++i)
    EXPECT_NEAR(row[i], expect[i], 0.04f);
}

TEST(LayerNormRow, TracksExactLayerNorm) {
  Rng rng(8);
  std::vector<float> x(128), y(128), expect(128);
  for (float& v : x) v = rng.uniform(-2.0f, 2.0f);
  layernorm_rows(x, y, 1, x.size(), {}, {});
  layer_norm_exact(x, expect, {}, {});
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], expect[i], 0.02f) << i;
}

TEST(LayerNormRow, AffineParamsApplied) {
  std::vector<float> x{1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> y(4), expect(4);
  std::vector<float> gamma{2.0f, 2.0f, 2.0f, 2.0f}, beta{1.0f, 1.0f, 1.0f, 1.0f};
  layernorm_rows(x, y, 1, x.size(), gamma, beta);
  layer_norm_exact(x, expect, gamma, beta);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(y[i], expect[i], 0.05f);
}

TEST(LayerNormRow, ConstantRowDoesNotCrash) {
  std::vector<float> x(16, 3.0f), y(16);
  layernorm_rows(x, y, 1, x.size(), {}, {});
  for (float v : y) EXPECT_NEAR(v, 0.0f, 0.1f);
}

// ----------------------------------------------------------- quantization --

TEST(Quantization, SymmetricScaleMapsMaxToQmax) {
  const std::vector<float> v{-3.0f, 1.0f, 2.0f};
  const float s = symmetric_scale(v, 8);
  EXPECT_NEAR(3.0f / s, 127.0f, 1e-3f);
}

TEST(Quantization, FakeQuantizeBoundsError) {
  Rng rng(9);
  std::vector<float> v(1000);
  for (float& x : v) x = rng.uniform(-2.0f, 2.0f);
  std::vector<float> orig = v;
  fake_quantize(v, 8);
  const float step = symmetric_scale(orig, 8);
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_LE(std::abs(v[i] - orig[i]), step * 0.5f + 1e-6f);
}

TEST(Quantization, FakeQuantizeIdempotent) {
  std::vector<float> v{-1.0f, 0.25f, 0.7f};
  fake_quantize(v, 8);
  std::vector<float> once = v;
  fake_quantize(v, 8);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], once[i]);
}

TEST(Quantization, Fp16RoundTrip) {
  std::vector<float> v{1.0f, 2.5f, -0.125f};
  fake_quantize_fp16(v);
  EXPECT_EQ(v[0], 1.0f);
  EXPECT_EQ(v[1], 2.5f);
  EXPECT_EQ(v[2], -0.125f);
}

TEST(Quantization, ZeroVectorScaleIsSafe) {
  const std::vector<float> v(4, 0.0f);
  EXPECT_GT(symmetric_scale(v, 8), 0.0f);
}

}  // namespace
}  // namespace nnlut::ibert

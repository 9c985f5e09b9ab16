// Property tests of the I-BERT integer kernels across quantization scales:
// accuracy must be stable over the scale sweep, softmax must preserve the
// argmax and ordering, and kernels must be scale-consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ibert/ibert_kernels.h"
#include "numerics/math.h"
#include "numerics/rng.h"

namespace nnlut::ibert {
namespace {

using nnlut::Rng;

class ScaleSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScaleSweep, IExpAccurateAcrossScales) {
  const int bits = GetParam();
  const float s = 10.0f / static_cast<float>((1 << bits) - 1);
  double worst = 0.0;
  for (float x = -10.0f; x <= 0.0f; x += 0.01f) {
    const QValue out = i_exp({static_cast<std::int64_t>(std::llround(x / s)), s});
    worst = std::max(worst,
                     std::abs(static_cast<double>(out.value()) - std::exp(x)));
  }
  // Coarser scales quantize harder; tolerance loosens with fewer bits.
  EXPECT_LT(worst, bits >= 12 ? 0.02 : 0.06) << "bits=" << bits;
}

TEST_P(ScaleSweep, IGeluAccurateAcrossScales) {
  const int bits = GetParam();
  const float s = 5.0f / static_cast<float>((1 << bits) - 1);
  double worst = 0.0;
  for (float x = -5.0f; x <= 5.0f; x += 0.01f) {
    const QValue out =
        i_gelu({static_cast<std::int64_t>(std::llround(x / s)), s});
    worst = std::max(worst, std::abs(static_cast<double>(out.value()) -
                                     gelu_exact(x)));
  }
  EXPECT_LT(worst, bits >= 12 ? 0.035 : 0.08) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(Bits, ScaleSweep, ::testing::Values(10, 12, 15, 20));

TEST(SoftmaxRowProperties, PreservesArgmaxAndOrdering) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> row(24);
    for (float& v : row) v = rng.uniform(-6.0f, 6.0f);
    const std::size_t argmax_before = static_cast<std::size_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
    std::vector<float> orig = row;
    softmax_rows(row, 1, row.size());
    const std::size_t argmax_after = static_cast<std::size_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
    EXPECT_EQ(argmax_after, argmax_before) << trial;
    // Order preservation on a well-separated pair.
    for (std::size_t i = 0; i + 1 < row.size(); ++i)
      for (std::size_t j = i + 1; j < row.size(); ++j)
        if (orig[i] > orig[j] + 0.5f) {
          EXPECT_GE(row[i], row[j] - 1e-4f);
        }
  }
}

TEST(SoftmaxRowProperties, OutputsNonNegative) {
  Rng rng(22);
  std::vector<float> row(64);
  for (float& v : row) v = rng.uniform(-30.0f, 30.0f);
  softmax_rows(row, 1, row.size());
  for (float v : row) EXPECT_GE(v, 0.0f);
}

TEST(SoftmaxRowProperties, SingleElementRowIsOne) {
  std::vector<float> row{3.7f};
  softmax_rows(row, 1, row.size());
  EXPECT_NEAR(row[0], 1.0f, 0.01f);
}

TEST(LayerNormRowProperties, ShiftInvariance) {
  // LayerNorm(x + c) == LayerNorm(x); the integer pipeline must track this.
  Rng rng(23);
  std::vector<float> x(64), shifted(64), y1(64), y2(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(-2.0f, 2.0f);
    shifted[i] = x[i] + 7.5f;
  }
  layernorm_rows(x, y1, 1, x.size(), {}, {});
  layernorm_rows(shifted, y2, 1, shifted.size(), {}, {});
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y1[i], y2[i], 0.05f) << i;
}

TEST(LayerNormRowProperties, ScaleEquivariance) {
  // LayerNorm(a*x) == LayerNorm(x) for a > 0.
  Rng rng(24);
  std::vector<float> x(64), scaled(64), y1(64), y2(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(-2.0f, 2.0f);
    scaled[i] = 5.0f * x[i];
  }
  layernorm_rows(x, y1, 1, x.size(), {}, {});
  layernorm_rows(scaled, y2, 1, scaled.size(), {}, {});
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y1[i], y2[i], 0.05f) << i;
}

TEST(IPolyProperties, MatchesFloatPolynomialAcrossCoefficients) {
  Rng rng(25);
  for (int trial = 0; trial < 20; ++trial) {
    const float a = rng.uniform(-1.0f, 1.0f);
    const float b = rng.uniform(-2.0f, 2.0f);
    const float c = rng.uniform(-2.0f, 2.0f);
    if (std::abs(a) < 0.05f) continue;
    const float s = 4.0f / 8191.0f;
    for (float x : {-3.0f, -1.0f, 0.0f, 0.5f, 2.0f}) {
      const QValue out =
          i_poly({static_cast<std::int64_t>(std::llround(x / s)), s}, a, b, c);
      const float expect = a * (x + b) * (x + b) + c;
      EXPECT_NEAR(out.value(), expect, 0.05f)
          << "a=" << a << " b=" << b << " x=" << x;
    }
  }
}

TEST(ISqrtProperties, MonotoneNonDecreasing) {
  std::int64_t prev = 0;
  for (std::int64_t n = 0; n < 100000; n += 97) {
    const std::int64_t r = i_sqrt(n);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

}  // namespace
}  // namespace nnlut::ibert

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "approx/linear_lut.h"
#include "core/function_library.h"
#include "core/nnlut_ops.h"
#include "core/scalar_fn.h"
#include "numerics/math.h"
#include "numerics/rng.h"

namespace nnlut {
namespace {

// With exact scalar functions plugged in, the composite operators must
// reduce to the textbook definitions. This isolates composition bugs from
// approximation error.

TEST(SoftmaxApprox, ExactFnsReproduceSoftmax) {
  const ExactFn e(exp_exact);
  const ExactFn r(reciprocal_exact);
  const SoftmaxApprox sm(e, r);

  std::vector<float> row{0.3f, -1.2f, 2.0f, 0.0f};
  std::vector<float> expect = row;
  sm(row);
  softmax_exact(expect);
  for (std::size_t i = 0; i < row.size(); ++i)
    EXPECT_NEAR(row[i], expect[i], 1e-6f);
}

TEST(SoftmaxApprox, SumsToApproxOne) {
  const ExactFn e(exp_exact);
  const ExactFn r(reciprocal_exact);
  const SoftmaxApprox sm(e, r);
  Rng rng(3);
  for (int t = 0; t < 50; ++t) {
    std::vector<float> row(32);
    for (float& v : row) v = rng.uniform(-8.0f, 8.0f);
    sm(row);
    const float sum = std::accumulate(row.begin(), row.end(), 0.0f);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxApprox, ClipsExtremeLogitsInsteadOfExploding) {
  const ExactFn e(exp_exact);
  const ExactFn r(reciprocal_exact);
  const SoftmaxApprox sm(e, r);
  std::vector<float> row{0.0f, -1e9f};  // e.g. an additive attention mask
  sm(row);
  EXPECT_NEAR(row[0], 1.0f, 1e-5f);
  EXPECT_NEAR(row[1], 0.0f, 1e-5f);
}

TEST(SoftmaxApprox, EmptyRowIsNoop) {
  const ExactFn e(exp_exact);
  const ExactFn r(reciprocal_exact);
  const SoftmaxApprox sm(e, r);
  std::vector<float> row;
  sm(row);
  EXPECT_TRUE(row.empty());
}

TEST(SoftmaxApprox, TrainedLutsTrackExactSoftmax) {
  const FittedLut exp_fit = fit_lut(TargetFn::kExp, 16, FitPreset::kFast, 5);
  const FittedLut div_fit =
      fit_lut(TargetFn::kReciprocal, 16, FitPreset::kFast, 5);
  const LutFp32 e(exp_fit.lut), r(div_fit.lut);
  const SoftmaxApprox sm(e, r);

  Rng rng(9);
  double worst = 0.0;
  for (int t = 0; t < 20; ++t) {
    std::vector<float> row(64);
    for (float& v : row) v = rng.uniform(-4.0f, 4.0f);
    std::vector<float> expect = row;
    sm(row);
    softmax_exact(expect);
    for (std::size_t i = 0; i < row.size(); ++i)
      worst = std::max(worst, std::abs(static_cast<double>(row[i]) - expect[i]));
  }
  EXPECT_LT(worst, 0.04);  // Fig. 2(b): NN-LUT softmax hugs the FP32 points
}

TEST(LayerNormApprox, ExactRsqrtReproducesLayerNorm) {
  const ExactFn rs(rsqrt_exact);
  const LayerNormApprox ln(rs);
  Rng rng(4);
  std::vector<float> x(64), y(64), expect(64);
  for (float& v : x) v = rng.uniform(-3.0f, 3.0f);
  ln(x, y, {}, {});
  layer_norm_exact(x, expect, {}, {});
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], expect[i], 1e-5f);
}

TEST(LayerNormApprox, InputScalingIdentityWithExactRsqrt) {
  // rsqrt(v*S)*sqrt(S) == rsqrt(v) exactly, so scaling must be transparent.
  const ExactFn rs(rsqrt_exact);
  LayerNormApprox::Options opt;
  opt.input_scaling = true;
  const LayerNormApprox ln(rs, opt);

  // Small-variance input (variance ~1e-4 after eps) exercises the v < 1 path.
  std::vector<float> x{0.01f, -0.01f, 0.011f, -0.009f};
  std::vector<float> y(x.size()), expect(x.size());
  ln(x, y, {}, {});
  layer_norm_exact(x, expect, {}, {});
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], expect[i], 2e-4f);
}

TEST(LayerNormApprox, ScaledLutHandlesSmallVariance) {
  const FittedLut rsqrt_fit = fit_lut(TargetFn::kRsqrt, 16, FitPreset::kFast, 5);
  const LutFp32 rs(rsqrt_fit.lut);

  LayerNormApprox::Options with;
  with.input_scaling = true;
  LayerNormApprox::Options without;
  without.input_scaling = false;
  const LayerNormApprox ln_scaled(rs, with);
  const LayerNormApprox ln_raw(rs, without);

  // Variance ~ 1e-2: far below the LUT's (0.1, 1024) training range.
  Rng rng(12);
  std::vector<float> x(128);
  for (float& v : x) v = rng.uniform(-0.15f, 0.15f);
  std::vector<float> ys(x.size()), yr(x.size()), expect(x.size());
  ln_scaled(x, ys, {}, {});
  ln_raw(x, yr, {}, {});
  layer_norm_exact(x, expect, {}, {});

  double err_scaled = 0, err_raw = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err_scaled += std::abs(ys[i] - expect[i]);
    err_raw += std::abs(yr[i] - expect[i]);
  }
  // Sec. 3.3.2: scaling rescues the wide-dynamic-range regime.
  EXPECT_LT(err_scaled, err_raw);
  EXPECT_LT(err_scaled / static_cast<double>(x.size()), 0.05);
}

TEST(LayerNormApprox, GammaBetaApplied) {
  const ExactFn rs(rsqrt_exact);
  const LayerNormApprox ln(rs);
  std::vector<float> x{-1.0f, 1.0f};
  std::vector<float> y(2);
  std::vector<float> gamma{3.0f, 3.0f}, beta{-1.0f, -1.0f};
  ln(x, y, gamma, beta);
  std::vector<float> expect(2);
  layer_norm_exact(x, expect, gamma, beta);
  EXPECT_NEAR(y[0], expect[0], 1e-5f);
  EXPECT_NEAR(y[1], expect[1], 1e-5f);
}

TEST(LutGelu, TrainedLutTracksGelu) {
  const FittedLut fit = fit_lut(TargetFn::kGelu, 16, FitPreset::kFast, 5);
  const LutFp32 gelu(fit.lut);
  double worst = 0.0;
  for (float x = -5.0f; x <= 5.0f; x += 0.01f)
    worst = std::max(worst,
                     std::abs(static_cast<double>(gelu.eval(x)) - gelu_exact(x)));
  EXPECT_LT(worst, 0.08);
}

TEST(LutGelu, TailsExtrapolateSensibly) {
  const FittedLut fit = fit_lut(TargetFn::kGelu, 16, FitPreset::kFast, 5);
  const LutFp32 gelu(fit.lut);
  // Outside the training range the LUT extrapolates the outermost learned
  // segments linearly. GELU(x) ~ 0 (left) / ~ x (right); the learned edge
  // slopes keep extrapolation bounded though not exact (the paper trains and
  // deploys on (-5, 5) only).
  EXPECT_NEAR(gelu.eval(-8.0f), 0.0f, 1.0f);
  EXPECT_NEAR(gelu.eval(8.0f), 8.0f, 1.5f);
}

TEST(CapturingFn, RecordsInputs) {
  const ExactFn base(gelu_exact);
  std::vector<float> sink;
  const CapturingFn cap(base, sink);
  EXPECT_EQ(cap.eval(1.5f), gelu_exact(1.5f));
  cap.eval(-0.5f);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[0], 1.5f);
  EXPECT_EQ(sink[1], -0.5f);
}

}  // namespace
}  // namespace nnlut

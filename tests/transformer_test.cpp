#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "approx/linear_lut.h"
#include "core/function_library.h"
#include "numerics/rng.h"
#include "transformer/backends.h"
#include "transformer/infer.h"
#include "transformer/model.h"

namespace nnlut::transformer {
namespace {

ModelConfig tiny_config(NormKind norm = NormKind::kLayerNorm,
                        ActKind act = ActKind::kGelu) {
  ModelConfig c;
  c.vocab = 32;
  c.hidden = 16;
  c.layers = 2;
  c.heads = 2;
  c.ffn = 32;
  c.max_seq = 12;
  c.norm = norm;
  c.act = act;
  return c;
}

BatchInput random_batch(const ModelConfig& cfg, std::size_t batch,
                        std::size_t seq, Rng& rng) {
  BatchInput in;
  in.batch = batch;
  in.seq = seq;
  in.token_ids.resize(batch * seq);
  in.type_ids.assign(batch * seq, 0);
  for (int& t : in.token_ids)
    t = rng.uniform_int(0, static_cast<int>(cfg.vocab) - 1);
  return in;
}

double max_diff(const Tensor& a, const Tensor& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  return m;
}

// ------------------------------------------------------------- Encoder ----

TEST(Encoder, ForwardShape) {
  Rng rng(1);
  const ModelConfig cfg = tiny_config();
  Encoder enc(cfg, rng);
  const BatchInput in = random_batch(cfg, 3, 8, rng);
  const Tensor h = enc.forward(in);
  EXPECT_EQ(h.dim(0), 24u);
  EXPECT_EQ(h.dim(1), cfg.hidden);
}

TEST(Encoder, RejectsBadShapes) {
  Rng rng(2);
  const ModelConfig cfg = tiny_config();
  Encoder enc(cfg, rng);
  BatchInput in = random_batch(cfg, 2, 8, rng);
  in.token_ids.pop_back();
  EXPECT_THROW(enc.forward(in), std::invalid_argument);

  BatchInput long_in = random_batch(cfg, 1, cfg.max_seq + 1, rng);
  EXPECT_THROW(enc.forward(long_in), std::invalid_argument);
}

TEST(Encoder, LayerNormKeepsActivationsBounded) {
  Rng rng(3);
  const ModelConfig cfg = tiny_config();
  Encoder enc(cfg, rng);
  const BatchInput in = random_batch(cfg, 2, 8, rng);
  const Tensor h = enc.forward(in);
  for (float v : h.flat()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::abs(v), 20.0f);
  }
}

// ----------------------------------------------------------- TaskModel ----

TEST(TaskModel, ClassifierLogitsShape) {
  Rng rng(4);
  TaskModel m(tiny_config(), HeadKind::kClassify, 3, rng);
  const BatchInput in = random_batch(m.config(), 4, 8, rng);
  const Tensor logits = m.forward(in);
  EXPECT_EQ(logits.dim(0), 4u);
  EXPECT_EQ(logits.dim(1), 3u);
}

TEST(TaskModel, SpanLogitsShape) {
  Rng rng(5);
  TaskModel m(tiny_config(), HeadKind::kSpan, 2, rng);
  const BatchInput in = random_batch(m.config(), 2, 8, rng);
  const Tensor logits = m.forward(in);
  EXPECT_EQ(logits.dim(0), 16u);
  EXPECT_EQ(logits.dim(1), 2u);
}

TEST(TaskModel, ParamsCoverAllLayers) {
  Rng rng(6);
  TaskModel m(tiny_config(), HeadKind::kClassify, 2, rng);
  // 3 embeddings + emb_norm(2) + per layer (4 attn linear * 2 + 2 norms * 2
  // + 2 ffn linear * 2) + head (2).
  const std::size_t expect = 3 + 2 + m.config().layers * (8 + 4 + 4) + 2;
  EXPECT_EQ(m.params().size(), expect);
}

TEST(TaskModel, RejectsEmptyBatches) {
  // A classification head reads row 0 of the hidden state per sequence; an
  // empty batch has no such row.
  Rng rng(7);
  TaskModel m(tiny_config(), HeadKind::kClassify, 2, rng);
  for (const auto& [batch, seq] :
       {std::pair<std::size_t, std::size_t>{1, 0}, {0, 4}}) {
    BatchInput in;
    in.batch = batch;
    in.seq = seq;
    EXPECT_THROW(m.forward(in), std::invalid_argument)
        << "batch=" << batch << " seq=" << seq;
  }
}

TEST(DecodeSpans, PicksArgmaxStartThenEnd) {
  Tensor logits({8, 2});  // batch=1, seq=8
  logits.at(2, 0) = 5.0f;  // start at 2
  logits.at(1, 1) = 9.0f;  // high end logit *before* start: must be ignored
  logits.at(4, 1) = 6.0f;  // end at 4
  const auto spans = decode_spans(logits, 1, 8);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].first, 2);
  EXPECT_EQ(spans[0].second, 4);
}

// --------------------------------------------------- InferenceParity ------

TEST(InferenceModel, ExactBackendMatchesTrainingForward) {
  Rng rng(7);
  TaskModel m(tiny_config(), HeadKind::kClassify, 2, rng);
  const BatchInput in = random_batch(m.config(), 3, 8, rng);

  const Tensor train_logits = m.forward(in);

  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact, MatmulMode::kFp32);
  const Tensor infer_logits = infer.logits(in);

  ASSERT_EQ(train_logits.size(), infer_logits.size());
  EXPECT_LT(max_diff(train_logits, infer_logits), 1e-4);
}

TEST(InferenceModel, ExactParityForNoNormReluModel) {
  Rng rng(8);
  TaskModel m(tiny_config(NormKind::kNoNorm, ActKind::kRelu),
              HeadKind::kClassify, 2, rng);
  const BatchInput in = random_batch(m.config(), 2, 8, rng);
  const Tensor train_logits = m.forward(in);
  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact, MatmulMode::kFp32);
  EXPECT_LT(max_diff(train_logits, infer.logits(in)), 1e-4);
}

TEST(InferenceModel, SpanHeadParity) {
  Rng rng(9);
  TaskModel m(tiny_config(), HeadKind::kSpan, 2, rng);
  const BatchInput in = random_batch(m.config(), 2, 8, rng);
  const Tensor train_logits = m.forward(in);
  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact, MatmulMode::kFp32);
  EXPECT_LT(max_diff(train_logits, infer.logits(in)), 1e-4);
}

TEST(InferenceModel, RejectsEmptyRequests) {
  Rng rng(12);
  TaskModel m(tiny_config(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact, MatmulMode::kFp32);
  // Warm the workspace first: an empty request that got through would read
  // this request's activations as its own.
  Workspace ws;
  (void)infer.logits(random_batch(m.config(), 1, 8, rng), ws);
  for (const auto& [batch, seq] :
       {std::pair<std::size_t, std::size_t>{1, 0}, {0, 4}}) {
    BatchInput in;
    in.batch = batch;
    in.seq = seq;
    EXPECT_THROW(infer.validate(in), std::invalid_argument)
        << "batch=" << batch << " seq=" << seq;
    EXPECT_THROW(infer.logits(in, ws), std::invalid_argument)
        << "batch=" << batch << " seq=" << seq;
  }
}

TEST(InferenceModel, Fp16ModeStaysClose) {
  Rng rng(10);
  TaskModel m(tiny_config(), HeadKind::kClassify, 2, rng);
  const BatchInput in = random_batch(m.config(), 2, 8, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel fp32(m, exact, MatmulMode::kFp32);
  InferenceModel fp16(m, exact, MatmulMode::kFp16);
  EXPECT_LT(max_diff(fp32.logits(in), fp16.logits(in)), 0.05);
}

TEST(InferenceModel, Int8ModeStaysSane) {
  Rng rng(11);
  TaskModel m(tiny_config(), HeadKind::kClassify, 2, rng);
  const BatchInput in = random_batch(m.config(), 2, 8, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel fp32(m, exact, MatmulMode::kFp32);
  InferenceModel int8(m, exact, MatmulMode::kInt8);
  // INT8 is lossier than FP16 but must stay in the same ballpark.
  EXPECT_LT(max_diff(fp32.logits(in), int8.logits(in)), 0.5);
}

// ------------------------------------------------------------ Backends ----

LutSet exact_fitted_luts() {
  // Fixed-breakpoint fits are deterministic and fast; good enough for
  // backend plumbing tests (trained NN-LUTs are exercised elsewhere).
  LutSet s;
  s.gelu = fit_linear_lut(gelu_exact, kGeluRange, 64);
  s.exp = fit_fixed_breakpoint_lut(exp_exact, {-16.0f, 0.0f}, 64);
  s.reciprocal = fit_fixed_breakpoint_lut(reciprocal_exact, {1.0f, 64.0f}, 64,
                                          BreakpointMode::kExponential);
  s.rsqrt = fit_fixed_breakpoint_lut(rsqrt_exact, kRsqrtRange, 64,
                                     BreakpointMode::kExponential);
  return s;
}

TEST(LutBackend, SelectionRoutesOnlyChosenOps) {
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::gelu_only();
  auto backend = make_lut_backend(exact_fitted_luts(), LutPrecision::kFp32, opt);

  // Softmax not selected -> exact.
  std::vector<float> row{1.0f, 2.0f, 3.0f};
  std::vector<float> expect = row;
  backend->softmax_rows(row, 1, row.size(), 0);
  softmax_exact(expect);
  for (std::size_t i = 0; i < row.size(); ++i)
    EXPECT_NEAR(row[i], expect[i], 1e-6f);

  // LayerNorm not selected -> exact.
  std::vector<float> x{1.0f, -1.0f, 0.5f, -0.5f};
  std::vector<float> y(4), yref(4);
  backend->layer_norm_rows(x, y, 1, x.size(), {}, {}, 0);
  layer_norm_exact(x, yref, {}, {});
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(y[i], yref[i], 1e-6f);
}

TEST(LutBackend, SiteSpecificRsqrtOverrides) {
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::layernorm_only();
  opt.input_scaling = false;
  auto backend = make_lut_backend(exact_fitted_luts(), LutPrecision::kFp32, opt);

  // Install a deliberately wrong rsqrt at site 1: outputs all-zero rows.
  backend->set_site_rsqrt(
      1, std::make_unique<ExactFn>([](float) { return 0.0f; }));

  std::vector<float> x{4.0f, 2.0f, -4.0f, -2.0f};
  std::vector<float> y0(4), y1(4);
  backend->layer_norm_rows(x, y0, 1, x.size(), {}, {}, 0);
  backend->layer_norm_rows(x, y1, 1, x.size(), {}, {}, 1);
  // Site 0 uses the shared LUT (non-zero output); site 1 the override.
  EXPECT_GT(std::abs(y0[0]), 0.1f);
  for (float v : y1) EXPECT_EQ(v, 0.0f);
}

TEST(LutBackend, CaptureRecordsRsqrtInputs) {
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::layernorm_only();
  opt.input_scaling = false;
  auto backend = make_lut_backend(exact_fitted_luts(), LutPrecision::kFp32, opt);
  backend->enable_rsqrt_capture();

  std::vector<float> x{3.0f, -3.0f, 1.0f, -1.0f};  // variance 5
  std::vector<float> y(4);
  backend->layer_norm_rows(x, y, 1, x.size(), {}, {}, 2);
  backend->disable_rsqrt_capture();

  const auto& captured = backend->captured_rsqrt_inputs(2);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_NEAR(captured[0], 5.0f, 1e-3f);
  EXPECT_TRUE(backend->captured_rsqrt_inputs(0).empty());
}

TEST(LutBackend, CaptureRejectsNegativeSite) {
  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::layernorm_only();
  auto backend =
      make_lut_backend(exact_fitted_luts(), LutPrecision::kFp32, opt);
  backend->enable_rsqrt_capture();

  std::vector<float> x{3.0f, -3.0f, 1.0f, -1.0f};
  std::vector<float> y(4);
  backend->layer_norm_rows(x, y, 1, x.size(), {}, {}, 1);
  EXPECT_THROW(backend->layer_norm_rows(x, y, 1, x.size(), {}, {}, -1),
               std::invalid_argument);
  EXPECT_THROW(backend->layer_norm_rows(x, y, 2, 2, {}, {}, -1),
               std::invalid_argument);
  // The rejected calls leave every captured site intact.
  EXPECT_EQ(backend->captured_rsqrt_inputs(1).size(), 1u);
}

TEST(IBertBackend, TracksExactOps) {
  IBertNonlinearities ib(ActKind::kGelu);
  Rng rng(12);

  std::vector<float> row(16), rref(16);
  for (std::size_t i = 0; i < row.size(); ++i)
    rref[i] = row[i] = rng.uniform(-4.0f, 4.0f);
  ib.softmax_rows(row, 1, row.size(), 0);
  softmax_exact(rref);
  for (std::size_t i = 0; i < row.size(); ++i)
    EXPECT_NEAR(row[i], rref[i], 0.01f);

  std::vector<float> xs(32), xref(32);
  for (std::size_t i = 0; i < xs.size(); ++i)
    xref[i] = xs[i] = rng.uniform(-3.0f, 3.0f);
  ib.activation_rows(xs, 1, xs.size(), 0);
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_NEAR(xs[i], gelu_exact(xref[i]), 0.03f);
}

TEST(IBertBackend, ReluModelsKeepReluExact) {
  IBertNonlinearities ib(ActKind::kRelu);
  std::vector<float> xs{-2.0f, 3.0f};
  ib.activation_rows(xs, 1, xs.size(), 0);
  EXPECT_EQ(xs[0], 0.0f);
  EXPECT_EQ(xs[1], 3.0f);
}

TEST(InferenceModel, LutBackendAllOpsCloseToExact) {
  Rng rng(13);
  TaskModel m(tiny_config(), HeadKind::kClassify, 2, rng);
  const BatchInput in = random_batch(m.config(), 3, 8, rng);

  ExactNonlinearities exact(m.config().act);
  InferenceModel ref(m, exact, MatmulMode::kFp32);

  LutNonlinearities::Options opt;
  opt.select = ApproxSelection::all();
  auto lut = make_lut_backend(exact_fitted_luts(), LutPrecision::kFp32, opt);
  InferenceModel approx(m, *lut, MatmulMode::kFp32);

  // Dense 64-entry exact-fit LUTs: logits must track the reference closely.
  EXPECT_LT(max_diff(ref.logits(in), approx.logits(in)), 0.3);
}

}  // namespace
}  // namespace nnlut::transformer

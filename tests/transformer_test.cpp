#include <gtest/gtest.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cmath>
#include <limits>
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

// A batch * seq that wraps size_t must not pass as a small shape: with
// batch = SIZE_MAX / 2 + 2 (2^63 + 1 on 64 bits) and seq = 2 the product
// wraps to 2, two token ids match it, and the head's per-batch loop would
// then read far past the rows.
TEST(InferenceModel, RejectsWrappingShapes) {
  Rng rng(12);
  TaskModel m(tiny_config(), HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(m.config().act);
  InferenceModel infer(m, exact, MatmulMode::kFp32);
  BatchInput in;
  in.batch = std::numeric_limits<std::size_t>::max() / 2 + 2;
  in.seq = 2;
  in.token_ids.assign(in.batch * in.seq, 1);
  ASSERT_EQ(in.token_ids.size(), 2u);
  EXPECT_THROW(infer.validate(in), std::invalid_argument);
  Workspace ws;
  EXPECT_THROW(infer.logits(in, ws), std::invalid_argument);
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

#ifdef __GLIBC__
/// Heap bytes in use: arena chunks plus mmapped blocks.
std::size_t heap_bytes_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// Heap growth across building an InferenceModel in `mode`, the model's
/// encoder linear-weight bytes beside it.
struct HeapGrowth {
  double grown = 0;
  double linear_weight_bytes = 0;
};

HeapGrowth inference_model_heap_growth(MatmulMode mode) {
  ModelConfig cfg = tiny_config();
  cfg.hidden = 128;
  cfg.ffn = 512;
  cfg.heads = 4;
  Rng rng(30);
  TaskModel m(cfg, HeadKind::kClassify, 2, rng);
  ExactNonlinearities exact(cfg.act);
  HeapGrowth g;
  for (const EncoderLayer& l : m.encoder.layers)
    for (const nn::Linear* lin : {&l.attn.wq, &l.attn.wk, &l.attn.wv,
                                  &l.attn.wo, &l.ff1, &l.ff2})
      g.linear_weight_bytes += static_cast<double>(lin->w.value.size()) *
                               sizeof(float);
  const std::size_t before = heap_bytes_in_use();
  const InferenceModel infer(m, exact, mode);
  g.grown = static_cast<double>(heap_bytes_in_use()) -
            static_cast<double>(before);
  return g;
}

/// True when mallinfo2 sees this process's allocations (a sanitizer's
/// allocator bypasses glibc's arenas, and the counters stand still).
bool mallinfo_tracks_heap() {
  const std::size_t before = heap_bytes_in_use();
  const Tensor probe({std::size_t{1} << 18});
  return heap_bytes_in_use() >= before + probe.size() * sizeof(float);
}

TEST(InferenceModel, Fp32BorrowsTheModelWeights) {
  if (!mallinfo_tracks_heap())
    GTEST_SKIP() << "mallinfo2 does not see the heap";
  const HeapGrowth g = inference_model_heap_growth(MatmulMode::kFp32);
  ASSERT_GT(g.linear_weight_bytes, 0.0);
  EXPECT_LT(g.grown, 0.01 * g.linear_weight_bytes)
      << "kFp32 must read the model's weights in place, not copy them";
}

TEST(InferenceModel, ProjectedModesOwnOneWeightCopy) {
  if (!mallinfo_tracks_heap())
    GTEST_SKIP() << "mallinfo2 does not see the heap";
  for (const MatmulMode mode : {MatmulMode::kFp16, MatmulMode::kInt8}) {
    const HeapGrowth g = inference_model_heap_growth(mode);
    EXPECT_GE(g.grown, g.linear_weight_bytes) << static_cast<int>(mode);
    EXPECT_LT(g.grown, 2.0 * g.linear_weight_bytes) << static_cast<int>(mode);
  }
}
#endif  // __GLIBC__

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

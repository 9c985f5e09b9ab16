#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "numerics/math.h"
#include "numerics/rng.h"
#include "tensor/ops.h"
#include "transformer/model.h"

namespace nnlut::nn {
namespace {

Tensor random_tensor(std::initializer_list<std::size_t> shape, Rng& rng,
                     float scale = 1.0f) {
  Tensor t(shape);
  for (float& v : t.flat()) v = rng.uniform(-scale, scale);
  return t;
}

/// Scalar objective: weighted sum of the module output (fixed weights make
/// the objective deterministic for finite differencing).
double weighted_sum(const Tensor& y, const Tensor& w) {
  double s = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i)
    s += static_cast<double>(y[i]) * w[i];
  return s;
}

/// Finite-difference gradient check on one parameter tensor.
/// forward() must recompute the module output from current parameter values.
void check_param_grad(Param& p, const std::function<Tensor()>& forward,
                      const Tensor& wout, const Tensor& analytic_grad,
                      int probes, Rng& rng, float tol) {
  for (int k = 0; k < probes; ++k) {
    const std::size_t i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(p.value.size()) - 1));
    const float orig = p.value[i];
    const float eps = 1e-3f;
    p.value[i] = orig + eps;
    const double up = weighted_sum(forward(), wout);
    p.value[i] = orig - eps;
    const double dn = weighted_sum(forward(), wout);
    p.value[i] = orig;
    const double fd = (up - dn) / (2.0 * eps);
    const double an = analytic_grad[i];
    EXPECT_NEAR(an, fd, tol * std::max(1.0, std::abs(fd)))
        << "param index " << i;
  }
}

// -------------------------------------------------------------- Linear ----

TEST(Linear, ForwardMatchesManual) {
  Rng rng(1);
  Linear lin(3, 2, rng);
  lin.w.value.fill(0.5f);
  lin.b.value[0] = 1.0f;
  lin.b.value[1] = -1.0f;
  Tensor x({1, 3});
  x[0] = 1;
  x[1] = 2;
  x[2] = 3;
  const Tensor y = lin.forward(x);
  EXPECT_NEAR(y[0], 0.5f * 6 + 1.0f, 1e-6f);
  EXPECT_NEAR(y[1], 0.5f * 6 - 1.0f, 1e-6f);
}

TEST(Linear, GradientCheck) {
  Rng rng(2);
  Linear lin(5, 4, rng);
  const Tensor x = random_tensor({6, 5}, rng);
  const Tensor wout = random_tensor({6, 4}, rng);

  Tensor y = lin.forward(x);
  Tensor dy = wout;
  lin.w.zero_grad();
  lin.b.zero_grad();
  const Tensor dx = lin.backward(dy);

  auto fwd = [&] { return lin.forward(x); };
  check_param_grad(lin.w, fwd, wout, lin.w.grad, 10, rng, 1e-2f);
  check_param_grad(lin.b, fwd, wout, lin.b.grad, 4, rng, 1e-2f);

  // Input gradient via finite differences on one element.
  Tensor x2 = x;
  const float eps = 1e-3f;
  x2[7] += eps;
  const double up = weighted_sum(lin.forward(x2), wout);
  x2[7] -= 2 * eps;
  const double dn = weighted_sum(lin.forward(x2), wout);
  EXPECT_NEAR(dx[7], (up - dn) / (2 * eps), 1e-2);
}

// ----------------------------------------------------------- LayerNorm ----

TEST(LayerNormLayer, NormalizesRows) {
  Rng rng(3);
  LayerNorm ln(8);
  const Tensor x = random_tensor({4, 8}, rng, 3.0f);
  const Tensor y = ln.forward(x);
  for (std::size_t r = 0; r < 4; ++r) {
    double mean = 0, var = 0;
    for (float v : y.row(r)) mean += v;
    mean /= 8;
    for (float v : y.row(r)) var += (v - mean) * (v - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNormLayer, GradientCheck) {
  Rng rng(4);
  LayerNorm ln(6);
  // Non-trivial gamma/beta.
  for (float& v : ln.gamma.value.flat()) v = rng.uniform(0.5f, 1.5f);
  for (float& v : ln.beta.value.flat()) v = rng.uniform(-0.5f, 0.5f);

  const Tensor x = random_tensor({3, 6}, rng, 2.0f);
  const Tensor wout = random_tensor({3, 6}, rng);

  ln.gamma.zero_grad();
  ln.beta.zero_grad();
  (void)ln.forward(x);
  const Tensor dx = ln.backward(wout);

  auto fwd = [&] { return ln.forward(x); };
  check_param_grad(ln.gamma, fwd, wout, ln.gamma.grad, 6, rng, 2e-2f);
  check_param_grad(ln.beta, fwd, wout, ln.beta.grad, 6, rng, 2e-2f);

  Tensor x2 = x;
  const float eps = 1e-3f;
  for (std::size_t i : {std::size_t{0}, std::size_t{9}, std::size_t{17}}) {
    x2[i] += eps;
    const double up = weighted_sum(ln.forward(x2), wout);
    x2[i] -= 2 * eps;
    const double dn = weighted_sum(ln.forward(x2), wout);
    x2[i] += eps;
    EXPECT_NEAR(dx[i], (up - dn) / (2 * eps), 2e-2) << i;
  }
}

// -------------------------------------------------------------- NoNorm ----

TEST(NoNormLayer, AffineOnly) {
  NoNorm nm(4);
  nm.gamma.value[2] = 3.0f;
  nm.beta.value[2] = 1.0f;
  Tensor x({1, 4});
  x[2] = 2.0f;
  const Tensor y = nm.forward(x);
  EXPECT_EQ(y[2], 7.0f);
  EXPECT_EQ(y[0], 0.0f);
}

TEST(NoNormLayer, GradientCheck) {
  Rng rng(5);
  NoNorm nm(5);
  for (float& v : nm.gamma.value.flat()) v = rng.uniform(0.5f, 1.5f);
  const Tensor x = random_tensor({3, 5}, rng);
  const Tensor wout = random_tensor({3, 5}, rng);

  nm.gamma.zero_grad();
  nm.beta.zero_grad();
  (void)nm.forward(x);
  const Tensor dx = nm.backward(wout);

  auto fwd = [&] { return nm.forward(x); };
  check_param_grad(nm.gamma, fwd, wout, nm.gamma.grad, 5, rng, 1e-2f);
  check_param_grad(nm.beta, fwd, wout, nm.beta.grad, 5, rng, 1e-2f);
  // dx = dy * gamma, exact:
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_NEAR(dx.at(r, j), wout.at(r, j) * nm.gamma.value[j], 1e-6f);
}

// ----------------------------------------------------------- Embedding ----

TEST(EmbeddingLayer, LookupAndScatter) {
  Rng rng(6);
  Embedding emb(10, 4, rng);
  const std::vector<int> ids{3, 7, 3};
  const Tensor y = emb.forward(ids);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(y.at(0, j), emb.table.value.at(3, j));
    EXPECT_EQ(y.at(2, j), emb.table.value.at(3, j));
  }

  Tensor dy({3, 4});
  dy.fill(1.0f);
  emb.table.zero_grad();
  emb.backward(dy);
  // Row 3 used twice -> gradient 2; row 7 once -> 1; others 0.
  EXPECT_EQ(emb.table.grad.at(3, 0), 2.0f);
  EXPECT_EQ(emb.table.grad.at(7, 0), 1.0f);
  EXPECT_EQ(emb.table.grad.at(0, 0), 0.0f);
}

// --------------------------------------------------------- Activations ----

TEST(Activations, GeluGradMatchesFiniteDifference) {
  for (float x : {-3.0f, -1.0f, -0.1f, 0.0f, 0.5f, 2.0f}) {
    const float eps = 1e-3f;
    const float fd = (gelu_exact(x + eps) - gelu_exact(x - eps)) / (2 * eps);
    EXPECT_NEAR(gelu_grad(x), fd, 1e-3f) << x;
  }
}

TEST(Activations, ReluBackwardMasks) {
  Rng rng(7);
  ReluAct relu;
  Tensor x({1, 4});
  x[0] = -1;
  x[1] = 2;
  x[2] = 0;
  x[3] = 3;
  (void)relu.forward(x);
  Tensor dy({1, 4});
  dy.fill(1.0f);
  const Tensor dx = relu.backward(dy);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 1.0f);
  EXPECT_EQ(dx[2], 0.0f);
  EXPECT_EQ(dx[3], 1.0f);
}

// ----------------------------------------------------------- Attention ----

TEST(Attention, OutputShape) {
  Rng rng(8);
  MultiHeadAttention mha(8, 2, rng);
  const Tensor x = random_tensor({6, 8}, rng);  // batch=2, seq=3
  const Tensor y = mha.forward(x, 2, 3);
  EXPECT_EQ(y.dim(0), 6u);
  EXPECT_EQ(y.dim(1), 8u);
}

TEST(Attention, GradientCheck) {
  Rng rng(9);
  MultiHeadAttention mha(8, 2, rng);
  const Tensor x = random_tensor({4, 8}, rng);  // batch=2, seq=2
  const Tensor wout = random_tensor({4, 8}, rng);

  for (Param* p : mha.params()) p->zero_grad();
  (void)mha.forward(x, 2, 2);
  const Tensor dx = mha.backward(wout);

  auto fwd = [&] { return mha.forward(x, 2, 2); };
  check_param_grad(mha.wq.w, fwd, wout, mha.wq.w.grad, 6, rng, 3e-2f);
  check_param_grad(mha.wk.w, fwd, wout, mha.wk.w.grad, 6, rng, 3e-2f);
  check_param_grad(mha.wv.w, fwd, wout, mha.wv.w.grad, 6, rng, 3e-2f);
  check_param_grad(mha.wo.w, fwd, wout, mha.wo.w.grad, 6, rng, 3e-2f);

  // Input gradient probes.
  Tensor x2 = x;
  const float eps = 1e-3f;
  for (std::size_t i : {std::size_t{1}, std::size_t{13}, std::size_t{29}}) {
    x2[i] += eps;
    const double up = weighted_sum(mha.forward(x2, 2, 2), wout);
    x2[i] -= 2 * eps;
    const double dn = weighted_sum(mha.forward(x2, 2, 2), wout);
    x2[i] += eps;
    EXPECT_NEAR(dx[i], (up - dn) / (2 * eps), 3e-2) << i;
  }
}

// -------------------------------------------------------------- Losses ----

TEST(Losses, CrossEntropyUniformLogits) {
  Tensor logits({2, 4});  // all zeros -> uniform
  const std::vector<int> labels{1, 3};
  const LossResult r = cross_entropy(logits, labels);
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-5);
  // Gradient: (softmax - onehot) / n.
  EXPECT_NEAR(r.dlogits.at(0, 1), (0.25f - 1.0f) / 2.0f, 1e-5f);
  EXPECT_NEAR(r.dlogits.at(0, 0), 0.25f / 2.0f, 1e-5f);
}

TEST(Losses, CrossEntropyIgnoresNegativeLabels) {
  Tensor logits({2, 3});
  const std::vector<int> labels{-1, 2};
  const LossResult r = cross_entropy(logits, labels);
  EXPECT_NEAR(r.loss, std::log(3.0), 1e-5);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(r.dlogits.at(0, j), 0.0f);
}

TEST(Losses, CrossEntropyGradientCheck) {
  Rng rng(10);
  Tensor logits = random_tensor({3, 5}, rng);
  const std::vector<int> labels{0, 2, 4};
  const LossResult r = cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{14}}) {
    Tensor l2 = logits;
    l2[i] += eps;
    const double up = cross_entropy(l2, labels).loss;
    l2[i] -= 2 * eps;
    const double dn = cross_entropy(l2, labels).loss;
    EXPECT_NEAR(r.dlogits[i], (up - dn) / (2 * eps), 1e-3) << i;
  }
}

TEST(Losses, MseGradient) {
  Tensor logits({2, 1});
  logits[0] = 1.0f;
  logits[1] = -2.0f;
  const std::vector<float> targets{0.0f, 0.0f};
  const LossResult r = mse(logits, targets);
  EXPECT_NEAR(r.loss, 0.5 * (1.0 + 4.0) / 2.0, 1e-6);
  EXPECT_NEAR(r.dlogits[0], 0.5f, 1e-6f);
  EXPECT_NEAR(r.dlogits[1], -1.0f, 1e-6f);
}

TEST(Losses, ArgmaxRows) {
  Tensor logits({2, 3});
  logits.at(0, 2) = 5.0f;
  logits.at(1, 0) = 1.0f;
  const auto am = argmax_rows(logits);
  EXPECT_EQ(am[0], 2);
  EXPECT_EQ(am[1], 0);
}

// ---------------------------------------------------------------- Adam ----

TEST(AdamOptimizer, ConvergesOnLeastSquares) {
  // Fit y = 2x + 1 with a 1-D linear layer.
  Rng rng(11);
  Linear lin(1, 1, rng);
  Adam::Options opt;
  opt.lr = 0.05f;
  Adam adam(lin.params(), opt);

  for (int step = 0; step < 500; ++step) {
    Tensor x({8, 1});
    for (std::size_t i = 0; i < 8; ++i) x[i] = rng.uniform(-1.0f, 1.0f);
    const Tensor y = lin.forward(x);
    std::vector<float> targets(8);
    for (std::size_t i = 0; i < 8; ++i) targets[i] = 2.0f * x[i] + 1.0f;
    const LossResult r = mse(y, targets);
    adam.zero_grad();
    (void)lin.backward(r.dlogits);
    adam.step();
  }
  EXPECT_NEAR(lin.w.value[0], 2.0f, 0.05f);
  EXPECT_NEAR(lin.b.value[0], 1.0f, 0.05f);
}

TEST(AdamOptimizer, GradClipBoundsStep) {
  Rng rng(12);
  Linear lin(1, 1, rng);
  const float w0 = lin.w.value[0];
  Adam::Options opt;
  opt.lr = 0.1f;
  opt.grad_clip = 1e-6f;  // absurdly tight clip -> nearly frozen
  Adam adam(lin.params(), opt);
  lin.w.grad[0] = 1000.0f;
  adam.step();
  // Adam normalizes by sqrt(v), so the step magnitude is ~lr regardless;
  // the clip keeps the *direction* stable. Just check no explosion.
  EXPECT_NEAR(lin.w.value[0], w0, 0.2f);
}

// ---------------------------------------------- Lazily sized gradients ----

transformer::TaskModel small_task_model(Rng& rng) {
  transformer::ModelConfig cfg;
  cfg.vocab = 16;
  cfg.hidden = 8;
  cfg.layers = 1;
  cfg.heads = 2;
  cfg.ffn = 16;
  cfg.max_seq = 6;
  return transformer::TaskModel(cfg, transformer::HeadKind::kClassify, 2, rng);
}

/// True when `p.grad` has `p.value`'s shape and holds only zeros.
bool grad_sized_and_zero(const Param& p) {
  if (p.grad.shape() != p.value.shape()) return false;
  for (const float g : p.grad.flat())
    if (g != 0.0f) return false;
  return true;
}

TEST(ParamGrad, FreshModelHoldsNoGradients) {
  // A model that only runs forward (inference, serving) must not pay for a
  // second copy of its weights.
  Rng rng(21);
  transformer::TaskModel model = small_task_model(rng);
  const std::vector<Param*> params = model.params();
  ASSERT_FALSE(params.empty());
  for (const Param* p : params) {
    EXPECT_FALSE(p->value.empty());
    EXPECT_TRUE(p->grad.empty());
  }
  transformer::BatchInput in;
  in.batch = 1;
  in.seq = 4;
  in.token_ids = {1, 2, 3, 4};
  in.type_ids.assign(4, 0);
  (void)model.forward(in);
  for (const Param* p : params) EXPECT_TRUE(p->grad.empty());
}

TEST(ParamGrad, ZeroGradSizesZeroFilled) {
  Rng rng(22);
  transformer::TaskModel model = small_task_model(rng);
  for (Param* p : model.params()) {
    EXPECT_TRUE(p->grad.empty());
    p->zero_grad();
    EXPECT_TRUE(grad_sized_and_zero(*p));
  }
}

TEST(ParamGrad, FirstBackwardSizesEveryWrittenGradient) {
  Rng rng(23);
  transformer::TaskModel model = small_task_model(rng);
  transformer::BatchInput in;
  in.batch = 2;
  in.seq = 3;
  in.token_ids = {1, 2, 3, 4, 5, 6};
  in.type_ids.assign(6, 0);
  const Tensor logits = model.forward(in);
  Tensor dlogits(logits.shape());
  dlogits.fill(1.0f);
  for (const Param* p : model.params()) EXPECT_TRUE(p->grad.empty());
  model.backward(dlogits);
  for (const Param* p : model.params())
    EXPECT_EQ(p->grad.shape(), p->value.shape());

  // The first backward accumulates into zeros: a Linear's gradient equals
  // the one it gets after an explicit zero_grad.
  Linear lazy(3, 2, rng);
  Linear eager = lazy;
  eager.w.zero_grad();
  eager.b.zero_grad();
  const Tensor x = random_tensor({4, 3}, rng);
  const Tensor dy = random_tensor({4, 2}, rng);
  (void)lazy.forward(x);
  (void)eager.forward(x);
  (void)lazy.backward(dy);
  (void)eager.backward(dy);
  for (std::size_t i = 0; i < lazy.w.grad.size(); ++i)
    EXPECT_EQ(lazy.w.grad[i], eager.w.grad[i]) << i;
  for (std::size_t i = 0; i < lazy.b.grad.size(); ++i)
    EXPECT_EQ(lazy.b.grad[i], eager.b.grad[i]) << i;
}

TEST(ParamGrad, AdamConstructorSizesZeroFilled) {
  Rng rng(24);
  transformer::TaskModel model = small_task_model(rng);
  for (const Param* p : model.params()) EXPECT_TRUE(p->grad.empty());
  const Adam adam(model.params(), Adam::Options{});
  for (const Param* p : model.params()) EXPECT_TRUE(grad_sized_and_zero(*p));
}

}  // namespace
}  // namespace nnlut::nn

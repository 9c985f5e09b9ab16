#include "nn/optimizer.h"

#include <cmath>

namespace nnlut::nn {

Adam::Adam(std::vector<Param*> params, Options opt)
    : params_(std::move(params)), opt_(opt) {
  m1_.reserve(params_.size());
  m2_.reserve(params_.size());
  for (Param* p : params_) {
    // Sized with the moments, so callers may write p->grad right away.
    p->ensure_grad();
    m1_.emplace_back(p->value.shape());
    m2_.emplace_back(p->value.shape());
  }
}

void Adam::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

void Adam::step() {
  ++t_;

  float scale = 1.0f;
  if (opt_.grad_clip > 0.0f) {
    double norm_sq = 0.0;
    for (Param* p : params_)
      for (float g : p->ensure_grad().flat())
        norm_sq += static_cast<double>(g) * g;
    const float norm = static_cast<float>(std::sqrt(norm_sq));
    if (norm > opt_.grad_clip) scale = opt_.grad_clip / norm;
  }

  const float c1 = 1.0f - std::pow(opt_.beta1, static_cast<float>(t_));
  const float c2 = 1.0f - std::pow(opt_.beta2, static_cast<float>(t_));

  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    auto w = p.value.flat();
    auto g = p.ensure_grad().flat();
    auto m = m1_[i].flat();
    auto v = m2_[i].flat();
    for (std::size_t j = 0; j < w.size(); ++j) {
      float gj = g[j] * scale;
      if (opt_.weight_decay > 0.0f) gj += opt_.weight_decay * w[j];
      m[j] = opt_.beta1 * m[j] + (1 - opt_.beta1) * gj;
      v[j] = opt_.beta2 * v[j] + (1 - opt_.beta2) * gj * gj;
      const float mh = m[j] / c1;
      const float vh = v[j] / c2;
      w[j] -= opt_.lr * mh / (std::sqrt(vh) + opt_.eps);
    }
  }
}

}  // namespace nnlut::nn

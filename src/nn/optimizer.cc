#include "nn/optimizer.h"

#include <cmath>

namespace nlidb {
namespace nn {

float ClipGradNorm(const std::vector<Var>& params, float max_norm) {
  float total = 0.0f;
  for (const auto& p : params) {
    if (p->grad.empty()) continue;
    const float n = p->grad.Norm2();
    total += n * n;
  }
  total = std::sqrt(total);
  if (total > max_norm && total > 0.0f) {
    const float scale = max_norm / total;
    for (const auto& p : params) {
      if (!p->grad.empty()) p->grad.Scale(scale);
    }
  }
  return total;
}

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.push_back(Tensor::Zeros(p->value.shape()));
    v_.push_back(Tensor::Zeros(p->value.shape()));
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Var& p = params_[i];
    if (p->grad.empty()) continue;
    auto& g = p->grad.vec();
    auto& m = m_[i].vec();
    auto& v = v_[i].vec();
    auto& w = p->value.vec();
    for (size_t j = 0; j < g.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace nn
}  // namespace nlidb

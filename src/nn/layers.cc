#include "nn/layers.h"

#include "common/logging.h"

namespace nlidb {
namespace nn {

Linear::Linear(int in_features, int out_features, Rng& rng, bool use_bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = MakeVar(Tensor::Xavier(in_features, out_features, rng),
                    /*requires_grad=*/true);
  if (use_bias) {
    bias_ = MakeVar(Tensor::Zeros({out_features}), /*requires_grad=*/true);
  }
}

Var Linear::Forward(const Var& x) const {
  NLIDB_CHECK(x->value.rank() == 2 && x->value.cols() == in_features_)
      << "Linear input shape mismatch: got cols=" << x->value.cols()
      << " want " << in_features_;
  Var y = ops::MatMul(x, weight_);
  if (bias_) y = ops::AddRowBroadcast(y, bias_);
  return y;
}

void Linear::Infer(const float* x, int m, float* out) const {
  GemmAccumulateRaw(x, weight_->value.data(), out, m, in_features_,
                    out_features_);
  if (!bias_) return;
  const float* b = bias_->value.data();
  for (int i = 0; i < m; ++i) {
    float* row = out + static_cast<size_t>(i) * out_features_;
    for (int j = 0; j < out_features_; ++j) row[j] += b[j];
  }
}

void Linear::CollectParameters(std::vector<Var>* out) const {
  out->push_back(weight_);
  if (bias_) out->push_back(bias_);
}

Embedding::Embedding(int vocab_size, int dim, Rng& rng, float init_stddev)
    : vocab_size_(vocab_size), dim_(dim) {
  table_ = MakeVar(Tensor::Gaussian({vocab_size, dim}, init_stddev, rng),
                   /*requires_grad=*/true);
}

Var Embedding::Forward(const std::vector<int>& indices) const {
  return ops::EmbeddingLookup(table_, indices);
}

void Embedding::SetRow(int index, const std::vector<float>& vec) {
  NLIDB_CHECK(index >= 0 && index < vocab_size_) << "SetRow index";
  NLIDB_CHECK(static_cast<int>(vec.size()) == dim_) << "SetRow dim";
  for (int j = 0; j < dim_; ++j) table_->value(index, j) = vec[j];
}

void Embedding::CollectParameters(std::vector<Var>* out) const {
  out->push_back(table_);
}

Mlp::Mlp(const std::vector<int>& dims, Rng& rng) {
  NLIDB_CHECK(dims.size() >= 2) << "Mlp needs at least {in, out} dims";
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
  }
}

Var Mlp::Forward(const Var& x) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) h = ops::Relu(h);
  }
  return h;
}

std::vector<float*> Mlp::Infer(const float* x, int rows, Workspace& ws) const {
  std::vector<float*> outputs;
  const float* in = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const int width = layers_[i]->out_features();
    float* out = ws.Floats(static_cast<size_t>(rows) * width);
    layers_[i]->Infer(in, rows, out);
    if (i + 1 < layers_.size()) {
      for (size_t j = 0; j < static_cast<size_t>(rows) * width; ++j) {
        out[j] = out[j] > 0.0f ? out[j] : 0.0f;  // ops::Relu
      }
    }
    outputs.push_back(out);
    in = out;
  }
  return outputs;
}

void Mlp::CollectParameters(std::vector<Var>* out) const {
  for (const auto& layer : layers_) layer->CollectParameters(out);
}

}  // namespace nn
}  // namespace nlidb

#include "nn/char_cnn.h"

#include "common/logging.h"

namespace nlidb {
namespace nn {

CharCnnEmbedder::CharCnnEmbedder(int char_vocab_size, int char_dim,
                                 int per_width_dim, std::vector<int> widths,
                                 Rng& rng)
    : char_dim_(char_dim),
      per_width_dim_(per_width_dim),
      widths_(std::move(widths)) {
  NLIDB_CHECK(!widths_.empty()) << "CharCnnEmbedder needs widths";
  char_embedding_ =
      std::make_unique<Embedding>(char_vocab_size, char_dim, rng);
  for (int k : widths_) {
    conv_weights_.push_back(MakeVar(
        Tensor::Xavier(k * char_dim, per_width_dim, rng), /*requires_grad=*/true));
    conv_biases_.push_back(
        MakeVar(Tensor::Zeros({per_width_dim}), /*requires_grad=*/true));
  }
}

Var CharCnnEmbedder::EmbedChars(const std::vector<int>& char_ids) const {
  NLIDB_CHECK(!char_ids.empty()) << "EmbedChars of empty word";
  return char_embedding_->Forward(char_ids);
}

Var CharCnnEmbedder::Forward(const std::vector<int>& char_ids) const {
  const Var char_matrix = EmbedChars(char_ids);
  std::vector<Var> parts;
  parts.reserve(widths_.size());
  for (size_t w = 0; w < widths_.size(); ++w) {
    parts.push_back(ops::Conv1dMean(char_matrix, conv_weights_[w],
                                    conv_biases_[w], widths_[w]));
  }
  return ops::ConcatCols(parts);
}

void CharCnnEmbedder::CollectParameters(std::vector<Var>* out) const {
  char_embedding_->CollectParameters(out);
  for (size_t w = 0; w < widths_.size(); ++w) {
    out->push_back(conv_weights_[w]);
    out->push_back(conv_biases_[w]);
  }
}

}  // namespace nn
}  // namespace nlidb

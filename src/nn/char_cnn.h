#ifndef NLIDB_NN_CHAR_CNN_H_
#define NLIDB_NN_CHAR_CNN_H_

#include <memory>
#include <vector>

#include "nn/layers.h"

namespace nlidb {
namespace nn {

/// Character-level word representation E^char(w) (paper Sec. IV-B, Fig. 4).
///
/// Characters are embedded via a shared table; for each convolution width
/// k in `widths`, a one-dimensional convolution projects every width-k
/// slice of the character matrix and the slice outputs are element-wise
/// averaged. The per-width outputs are concatenated:
///   E^char(w) = [E_3(w), E_4(w), ..., E_7(w)].
class CharCnnEmbedder : public Module {
 public:
  /// `per_width_dim` is the convolution output dimension for each width;
  /// the final representation has `widths.size() * per_width_dim` columns.
  CharCnnEmbedder(int char_vocab_size, int char_dim, int per_width_dim,
                  std::vector<int> widths, Rng& rng);

  /// Maps one word's character ids to its [1, output_dim] representation.
  Var Forward(const std::vector<int>& char_ids) const;

  /// Embeds character ids without convolving: [len, char_dim].
  Var EmbedChars(const std::vector<int>& char_ids) const;

  void CollectParameters(std::vector<Var>* out) const override;

  int output_dim() const {
    return static_cast<int>(widths_.size()) * per_width_dim_;
  }
  int char_dim() const { return char_dim_; }

  /// Component access for graph-free inference (read-only): the
  /// character table and, per width index w, the convolution weight
  /// [widths()[w] * char_dim, per_width_dim] and bias.
  const Embedding& char_embedding() const { return *char_embedding_; }
  const std::vector<int>& widths() const { return widths_; }
  const Var& conv_weight(int w) const { return conv_weights_[w]; }
  const Var& conv_bias(int w) const { return conv_biases_[w]; }

 private:
  int char_dim_;
  int per_width_dim_;
  std::vector<int> widths_;
  std::unique_ptr<Embedding> char_embedding_;  // shared across widths
  std::vector<Var> conv_weights_;              // per width: [k*char_dim, out]
  std::vector<Var> conv_biases_;               // per width: [out]
};

}  // namespace nn
}  // namespace nlidb

#endif  // NLIDB_NN_CHAR_CNN_H_

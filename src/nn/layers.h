#ifndef NLIDB_NN_LAYERS_H_
#define NLIDB_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "common/workspace.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace nlidb {
namespace nn {

/// Affine transformation y = x W + b for x of shape [m, in].
class Linear : public Module {
 public:
  /// Xavier-initialized weights; zero bias. `use_bias` = false gives a
  /// pure linear map (used for attention score projections).
  Linear(int in_features, int out_features, Rng& rng, bool use_bias = true);

  /// [m, in] -> [m, out].
  Var Forward(const Var& x) const;

  /// Forward without a graph, for inference: out[m, out] += x[m, in] W,
  /// then the bias. With `out` zeroed, each row is bitwise equal to
  /// Forward of that row alone.
  void Infer(const float* x, int m, float* out) const;

  void CollectParameters(std::vector<Var>* out) const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const Var& weight() const { return weight_; }
  const Var& bias() const { return bias_; }

 private:
  int in_features_;
  int out_features_;
  Var weight_;  // [in, out]
  Var bias_;    // [out] (null when use_bias = false)
};

/// Token-id to dense-vector lookup table.
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, Rng& rng, float init_stddev = 0.1f);

  /// indices -> [n, dim]. Gradients scatter-add into the table.
  Var Forward(const std::vector<int>& indices) const;

  /// Overwrites row `index` with `vec` (used to load pre-trained vectors).
  void SetRow(int index, const std::vector<float>& vec);

  void CollectParameters(std::vector<Var>* out) const override;

  int vocab_size() const { return vocab_size_; }
  int dim() const { return dim_; }
  const Var& table() const { return table_; }

 private:
  int vocab_size_;
  int dim_;
  Var table_;  // [vocab, dim]
};

/// Multi-layer perceptron with ReLU between layers and a linear head.
class Mlp : public Module {
 public:
  /// `dims` = {in, hidden..., out}; requires at least {in, out}.
  Mlp(const std::vector<int>& dims, Rng& rng);

  Var Forward(const Var& x) const;

  /// Forward without a graph over `rows` inputs stacked in x [rows, in]:
  /// each row is bitwise equal to Forward of that row alone. Returns
  /// every layer's output ([rows, width], after the ReLU for hidden
  /// layers) in `ws` buffers; the last one is the network's output.
  std::vector<float*> Infer(const float* x, int rows, Workspace& ws) const;

  void CollectParameters(std::vector<Var>* out) const override;

  int num_layers() const { return static_cast<int>(layers_.size()); }
  const Linear& layer(int l) const { return *layers_[l]; }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace nn
}  // namespace nlidb

#endif  // NLIDB_NN_LAYERS_H_

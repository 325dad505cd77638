#ifndef NLIDB_NN_OPTIMIZER_H_
#define NLIDB_NN_OPTIMIZER_H_

#include <vector>

#include "tensor/autograd.h"

namespace nlidb {
namespace nn {

/// Rescales gradients in place so their global L2 norm is at most
/// `max_norm` (the paper trains with clipping threshold 5.0). Returns the
/// pre-clip global norm.
float ClipGradNorm(const std::vector<Var>& params, float max_norm);

/// Adam (Kingma & Ba) with bias correction, over a fixed parameter list.
class Adam {
 public:
  Adam(std::vector<Var> params, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the gradients currently stored on params.
  void Step();

  /// Zeroes all parameter gradients.
  void ZeroGrad() { nlidb::ZeroGrad(params_); }

  const std::vector<Var>& params() const { return params_; }

 private:
  std::vector<Var> params_;
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace nn
}  // namespace nlidb

#endif  // NLIDB_NN_OPTIMIZER_H_

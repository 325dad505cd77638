#ifndef NLIDB_NN_MODULE_H_
#define NLIDB_NN_MODULE_H_

#include <vector>

#include "tensor/autograd.h"

namespace nlidb {
namespace nn {

/// Base class for trainable network components.
///
/// A Module owns its parameter `Var`s (created with requires_grad = true)
/// and exposes them through `CollectParameters` so optimizers and
/// checkpointing can walk the whole model. Parameter traversal order must
/// be deterministic — checkpoints are order-based.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Appends this module's trainable parameters to `out` in a fixed order.
  virtual void CollectParameters(std::vector<Var>* out) const = 0;

  /// Convenience wrapper over CollectParameters.
  std::vector<Var> Parameters() const {
    std::vector<Var> out;
    CollectParameters(&out);
    return out;
  }
};

}  // namespace nn
}  // namespace nlidb

#endif  // NLIDB_NN_MODULE_H_

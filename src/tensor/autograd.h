#ifndef NLIDB_TENSOR_AUTOGRAD_H_
#define NLIDB_TENSOR_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace nlidb {

/// Reverse-mode automatic differentiation over `Tensor`s.
///
/// A computation builds a dynamic DAG of `AutogradNode`s (one per op
/// output). `Backward(root)` topologically sorts the DAG and runs each
/// node's backward closure, accumulating gradients into `grad` fields.
/// Graphs are rebuilt per example (define-by-run), exactly like the
/// PyTorch programs the paper's models were written in.
class AutogradNode {
 public:
  Tensor value;
  Tensor grad;  // allocated lazily to value's shape on first accumulation
  bool requires_grad = false;
  std::vector<std::shared_ptr<AutogradNode>> parents;
  /// Accumulates into parents' grads given this node's grad. Null for leaves.
  std::function<void(AutogradNode&)> backward_fn;

  /// Ensures `grad` is allocated (zero) with value's shape.
  Tensor& EnsureGrad();
};

using Var = std::shared_ptr<AutogradNode>;

/// Wraps a tensor as a graph leaf. Parameters pass requires_grad = true.
Var MakeVar(Tensor value, bool requires_grad = false);

/// Runs reverse-mode differentiation from `root`, seeding d(root)/d(root)
/// with ones (for scalar losses root is [1]). Safe to call on any graph;
/// nodes without requires_grad in their ancestry are skipped. Backward
/// writes the gradients of the parameters the graph reads, so it runs
/// only in training, one graph at a time per model; inference
/// differentiates by hand (core/column_mention_fast.cc).
void Backward(const Var& root);

/// Clears gradients on the given variables (typically parameters between
/// steps; graph intermediates are freed with the graph).
void ZeroGrad(const std::vector<Var>& vars);

}  // namespace nlidb

#endif  // NLIDB_TENSOR_AUTOGRAD_H_

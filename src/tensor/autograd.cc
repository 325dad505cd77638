#include "tensor/autograd.h"

#include <unordered_set>

#include "common/logging.h"

namespace nlidb {

Tensor& AutogradNode::EnsureGrad() {
  if (grad.shape() != value.shape()) {
    grad = Tensor::Zeros(value.shape());
  }
  return grad;
}

Var MakeVar(Tensor value, bool requires_grad) {
  auto node = std::make_shared<AutogradNode>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return node;
}

namespace {

// Iterative post-order DFS; recursion would overflow on long RNN chains.
void TopoSort(const Var& root, std::vector<AutogradNode*>& order) {
  std::unordered_set<AutogradNode*> visited;
  std::vector<std::pair<AutogradNode*, size_t>> stack;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      AutogradNode* child = node->parents[next_child].get();
      ++next_child;
      if (child != nullptr && visited.insert(child).second) {
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Var& root) {
  NLIDB_CHECK(root != nullptr) << "Backward on null var";
  std::vector<AutogradNode*> order;
  TopoSort(root, order);
  // Mark which nodes need gradients: a node needs a gradient if it is a
  // requires_grad leaf or any ancestor-path reaches one. Since `order` is
  // post-order (parents before children in the vector), propagate forward.
  for (AutogradNode* node : order) {
    if (!node->requires_grad) {
      for (const auto& p : node->parents) {
        if (p && p->requires_grad) {
          node->requires_grad = true;
          break;
        }
      }
    }
  }
  if (!root->requires_grad) return;
  root->EnsureGrad().Fill(1.0f);
  // Reverse topological order: children (outputs) before parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    AutogradNode* node = *it;
    if (node->requires_grad && node->backward_fn) {
      node->backward_fn(*node);
    }
  }
}

void ZeroGrad(const std::vector<Var>& vars) {
  for (const auto& v : vars) {
    if (v && !v->grad.empty()) v->grad.Fill(0.0f);
  }
}

}  // namespace nlidb

#ifndef NLIDB_TENSOR_OPS_H_
#define NLIDB_TENSOR_OPS_H_

#include <vector>

#include "tensor/autograd.h"

namespace nlidb {
/// Differentiable tensor operations. Each function appends one node to the
/// autograd DAG. Unless stated otherwise, rank-2 operands are expected and
/// shapes are validated with process-fatal checks (shape errors are
/// programming errors, not runtime conditions).
namespace ops {

/// Matrix product: [m,k] x [k,n] -> [m,n].
Var MatMul(const Var& a, const Var& b);

/// Elementwise sum of same-shape tensors.
Var Add(const Var& a, const Var& b);

/// Elementwise difference of same-shape tensors.
Var Sub(const Var& a, const Var& b);

/// Elementwise (Hadamard) product of same-shape tensors.
Var Mul(const Var& a, const Var& b);

/// Adds rank-1 (or [1,n]) `bias` to every row of [m,n] `a`.
Var AddRowBroadcast(const Var& a, const Var& bias);

/// Multiplies every entry by the constant `s`.
Var ScalarMul(const Var& a, float s);

/// Elementwise activations.
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
/// exp(min(x, 20)): clamped to keep the copy-mechanism scores finite.
Var Exp(const Var& a);

/// Row-wise softmax of [m,n].
Var SoftmaxRows(const Var& a);

/// Transpose of a rank-2 tensor.
Var Transpose(const Var& a);

/// Concatenates [m, n_i] blocks along columns -> [m, sum n_i].
Var ConcatCols(const std::vector<Var>& parts);

/// Concatenates [m_i, n] blocks along rows -> [sum m_i, n].
Var ConcatRows(const std::vector<Var>& parts);

/// Copies row `i` of [m,n] into a [1,n] tensor (differentiable slice).
Var PickRow(const Var& a, int i);

/// Copies columns [start, start+len) of [m,n] into [m,len].
Var SliceCols(const Var& a, int start, int len);

/// Row-wise max of [m,n] -> [m,1]; gradient flows to each row's argmax.
Var RowMax(const Var& a);

/// Row-wise mean of [m,n] -> [m,1].
Var RowMean(const Var& a);

/// Sum of all entries -> [1].
Var SumAll(const Var& a);

/// Gathers rows of `weight` ([vocab, d]) at `indices` -> [n, d].
/// Backward scatter-adds into the weight gradient (sparse update).
Var EmbeddingLookup(const Var& weight, const std::vector<int>& indices);

/// 1-D convolution over a [len, d_in] sequence with kernel width `k`
/// followed by elementwise average over all slice outputs -> [1, d_out].
/// `weight` is [k*d_in, d_out], `bias` is [d_out]. The input is
/// zero-padded so at least one slice exists (paper Sec. IV-B, Fig. 4).
Var Conv1dMean(const Var& input, const Var& weight, const Var& bias, int k);

/// Per-row layer normalization with learnable gain/bias:
///   y_ij = gain_j * (x_ij - mean_i) / sqrt(var_i + eps) + bias_j.
Var LayerNormRows(const Var& a, const Var& gain, const Var& bias);

/// Scatter-add of a [1,n] score row into a [1,width] vector at the given
/// column indices (duplicates accumulate). Used by the copy mechanism to
/// route attention energies onto vocabulary positions.
Var ScatterSumCols(const Var& values, const std::vector<int>& col_indices,
                   int width);

/// Binary cross-entropy with logits for a single [1,1] logit -> [1] loss.
Var BceWithLogits(const Var& logit, float target);

/// -log softmax(logits)[index] for [1,n] logits -> [1] loss.
Var CrossEntropyWithLogits(const Var& logits, int index);

/// -log(scores[index] / sum(scores)) for a [1,n] row of positive scores.
/// This is the loss used with the paper's additive copy mechanism, where
/// scores = exp(decoder logits) + copy mass (already exponentiated).
Var NegLogNormalized(const Var& scores, int index);

}  // namespace ops
}  // namespace nlidb

#endif  // NLIDB_TENSOR_OPS_H_

#ifndef NLIDB_TENSOR_TENSOR_H_
#define NLIDB_TENSOR_TENSOR_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.h"

namespace nlidb {

/// A dense row-major float tensor.
///
/// This is the numeric substrate for the from-scratch neural network stack
/// (the paper used PyTorch-class frameworks; none is available offline, so
/// the library ships its own — see DESIGN.md "Substitutions").
/// Rank 1 and rank 2 cover every model in the paper; rank-3 is supported
/// for batched intermediates.
class Tensor {
 public:
  /// An empty (rank-0, zero-element) tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int> shape);

  /// Tensor with explicit contents; `data.size()` must equal the product
  /// of `shape`.
  Tensor(std::vector<int> shape, std::vector<float> data);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  /// Factory helpers.
  static Tensor Zeros(std::vector<int> shape);
  static Tensor Ones(std::vector<int> shape);
  static Tensor Full(std::vector<int> shape, float value);
  /// I.i.d. N(0, stddev^2) entries.
  static Tensor Gaussian(std::vector<int> shape, float stddev, Rng& rng);
  /// I.i.d. U(lo, hi) entries.
  static Tensor Uniform(std::vector<int> shape, float lo, float hi, Rng& rng);
  /// Xavier/Glorot uniform init for a [fan_in, fan_out] weight matrix.
  static Tensor Xavier(int fan_in, int fan_out, Rng& rng);
  /// Rank-1 tensor from values.
  static Tensor FromVector(const std::vector<float>& values);

  const std::vector<int>& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Dimension `d` of the shape. Requires d < rank().
  int dim(int d) const { return shape_[d]; }
  /// Rank-2 conveniences. Require rank() == 2.
  int rows() const { return shape_[0]; }
  int cols() const { return shape_[1]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  /// Element access. Bounds are checked with NLIDB_CHECK in at(); the
  /// operator() variants are unchecked hot-path accessors.
  float& operator()(int i) { return data_[i]; }
  float operator()(int i) const { return data_[i]; }
  float& operator()(int i, int j) { return data_[i * shape_[1] + j]; }
  float operator()(int i, int j) const { return data_[i * shape_[1] + j]; }
  float& at(int i, int j);
  float at(int i, int j) const;

  /// Whole-tensor in-place operations.
  void Fill(float value);
  void Scale(float factor);
  /// this += other. Shapes must match exactly.
  void Add(const Tensor& other);
  /// this += factor * other. Shapes must match exactly.
  void Axpy(float factor, const Tensor& other);

  /// Reductions.
  float Sum() const;
  float Max() const;
  float AbsMax() const;
  /// L2 norm of all entries.
  float Norm2() const;
  /// Lp norm (p >= 1) of all entries.
  float NormP(float p) const;

  /// Returns a copy of row `i` (rank-2 only) as a rank-1 tensor.
  Tensor Row(int i) const;
  /// Overwrites row `i` with `row` (rank-2 only; row.size() == cols()).
  void SetRow(int i, const Tensor& row);

  /// Reshape without copying data; product of new shape must equal size().
  Tensor Reshaped(std::vector<int> new_shape) const;
  /// Transpose of a rank-2 tensor.
  Tensor Transposed() const;

  /// True when shapes are equal and all entries differ by at most `tol`.
  bool AllClose(const Tensor& other, float tol = 1e-5f) const;

  /// Compact debug string: "Tensor[2x3]{1, 2, ...}".
  std::string ToString(int max_entries = 8) const;

 private:
  std::vector<int> shape_;
  std::vector<float> data_;
};

/// out = a * b for rank-2 tensors ([m,k] x [k,n] -> [m,n]).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// out += a * b. `out` must already be [m,n].
///
/// All three accumulate kernels are register-blocked and tiled, and run
/// on the calling thread. Every output element receives its k partial
/// products in increasing-k order no matter which path runs, so results
/// are bitwise identical to the scalar reference kernel — tiling never
/// changes model outputs (DESIGN.md "Performance architecture").
void MatMulAccumulate(const Tensor& a, const Tensor& b, Tensor& out);
/// Raw-pointer form of MatMulAccumulate: out[m,n] += a[m,k] * b[k,n].
/// Same kernel dispatch (ISA tier, counters), for callers that stage
/// operands in Workspace arena buffers instead of Tensors (the decoder
/// inference fast path). The bitwise-determinism contract above applies
/// unchanged.
void GemmAccumulateRaw(const float* a, const float* b, float* out, int m,
                       int k, int n);

/// out[i] = tanh(in[i]) for i in [0, n); `in == out` is allowed. Runs the
/// active tier's tanh kernel (gemm_kernels.h): fdlibm's tanhf, the
/// algorithm glibc ships, bit for bit on both tiers and without calling
/// libm. Every tanh in the model goes through here, so training,
/// reference and fast decoding round identically on any machine.
void TanhRaw(const float* in, float* out, int n);

/// out += a^T * b ([k,m]^T x [k,n] -> [m,n]). When `a` is mostly zeros
/// (sparse activation gradients: zero-padded feature slots, ReLU outputs,
/// embedding-style one-hots), a skip-on-zero path is used instead of the
/// dense tiles; both paths produce bitwise-identical results.
void MatMulTransposeAAccumulate(const Tensor& a, const Tensor& b, Tensor& out);
/// out += a * b^T ([m,k] x [n,k]^T -> [m,n]).
void MatMulTransposeBAccumulate(const Tensor& a, const Tensor& b, Tensor& out);

/// Scalar reference kernels (the seed's naive loops, kept in their own
/// translation unit with baseline compile flags). Used by tests to verify
/// the tiled kernels bitwise and by bench_micro_substrate to report
/// speedup against the seed implementation.
void MatMulAccumulateReference(const Tensor& a, const Tensor& b, Tensor& out);
void MatMulTransposeAAccumulateReference(const Tensor& a, const Tensor& b,
                                         Tensor& out);
void MatMulTransposeBAccumulateReference(const Tensor& a, const Tensor& b,
                                         Tensor& out);

size_t NumElements(const std::vector<int>& shape);

}  // namespace nlidb

#endif  // NLIDB_TENSOR_TENSOR_H_

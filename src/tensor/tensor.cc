#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "tensor/gemm_kernels.h"

namespace nlidb {

size_t NumElements(const std::vector<int>& shape) {
  size_t n = 1;
  for (int d : shape) {
    NLIDB_CHECK(d >= 0) << "negative dimension " << d;
    n *= static_cast<size_t>(d);
  }
  return n;
}

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(NumElements(shape_), 0.0f) {}

Tensor::Tensor(std::vector<int> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  NLIDB_CHECK(data_.size() == NumElements(shape_))
      << "shape/data mismatch: " << data_.size() << " elements vs shape "
      << NumElements(shape_);
}

Tensor Tensor::Zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Ones(std::vector<int> shape) {
  Tensor t(std::move(shape));
  t.Fill(1.0f);
  return t;
}

Tensor Tensor::Full(std::vector<int> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Gaussian(std::vector<int> shape, float stddev, Rng& rng) {
  Tensor t(std::move(shape));
  for (float& x : t.data_) x = stddev * rng.NextGaussian();
  return t;
}

Tensor Tensor::Uniform(std::vector<int> shape, float lo, float hi, Rng& rng) {
  Tensor t(std::move(shape));
  for (float& x : t.data_) x = rng.NextFloat(lo, hi);
  return t;
}

Tensor Tensor::Xavier(int fan_in, int fan_out, Rng& rng) {
  float bound = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return Uniform({fan_in, fan_out}, -bound, bound, rng);
}

float& Tensor::at(int i, int j) {
  NLIDB_CHECK(rank() == 2 && i >= 0 && i < rows() && j >= 0 && j < cols())
      << "at(" << i << "," << j << ") out of bounds";
  return (*this)(i, j);
}

float Tensor::at(int i, int j) const {
  NLIDB_CHECK(rank() == 2 && i >= 0 && i < rows() && j >= 0 && j < cols())
      << "at(" << i << "," << j << ") out of bounds";
  return (*this)(i, j);
}

void Tensor::Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Tensor::Scale(float factor) {
  for (float& x : data_) x *= factor;
}

void Tensor::Add(const Tensor& other) {
  NLIDB_CHECK(shape_ == other.shape_) << "Add shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::Axpy(float factor, const Tensor& other) {
  NLIDB_CHECK(shape_ == other.shape_) << "Axpy shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += factor * other.data_[i];
  }
}

float Tensor::Sum() const {
  float s = 0.0f;
  for (float x : data_) s += x;
  return s;
}

float Tensor::Norm2() const {
  float s = 0.0f;
  for (float x : data_) s += x * x;
  return std::sqrt(s);
}

float Tensor::NormP(float p) const {
  NLIDB_CHECK(p >= 1.0f) << "NormP requires p >= 1";
  float s = 0.0f;
  for (float x : data_) s += std::pow(std::fabs(x), p);
  return std::pow(s, 1.0f / p);
}

Tensor Tensor::Transposed() const {
  NLIDB_CHECK(rank() == 2) << "Transposed requires rank 2";
  Tensor out({cols(), rows()});
  for (int i = 0; i < rows(); ++i) {
    for (int j = 0; j < cols(); ++j) {
      out(j, i) = (*this)(i, j);
    }
  }
  return out;
}

bool Tensor::AllClose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Tensor::ToString(int max_entries) const {
  std::ostringstream os;
  os << "Tensor[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << "x";
    os << shape_[i];
  }
  os << "]{";
  int n = std::min<int>(max_entries, static_cast<int>(data_.size()));
  for (int i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << data_[i];
  }
  if (static_cast<size_t>(n) < data_.size()) os << ", ...";
  os << "}";
  return os.str();
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  NLIDB_CHECK(a.rank() == 2 && b.rank() == 2 && a.cols() == b.rows())
      << "MatMul shape mismatch";
  Tensor out({a.rows(), b.cols()});
  MatMulAccumulate(a, b, out);
  return out;
}

void MatMulAccumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  NLIDB_CHECK(out.rows() == m && out.cols() == n) << "MatMulAccumulate shape";
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  gemm::Kernels().rows_ab(pa, pb, po, m, k, n);
}

void GemmAccumulateRaw(const float* a, const float* b, float* out, int m,
                       int k, int n) {
  gemm::Kernels().rows_ab(a, b, out, m, k, n);
}

void GemmTransposeBAccumulateRaw(const float* a, const float* b, float* out,
                                 int m, int k, int n) {
  gemm::Kernels().rows_abt(a, b, out, m, k, n);
}

void MatMulTransposeAAccumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  const int k = a.rows();
  const int m = a.cols();
  const int n = b.cols();
  NLIDB_CHECK(b.rows() == k && out.rows() == m && out.cols() == n)
      << "MatMulTransposeAAccumulate shape";
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // This kernel's `a` is usually an activation matrix feeding a weight
  // gradient, and those are often mostly zeros (zero-padded feature
  // slots, ReLU outputs, one-hot selections). A skip-on-zero sweep beats
  // the dense tiles there, so probe the density first; the probe is one
  // pass over `a` against n passes of saved work per skipped value.
  const size_t total = a.size();
  size_t zeros = 0;
  for (size_t idx = 0; idx < total; ++idx) zeros += (pa[idx] == 0.0f);
  const gemm::RowKernels& kr = gemm::Kernels();  // counts both paths
  if (zeros * 2 < total) {
    kr.rows_atb(pa, pb, po, k, m, n);
    return;
  }
  // kk-outer with increasing-kk accumulation per element: the same order
  // as the dense tiles, so both paths match bitwise.
  for (int kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (int i = 0; i < m; ++i) {
      const float v = arow[i];
      if (v == 0.0f) continue;
      float* orow = po + i * n;
      for (int j = 0; j < n; ++j) orow[j] += v * brow[j];
    }
  }
}

void MatMulTransposeBAccumulate(const Tensor& a, const Tensor& b, Tensor& out) {
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();
  NLIDB_CHECK(b.cols() == k && out.rows() == m && out.cols() == n)
      << "MatMulTransposeBAccumulate shape";
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  gemm::Kernels().rows_abt(pa, pb, po, m, k, n);
}

namespace gemm {

namespace {

constexpr RowKernels kBaseKernels{base::RowsAB, base::RowsABt, base::RowsAtB,
                                  base::TanhRows};
constexpr RowKernels kAvx2Kernels{avx2::RowsAB, avx2::RowsABt, avx2::RowsAtB,
                                  avx2::TanhRows};

Tier TierFromEnv() {
  const char* env = std::getenv("NLIDB_GEMM_TIER");
  if (env == nullptr) return Tier::kAuto;
  const std::string v(env);
  if (v == "base") return Tier::kBase;
  if (v == "avx2") return Tier::kAvx2;
  return Tier::kAuto;
}

// The requested tier: env default, overridable by SetTier. Atomic so a
// test harness flipping tiers between requests never races the dispatch
// reads in concurrent kernels.
std::atomic<Tier>& RequestedTier() {
  static std::atomic<Tier> tier{TierFromEnv()};
  return tier;
}

}  // namespace

void SetTier(Tier tier) {
  RequestedTier().store(tier, std::memory_order_relaxed);
}

Tier ActiveTier() {
  static const bool has_avx2 = avx2::Available();
  const Tier requested = RequestedTier().load(std::memory_order_relaxed);
  if (requested == Tier::kBase) return Tier::kBase;
  return has_avx2 ? Tier::kAvx2 : Tier::kBase;
}

const RowKernels& Kernels() {
  // Dispatch-tier visibility: which ISA path the process actually runs
  // (a silent fallback to base on an AVX2 box is a perf bug).
  static metrics::Counter& dispatch_avx2 =
      metrics::MetricsRegistry::Global().GetCounter("gemm.dispatch.avx2");
  static metrics::Counter& dispatch_base =
      metrics::MetricsRegistry::Global().GetCounter("gemm.dispatch.base");
  if (ActiveTier() == Tier::kAvx2) {
    dispatch_avx2.Increment();
    return kAvx2Kernels;
  }
  dispatch_base.Increment();
  return kBaseKernels;
}

}  // namespace gemm

void TanhRaw(const float* in, float* out, int n) {
  // Not through Kernels(): its counters count GEMM dispatches.
  const gemm::RowKernels& kr = gemm::ActiveTier() == gemm::Tier::kAvx2
                                   ? gemm::kAvx2Kernels
                                   : gemm::kBaseKernels;
  kr.tanh_rows(in, out, n);
}

}  // namespace nlidb

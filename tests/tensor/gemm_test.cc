// Bitwise-equality tests for the tiled GEMM kernels against the
// seed-equivalent reference loops (gemm_reference.cc). The substrate's
// determinism contract is exact: for every kernel, every output element
// must receive its k partial products in increasing-k order, so tiled,
// sparse-path and reference execution all produce the same bits. These
// tests enforce that contract over shapes that exercise all tile tails
// and both density branches.

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/gemm_kernels.h"
#include "tensor/tensor.h"

namespace nlidb {
namespace {

using GemmFn = void (*)(const Tensor&, const Tensor&, Tensor&);

void ExpectBitwiseEqual(const Tensor& got, const Tensor& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)),
            0)
      << context;
}

// Shapes chosen to hit: single row/col, every residue mod the full
// tile heights (4 rows on the base tier, 6 on AVX2) so each leftover-row
// tile runs, residues around the one-vector (4/8) and multi-vector
// (8/16/32) column panels, and a couple of larger blocks.
struct Shape {
  int m, k, n;
};

const Shape kShapes[] = {
    {1, 1, 1},   {1, 5, 1},   {2, 3, 7},   {3, 17, 9},  {4, 8, 16},
    {5, 7, 33},  {6, 33, 17}, {7, 16, 31}, {8, 20, 24}, {9, 1, 40},
    {13, 19, 5}, {16, 32, 48}, {31, 33, 35}, {40, 24, 8}, {64, 48, 72},
};

// kShapes, plus the decoder's beam products (m = 1..6 rows at beam width
// 5: GRU input/hidden gates, attention query, output scores) and column
// residues around the 32-wide panel at every leftover-row height.
std::vector<Shape> AllShapes() {
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  const Shape decoder_kn[] = {{0, 176, 384}, {0, 128, 384}, {0, 128, 64},
                              {0, 256, 37}};
  for (int m = 1; m <= 6; ++m) {
    for (const Shape& kn : decoder_kn) shapes.push_back({m, kn.k, kn.n});
  }
  for (int n : {31, 32, 33, 40, 56}) {
    for (int m = 1; m <= 7; ++m) shapes.push_back({m, 13, n});
  }
  return shapes;
}

// Adapters from one tier's raw row kernel to the Tensor signature.
template <gemm::RowsABFn kRows>
void TierAB(const Tensor& a, const Tensor& b, Tensor& out) {
  kRows(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
}

template <gemm::RowsABtFn kRows>
void TierABt(const Tensor& a, const Tensor& b, Tensor& out) {
  kRows(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows());
}

template <gemm::RowsAtBFn kRows>
void TierAtB(const Tensor& a, const Tensor& b, Tensor& out) {
  kRows(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
}

void CheckKernel(GemmFn tiled, GemmFn reference, bool transpose_a,
                 bool transpose_b, float zero_fraction) {
  Rng rng(12345);
  for (const Shape& s : AllShapes()) {
    // a carries the contraction on rows when transposed: AtB contracts
    // a's rows with b's rows; ABt contracts a's cols with b's cols.
    const std::vector<int> a_shape =
        transpose_a ? std::vector<int>{s.k, s.m} : std::vector<int>{s.m, s.k};
    const std::vector<int> b_shape =
        transpose_b ? std::vector<int>{s.n, s.k} : std::vector<int>{s.k, s.n};
    Tensor a = Tensor::Gaussian(a_shape, 1.0f, rng);
    Tensor b = Tensor::Gaussian(b_shape, 1.0f, rng);
    if (zero_fraction > 0.0f) {
      for (size_t i = 0; i < a.size(); ++i) {
        if (rng.NextFloat() < zero_fraction) a.data()[i] = 0.0f;
      }
    }
    // Accumulate semantics: start from a non-trivial out and make sure
    // both kernels add onto it identically.
    Tensor out_ref = Tensor::Gaussian({s.m, s.n}, 0.5f, rng);
    Tensor out_tiled = out_ref;
    reference(a, b, out_ref);
    tiled(a, b, out_tiled);
    ExpectBitwiseEqual(
        out_tiled, out_ref,
        "m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
            " n=" + std::to_string(s.n) +
            " zero_frac=" + std::to_string(zero_fraction));
  }
}

TEST(GemmTest, MatMulAccumulateMatchesReferenceBitwise) {
  CheckKernel(&MatMulAccumulate, &MatMulAccumulateReference,
              /*transpose_a=*/false, /*transpose_b=*/false, 0.0f);
}

TEST(GemmTest, MatMulAccumulateZeroHeavyInputs) {
  // The tiled path dropped the reference's `aik == 0` skip; zero-heavy
  // inputs must still match bitwise (adding 0.0f*x to a finite
  // accumulator is an exact no-op).
  CheckKernel(&MatMulAccumulate, &MatMulAccumulateReference, false, false,
              0.7f);
}

TEST(GemmTest, TransposeBMatchesReferenceBitwise) {
  CheckKernel(&MatMulTransposeBAccumulate,
              &MatMulTransposeBAccumulateReference, false, true, 0.0f);
  CheckKernel(&MatMulTransposeBAccumulate,
              &MatMulTransposeBAccumulateReference, false, true, 0.6f);
}

TEST(GemmTest, TransposeADenseAndSparsePathsMatchReferenceBitwise) {
  // zero_fraction 0 exercises the dense tiles; >= 0.5 flips the density
  // probe onto the seed-style skip-on-zero path. Both must be bitwise
  // equal to the reference.
  CheckKernel(&MatMulTransposeAAccumulate,
              &MatMulTransposeAAccumulateReference, true, false, 0.0f);
  CheckKernel(&MatMulTransposeAAccumulate,
              &MatMulTransposeAAccumulateReference, true, false, 0.55f);
  CheckKernel(&MatMulTransposeAAccumulate,
              &MatMulTransposeAAccumulateReference, true, false, 0.95f);
}

TEST(GemmTest, BothIsaTiersMatchReferenceBitwise) {
  // The Tensor-level entry points dispatch to whichever tier this
  // machine supports; call every row kernel of both tiers directly so
  // the tier NOT chosen by the dispatcher is still covered (on non-AVX2
  // builds the avx2 symbols forward to base, which is fine — the
  // assertion still holds). RowsAtB has no sparse path of its own, so
  // dense inputs cover it.
  {
    SCOPED_TRACE("base RowsAB");
    CheckKernel(&TierAB<gemm::base::RowsAB>, &MatMulAccumulateReference,
                false, false, 0.0f);
  }
  {
    SCOPED_TRACE("avx2 RowsAB");
    CheckKernel(&TierAB<gemm::avx2::RowsAB>, &MatMulAccumulateReference,
                false, false, 0.0f);
  }
  {
    SCOPED_TRACE("base RowsABt");
    CheckKernel(&TierABt<gemm::base::RowsABt>,
                &MatMulTransposeBAccumulateReference, false, true, 0.0f);
  }
  {
    SCOPED_TRACE("avx2 RowsABt");
    CheckKernel(&TierABt<gemm::avx2::RowsABt>,
                &MatMulTransposeBAccumulateReference, false, true, 0.0f);
  }
  {
    SCOPED_TRACE("base RowsAtB");
    CheckKernel(&TierAtB<gemm::base::RowsAtB>,
                &MatMulTransposeAAccumulateReference, true, false, 0.0f);
  }
  {
    SCOPED_TRACE("avx2 RowsAtB");
    CheckKernel(&TierAtB<gemm::avx2::RowsAtB>,
                &MatMulTransposeAAccumulateReference, true, false, 0.0f);
  }
}

TEST(GemmTest, ReferenceKernelsAgreeWithNaiveDot) {
  // Anchor the reference kernels themselves against a freshly written
  // naive dot product (guards against the reference drifting).
  Rng rng(99);
  const int m = 6, k = 11, n = 9;
  Tensor a = Tensor::Gaussian({m, k}, 1.0f, rng);
  Tensor b = Tensor::Gaussian({k, n}, 1.0f, rng);
  Tensor out = Tensor::Zeros({m, n});
  MatMulAccumulateReference(a, b, out);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) {
        acc += a.data()[i * k + kk] * b.data()[kk * n + j];
      }
      EXPECT_NEAR(out.data()[i * n + j], acc, 1e-4f);
    }
  }
}

}  // namespace
}  // namespace nlidb

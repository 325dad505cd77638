#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>

namespace nlidb {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.vec()[i], 0.0f);
}

TEST(TensorTest, ExplicitData) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t(0, 0), 1);
  EXPECT_EQ(t(0, 1), 2);
  EXPECT_EQ(t(1, 0), 3);
  EXPECT_EQ(t(1, 1), 4);
}

TEST(TensorTest, FillScaleAddAxpy) {
  Tensor a = Tensor::Full({2, 2}, 2.0f);
  Tensor b = Tensor::Ones({2, 2});
  a.Scale(3.0f);
  a.Add(b);
  EXPECT_EQ(a(0, 0), 7.0f);
  a.Axpy(-2.0f, b);
  EXPECT_EQ(a(1, 1), 5.0f);
}

TEST(TensorTest, Reductions) {
  Tensor t({3}, {3, -4, 1});
  EXPECT_FLOAT_EQ(t.Sum(), 0.0f);
  EXPECT_FLOAT_EQ(t.Norm2(), std::sqrt(26.0f));
  EXPECT_FLOAT_EQ(t.NormP(1.0f), 8.0f);
  EXPECT_NEAR(t.NormP(2.0f), t.Norm2(), 1e-5f);
}

TEST(TensorTest, Transpose) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor tt = t.Transposed();
  EXPECT_EQ(tt.rows(), 3);
  EXPECT_EQ(tt.cols(), 2);
  EXPECT_EQ(tt(2, 0), 3);
  EXPECT_EQ(tt(0, 1), 4);
}

TEST(TensorTest, AllClose) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f + 1e-7f, 2.0f});
  Tensor c({2}, {1.1f, 2.0f});
  EXPECT_TRUE(a.AllClose(b));
  EXPECT_FALSE(a.AllClose(c));
  EXPECT_FALSE(a.AllClose(Tensor({3})));
}

TEST(TensorTest, GaussianStatistics) {
  Rng rng(3);
  Tensor t = Tensor::Gaussian({100, 100}, 2.0f, rng);
  double sum = 0, sq = 0;
  for (float x : t.vec()) {
    sum += x;
    sq += x * x;
  }
  const double n = t.size();
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / n), 2.0, 0.05);
}

TEST(TensorTest, XavierBound) {
  Rng rng(4);
  Tensor t = Tensor::Xavier(30, 10, rng);
  const float bound = std::sqrt(6.0f / 40.0f);
  for (float x : t.vec()) {
    EXPECT_GE(x, -bound);
    EXPECT_LE(x, bound);
  }
}

TEST(MatMulTest, SmallKnownProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c(0, 0), 58);
  EXPECT_EQ(c(0, 1), 64);
  EXPECT_EQ(c(1, 0), 139);
  EXPECT_EQ(c(1, 1), 154);
}

TEST(MatMulTest, TransposeVariantsAgree) {
  Rng rng(5);
  Tensor a = Tensor::Gaussian({4, 3}, 1.0f, rng);
  Tensor b = Tensor::Gaussian({3, 5}, 1.0f, rng);
  Tensor ref = MatMul(a, b);
  // a^T^T * b via MatMulTransposeAAccumulate with a^T.
  Tensor at = a.Transposed();
  Tensor out1({4, 5});
  MatMulTransposeAAccumulate(at, b, out1);
  EXPECT_TRUE(out1.AllClose(ref, 1e-4f));
  // a * b^T^T via MatMulTransposeBAccumulate with b^T.
  Tensor bt = b.Transposed();
  Tensor out2({4, 5});
  MatMulTransposeBAccumulate(a, bt, out2);
  EXPECT_TRUE(out2.AllClose(ref, 1e-4f));
}

}  // namespace
}  // namespace nlidb

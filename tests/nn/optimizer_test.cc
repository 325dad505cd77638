#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"

namespace nlidb {
namespace nn {
namespace {

Var QuadLoss(const Var& w) {
  // loss = sum((w - 3)^2)
  Var shifted = ops::Add(w, MakeVar(Tensor::Full(w->value.shape(), -3.0f)));
  return ops::SumAll(ops::Mul(shifted, shifted));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Var w = MakeVar(Tensor::Full({1, 4}, -5.0f), true);
  Adam opt({w}, 0.2f);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    Backward(QuadLoss(w));
    opt.Step();
  }
  for (float v : w->value.vec()) EXPECT_NEAR(v, 3.0f, 1e-2f);
}

TEST(AdamTest, SkipsParamsWithoutGrads) {
  Var used = MakeVar(Tensor::Zeros({1, 1}), true);
  Var unused = MakeVar(Tensor::Full({1, 1}, 7.0f), true);
  Adam opt({used, unused}, 0.1f);
  opt.ZeroGrad();
  Backward(QuadLoss(used));
  opt.Step();
  EXPECT_FLOAT_EQ(unused->value(0, 0), 7.0f);
  EXPECT_NE(used->value(0, 0), 0.0f);
}

TEST(ClipGradNormTest, RescalesLargeGradients) {
  Var a = MakeVar(Tensor::Zeros({1, 3}), true);
  a->EnsureGrad() = Tensor({1, 3}, {3.0f, 4.0f, 0.0f});
  Var b = MakeVar(Tensor::Zeros({1, 1}), true);
  b->EnsureGrad() = Tensor({1, 1}, {12.0f});
  // Global norm = sqrt(9 + 16 + 144) = 13.
  const float pre = ClipGradNorm({a, b}, 5.0f);
  EXPECT_NEAR(pre, 13.0f, 1e-4f);
  float total = 0.0f;
  for (float g : a->grad.vec()) total += g * g;
  for (float g : b->grad.vec()) total += g * g;
  EXPECT_NEAR(std::sqrt(total), 5.0f, 1e-4f);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Var a = MakeVar(Tensor::Zeros({1, 2}), true);
  a->EnsureGrad() = Tensor({1, 2}, {0.3f, 0.4f});
  ClipGradNorm({a}, 5.0f);
  EXPECT_FLOAT_EQ(a->grad(0, 0), 0.3f);
  EXPECT_FLOAT_EQ(a->grad(0, 1), 0.4f);
}

TEST(AdamTest, ZeroGradResets) {
  Var w = MakeVar(Tensor::Zeros({1, 2}), true);
  Adam opt({w}, 0.1f);
  Backward(QuadLoss(w));
  EXPECT_GT(w->grad.Norm2(), 0.0f);
  opt.ZeroGrad();
  EXPECT_FLOAT_EQ(w->grad.Norm2(), 0.0f);
}

}  // namespace
}  // namespace nn
}  // namespace nlidb

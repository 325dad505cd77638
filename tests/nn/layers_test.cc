#include "nn/layers.h"

#include <gtest/gtest.h>

#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace nlidb {
namespace nn {
namespace {

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  Var x = MakeVar(Tensor::Ones({2, 4}));
  Var y = layer.Forward(x);
  EXPECT_EQ(y->value.rows(), 2);
  EXPECT_EQ(y->value.cols(), 3);
  EXPECT_EQ(layer.Parameters().size(), 2u);
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(1);
  Linear layer(4, 3, rng, /*use_bias=*/false);
  EXPECT_EQ(layer.Parameters().size(), 1u);
  // Zero input -> zero output without a bias.
  Var y = layer.Forward(MakeVar(Tensor::Zeros({1, 4})));
  for (float v : y->value.vec()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(LinearTest, LearnsLinearMap) {
  // y = 2*x0 - x1; a single linear layer must fit it.
  Rng rng(2);
  Linear layer(2, 1, rng);
  Adam opt(layer.Parameters(), 5e-2f);
  float last_loss = 0.0f;
  for (int step = 0; step < 300; ++step) {
    const float x0 = rng.NextFloat(-1, 1), x1 = rng.NextFloat(-1, 1);
    const float target = 2 * x0 - x1;
    Var x = MakeVar(Tensor({1, 2}, {x0, x1}));
    Var diff = ops::Add(layer.Forward(x),
                        MakeVar(Tensor({1, 1}, {-target})));
    Var loss = ops::SumAll(ops::Mul(diff, diff));
    opt.ZeroGrad();
    Backward(loss);
    opt.Step();
    last_loss = loss->value(0);
  }
  EXPECT_LT(last_loss, 1e-3f);
}

TEST(EmbeddingTest, LookupReturnsSetRows) {
  Rng rng(3);
  Embedding emb(10, 4, rng);
  emb.SetRow(7, {1, 2, 3, 4});
  Var out = emb.Forward({7, 7, 0});
  EXPECT_EQ(out->value.rows(), 3);
  EXPECT_FLOAT_EQ(out->value(0, 2), 3.0f);
  EXPECT_FLOAT_EQ(out->value(1, 3), 4.0f);
}

TEST(EmbeddingTest, SparseGradientScattersToRows) {
  Rng rng(4);
  Embedding emb(10, 2, rng);
  Var out = emb.Forward({3, 3, 5});
  Backward(ops::SumAll(out));
  const Var& table = emb.table();
  // Row 3 used twice, row 5 once, row 0 never.
  EXPECT_FLOAT_EQ(table->grad(3, 0), 2.0f);
  EXPECT_FLOAT_EQ(table->grad(5, 0), 1.0f);
  EXPECT_FLOAT_EQ(table->grad(0, 0), 0.0f);
}

TEST(MlpTest, ParameterCountAndShape) {
  Rng rng(5);
  Mlp mlp({6, 8, 3}, rng);
  EXPECT_EQ(mlp.Parameters().size(), 4u);  // two Linear layers
  Var y = mlp.Forward(MakeVar(Tensor::Ones({1, 6})));
  EXPECT_EQ(y->value.cols(), 3);
}

TEST(MlpTest, LearnsXor) {
  Rng rng(6);
  Mlp mlp({2, 8, 1}, rng);
  Adam opt(mlp.Parameters(), 2e-2f);
  const float xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const float ys[4] = {0, 1, 1, 0};
  for (int epoch = 0; epoch < 400; ++epoch) {
    for (int i = 0; i < 4; ++i) {
      Var x = MakeVar(Tensor({1, 2}, {xs[i][0], xs[i][1]}));
      Var loss = ops::BceWithLogits(mlp.Forward(x), ys[i]);
      opt.ZeroGrad();
      Backward(loss);
      opt.Step();
    }
  }
  for (int i = 0; i < 4; ++i) {
    Var x = MakeVar(Tensor({1, 2}, {xs[i][0], xs[i][1]}));
    const float logit = mlp.Forward(x)->value(0, 0);
    EXPECT_EQ(logit > 0.0f, ys[i] > 0.5f) << "xor case " << i;
  }
}

TEST(ModuleTest, ParametersListWeightThenBias) {
  Rng rng(7);
  Linear layer(3, 2, rng);
  const std::vector<Var> params = layer.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->value.size(), 3u * 2u);
  EXPECT_EQ(params[1]->value.size(), 2u);
}

}  // namespace
}  // namespace nn
}  // namespace nlidb

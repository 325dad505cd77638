// Finite-difference gradient checks for every differentiable op,
// parameterized so each op is an independently reported case.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "common/strings.h"
#include "tensor/ops.h"

namespace nlidb {
namespace {

/// Builds a scalar-valued graph from two leaf variables.
using GraphBuilder = std::function<Var(const Var&, const Var&)>;

struct OpCase {
  std::string name;
  std::vector<int> a_shape;
  std::vector<int> b_shape;  // empty: single-input op
  GraphBuilder build;
};

class OpsGradCheckTest : public ::testing::TestWithParam<OpCase> {};

float Eval(const OpCase& c, const Var& a, const Var& b) {
  return c.build(a, b)->value(0);
}

TEST_P(OpsGradCheckTest, MatchesFiniteDifference) {
  const OpCase& c = GetParam();
  Rng rng(Fnv1aHash(c.name));
  Var a = MakeVar(Tensor::Uniform(c.a_shape, -0.9f, 0.9f, rng),
                  /*requires_grad=*/true);
  Var b = c.b_shape.empty()
              ? MakeVar(Tensor({1}), false)
              : MakeVar(Tensor::Uniform(c.b_shape, -0.9f, 0.9f, rng),
                        /*requires_grad=*/true);
  Var loss = c.build(a, b);
  ASSERT_EQ(loss->value.size(), 1u) << "builder must produce a scalar";
  Backward(loss);

  const float eps = 5e-3f;
  auto check_leaf = [&](const Var& leaf) {
    ASSERT_FALSE(leaf->grad.empty());
    for (size_t i = 0; i < leaf->value.size(); i += 3) {
      const float orig = leaf->value.vec()[i];
      leaf->value.vec()[i] = orig + eps;
      const float up = Eval(c, a, b);
      leaf->value.vec()[i] = orig - eps;
      const float down = Eval(c, a, b);
      leaf->value.vec()[i] = orig;
      const float fd = (up - down) / (2 * eps);
      const float an = leaf->grad.vec()[i];
      EXPECT_NEAR(an, fd, 2e-2f + 0.05f * std::fabs(fd))
          << c.name << " entry " << i;
    }
  };
  check_leaf(a);
  if (!c.b_shape.empty()) check_leaf(b);
}

std::vector<OpCase> AllCases() {
  std::vector<OpCase> cases;
  auto scalar = [](const Var& v) { return ops::SumAll(v); };
  cases.push_back({"matmul", {3, 4}, {4, 2}, [scalar](const Var& a, const Var& b) {
                     return scalar(ops::MatMul(a, b));
                   }});
  cases.push_back({"add", {2, 3}, {2, 3}, [scalar](const Var& a, const Var& b) {
                     return scalar(ops::Tanh(ops::Add(a, b)));
                   }});
  cases.push_back({"sub", {2, 3}, {2, 3}, [scalar](const Var& a, const Var& b) {
                     return scalar(ops::Sigmoid(ops::Sub(a, b)));
                   }});
  cases.push_back({"mul", {2, 3}, {2, 3}, [scalar](const Var& a, const Var& b) {
                     return scalar(ops::Mul(a, b));
                   }});
  cases.push_back({"add_row_broadcast", {3, 4}, {4}, [scalar](const Var& a, const Var& b) {
                     return scalar(ops::Tanh(ops::AddRowBroadcast(a, b)));
                   }});
  cases.push_back({"scalar_mul", {2, 2}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(ops::ScalarMul(a, -1.7f));
                   }});
  cases.push_back({"sigmoid", {2, 3}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(ops::Sigmoid(a));
                   }});
  cases.push_back({"tanh", {2, 3}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(ops::Tanh(a));
                   }});
  cases.push_back({"relu", {2, 5}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(ops::Relu(a));
                   }});
  cases.push_back({"exp", {2, 3}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(ops::Exp(a));
                   }});
  cases.push_back({"softmax_rows", {2, 4}, {2, 4}, [scalar](const Var& a, const Var& b) {
                     return scalar(ops::Mul(ops::SoftmaxRows(a), b));
                   }});
  cases.push_back({"transpose", {2, 3}, {3, 2}, [scalar](const Var& a, const Var& b) {
                     return scalar(ops::Mul(ops::Transpose(a), b));
                   }});
  cases.push_back({"concat_cols", {2, 3}, {2, 2}, [scalar](const Var& a, const Var& b) {
                     return scalar(ops::Tanh(ops::ConcatCols({a, b})));
                   }});
  cases.push_back({"concat_rows", {2, 3}, {1, 3}, [scalar](const Var& a, const Var& b) {
                     return scalar(ops::Tanh(ops::ConcatRows({a, b})));
                   }});
  cases.push_back({"pick_row", {3, 4}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(ops::Tanh(ops::PickRow(a, 1)));
                   }});
  cases.push_back({"slice_cols", {2, 6}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(ops::Tanh(ops::SliceCols(a, 1, 3)));
                   }});
  cases.push_back({"row_max", {3, 4}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(ops::RowMax(a));
                   }});
  cases.push_back({"row_mean", {3, 4}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(ops::RowMean(a));
                   }});
  cases.push_back({"embedding_lookup", {5, 3}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(
                         ops::Tanh(ops::EmbeddingLookup(a, {0, 2, 2, 4})));
                   }});
  cases.push_back({"conv1d_mean", {6, 3}, {9, 2}, [scalar](const Var& a, const Var& b) {
                     Var bias = MakeVar(Tensor({2}, {0.1f, -0.2f}), true);
                     return scalar(ops::Tanh(ops::Conv1dMean(a, b, bias, 3)));
                   }});
  cases.push_back({"conv1d_mean_short_input", {2, 3}, {9, 2},
                   [scalar](const Var& a, const Var& b) {
                     // input shorter than kernel: zero-padding path.
                     Var bias = MakeVar(Tensor({2}), true);
                     return scalar(ops::Tanh(ops::Conv1dMean(a, b, bias, 3)));
                   }});
  cases.push_back({"scatter_sum_cols", {1, 4}, {}, [scalar](const Var& a, const Var&) {
                     return scalar(
                         ops::Tanh(ops::ScatterSumCols(a, {0, 2, 2, 5}, 6)));
                   }});
  cases.push_back({"bce_with_logits", {1, 1}, {}, [](const Var& a, const Var&) {
                     return ops::BceWithLogits(a, 1.0f);
                   }});
  cases.push_back({"cross_entropy", {1, 5}, {}, [](const Var& a, const Var&) {
                     return ops::CrossEntropyWithLogits(a, 2);
                   }});
  cases.push_back({"neg_log_normalized", {1, 4}, {}, [](const Var& a, const Var&) {
                     // scores must be positive.
                     return ops::NegLogNormalized(ops::Exp(a), 1);
                   }});
  cases.push_back({"layer_norm", {3, 6}, {6}, [scalar](const Var& a, const Var& b) {
                     Var bias = MakeVar(Tensor({6}), true);
                     return scalar(ops::LayerNormRows(a, b, bias));
                   }});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpsGradCheckTest,
                         ::testing::ValuesIn(AllCases()),
                         [](const ::testing::TestParamInfo<OpCase>& info) {
                           return info.param.name;
                         });

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Var a = MakeVar(Tensor({2, 5}, {1, 2, 3, 4, 5, -1, 0, 1, 0, -1}));
  Var s = ops::SoftmaxRows(a);
  for (int i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 5; ++j) {
      sum += s->value(i, j);
      EXPECT_GT(s->value(i, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, ExpClampsLargeInputs) {
  Var a = MakeVar(Tensor({1, 2}, {100.0f, 0.0f}));
  Var e = ops::Exp(a);
  EXPECT_FLOAT_EQ(e->value(0, 0), std::exp(20.0f));
  EXPECT_FLOAT_EQ(e->value(0, 1), 1.0f);
}

TEST(OpsTest, ScatterSumColsAccumulatesDuplicates) {
  Var v = MakeVar(Tensor({1, 3}, {1, 2, 3}));
  Var s = ops::ScatterSumCols(v, {1, 1, 0}, 4);
  EXPECT_FLOAT_EQ(s->value(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(s->value(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(s->value(0, 2), 0.0f);
}

}  // namespace
}  // namespace nlidb

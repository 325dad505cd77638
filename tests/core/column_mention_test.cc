#include "core/column_mention_classifier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "common/thread_pool.h"
#include "core/adversarial.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"
#include "testing/golden.h"
#include "testing/trace.h"

namespace nlidb {
namespace core {
namespace {

ModelConfig TinyConfig(int word_dim) {
  ModelConfig c = ModelConfig::Tiny();
  c.word_dim = word_dim;
  return c;
}

// One column scored alone through the batched entry point.
float PredictOne(const ColumnMentionClassifier& clf,
                 const std::vector<std::string>& question,
                 const std::vector<std::string>& column) {
  return clf.PredictBatch(question, {column}).value()[0];
}

// sigmoid(Forward(...).logit), spelled as PredictBatch spells it.
float SigmoidOfForward(const ColumnMentionClassifier& clf,
                       const std::vector<std::string>& question,
                       const std::vector<std::string>& column) {
  const float x = clf.Forward(question, column).value().logit->value(0, 0);
  return 1.0f / (1.0f + std::exp(-x));
}

TEST(ColumnMentionClassifierTest, ForwardShapes) {
  text::EmbeddingProvider provider(24);
  ColumnMentionClassifier clf(TinyConfig(24), provider);
  clf.AddVocabulary({"who", "won", "the", "race", "winning", "driver"});
  auto fr =
      clf.Forward({"who", "won", "the", "race"}, {"winning", "driver"}).value();
  EXPECT_EQ(fr.logit->value.rows(), 1);
  EXPECT_EQ(fr.logit->value.cols(), 1);
  EXPECT_EQ(fr.question_word_embeddings->value.rows(), 4);
  EXPECT_EQ(fr.question_char_embeddings.size(), 4u);
}

TEST(ColumnMentionClassifierTest, PredictIsProbability) {
  text::EmbeddingProvider provider(24);
  ColumnMentionClassifier clf(TinyConfig(24), provider);
  clf.AddVocabulary({"a", "b"});
  const float p = PredictOne(clf, {"a", "b"}, {"b"});
  EXPECT_GT(p, 0.0f);
  EXPECT_LT(p, 1.0f);
}

TEST(ColumnMentionClassifierTest, EmptyWordSequenceIsInvalidArgument) {
  // Empty inputs used to trip an NLIDB_CHECK abort inside Embed; the
  // query path needs a Status it can propagate instead.
  text::EmbeddingProvider provider(24);
  ColumnMentionClassifier clf(TinyConfig(24), provider);
  clf.AddVocabulary({"a", "b"});
  StatusOr<std::vector<float>> no_question = clf.PredictBatch({}, {{"a"}});
  ASSERT_FALSE(no_question.ok());
  EXPECT_EQ(no_question.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_question.status().message().find("empty word sequence"),
            std::string::npos);
  // An empty column display name is the other arm of the same check.
  StatusOr<std::vector<float>> no_column = clf.PredictBatch({"a"}, {{}});
  ASSERT_FALSE(no_column.ok());
  EXPECT_EQ(no_column.status().code(), StatusCode::kInvalidArgument);
  // And the training / influence entry point reports rather than aborts too.
  EXPECT_EQ(clf.Forward({}, {"a"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(clf.Forward({"a"}, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ColumnMentionClassifierTest, HandlesLongColumnNamesByCapping) {
  text::EmbeddingProvider provider(24);
  ModelConfig config = TinyConfig(24);
  config.max_column_words = 2;
  ColumnMentionClassifier clf(config, provider);
  clf.AddVocabulary({"x"});
  // Column longer than max_column_words must not crash.
  const float p = PredictOne(clf, {"x"}, {"a", "b", "c", "d", "e"});
  EXPECT_GT(p, 0.0f);
  EXPECT_LT(p, 1.0f);
}

TEST(ColumnMentionClassifierTest, UnseenWordsFallBackToUnk) {
  text::EmbeddingProvider provider(24);
  ColumnMentionClassifier clf(TinyConfig(24), provider);
  clf.AddVocabulary({"known"});
  const float p = PredictOne(clf, {"totally", "novel", "words"}, {"known"});
  EXPECT_GT(p, 0.0f);
  EXPECT_LT(p, 1.0f);
}

TEST(ColumnMentionClassifierTest, LearnsMentionDetectionOnCorpus) {
  auto provider = std::make_shared<text::EmbeddingProvider>(48);
  data::RegisterDomainClusters(*provider);
  data::GeneratorConfig gc;
  gc.num_tables = 22;
  gc.questions_per_table = 6;
  gc.seed = 21;
  data::Splits splits = data::GenerateWikiSqlSplits(gc);
  ModelConfig config = TinyConfig(48);
  config.classifier_epochs = 3;
  ColumnMentionClassifier clf(config, *provider);
  const float loss =
      TrainColumnMentionClassifier(clf, splits.train, config);
  EXPECT_LT(loss, 0.35f) << "classifier failed to fit training corpus";

  // Accuracy on unseen tables must beat chance comfortably.
  int correct = 0, total = 0;
  for (const data::Example& ex : splits.test.examples) {
    std::vector<bool> referenced(ex.schema().num_columns(), false);
    referenced[ex.query.select_column] = true;
    for (const auto& c : ex.query.conditions) referenced[c.column] = true;
    for (int c = 0; c < ex.schema().num_columns(); ++c) {
      const float p =
          PredictOne(clf, ex.tokens, ex.schema().column(c).DisplayTokens());
      correct += (p > 0.5f) == referenced[c];
      ++total;
    }
  }
  EXPECT_GT(static_cast<float>(correct) / total, 0.62f);
}

TEST(ColumnMentionClassifierTest, PredictBatchRowsMatchSingleColumnBitwise) {
  // The batched graph stacks every column into shared GEMMs; because
  // each column occupies its own row throughout, every row must equal
  // the column scored alone, and the one-column Forward that training
  // and the influence probe differentiate, to the last bit (the
  // annotator's eval-metric stability depends on this).
  text::EmbeddingProvider provider(24);
  ColumnMentionClassifier clf(TinyConfig(24), provider);
  clf.AddVocabulary({"who", "won", "the", "race", "winning", "driver",
                     "points", "season", "year"});
  const std::vector<std::string> q = {"who", "won", "the", "race"};
  const std::vector<std::vector<std::string>> cols = {
      {"winning", "driver"},
      {"race"},
      {"points"},
      // Longer than max_column_words: exercises the capping + the
      // mixed-length grouping inside the batch.
      {"season", "year", "race", "points", "driver", "won"},
      {"race", "points", "season"},
      {"unseen", "tokens", "here"},
  };
  const std::vector<float> batch = clf.PredictBatch(q, cols).value();
  ASSERT_EQ(batch.size(), cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    // Exact, not NEAR.
    EXPECT_EQ(batch[c], PredictOne(clf, q, cols[c])) << "column " << c;
    EXPECT_EQ(batch[c], SigmoidOfForward(clf, q, cols[c])) << "column " << c;
  }
}

TEST(ColumnMentionClassifierTest, PredictBatchEdgeSizes) {
  text::EmbeddingProvider provider(24);
  ColumnMentionClassifier clf(TinyConfig(24), provider);
  clf.AddVocabulary({"a", "b", "c"});
  EXPECT_TRUE(clf.PredictBatch({"a", "b"}, {}).value().empty());
  const std::vector<float> one =
      clf.PredictBatch({"a", "b"}, {{"c"}}).value();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], SigmoidOfForward(clf, {"a", "b"}, {"c"}));
}

TEST(ColumnMentionClassifierTest, GradientsReachEmbeddingLookups) {
  text::EmbeddingProvider provider(24);
  ColumnMentionClassifier clf(TinyConfig(24), provider);
  clf.AddVocabulary({"which", "film", "director"});
  auto fr = clf.Forward({"which", "film"}, {"director"}).value();
  Var loss = ops::BceWithLogits(fr.logit, 1.0f);
  Backward(loss);
  EXPECT_FALSE(fr.question_word_embeddings->grad.empty());
  EXPECT_GT(fr.question_word_embeddings->grad.Norm2(), 0.0f);
  for (const auto& ch : fr.question_char_embeddings) {
    EXPECT_FALSE(ch->grad.empty());
  }
}

// FNV-1a over the raw bit patterns of `t`: equal iff every element has
// the same bits (up to a 2^-64 collision), so one line pins a whole
// gradient tensor.
uint64_t BitsDigest(const Tensor& t) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < t.size(); ++i) {
    uint32_t bits;
    std::memcpy(&bits, t.data() + i, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// One untrained classifier, one Forward -> BceWithLogits -> Backward per
// (question, column) pair: every parameter gradient as a bit digest plus
// its hexfloat L2 norm, then the pair's influence profile in hexfloat.
std::string GradientTrace() {
  text::EmbeddingProvider provider(24);
  const ModelConfig config = TinyConfig(24);
  ColumnMentionClassifier clf(config, provider);
  clf.AddVocabulary({"who", "won", "the", "race", "in", "which", "year",
                     "winning", "driver", "points", "season", "film"});
  struct Case {
    std::vector<std::string> question;
    std::vector<std::string> column;
    float label;
  };
  const std::vector<Case> cases = {
      {{"who", "won", "the", "race"}, {"winning", "driver"}, 1.0f},
      {{"who", "won", "the", "race"}, {"points"}, 0.0f},
      // Longer than max_column_words: the capped tail must not reach
      // the head.
      {{"which", "season", "had", "the", "most", "points"},
       {"season", "year", "race", "points", "driver", "won"}, 1.0f},
      {{"which", "film", "won", "in", "1999"}, {"year"}, 1.0f},
      {{"points", "?"}, {"unseen", "column", "words"}, 0.0f},
      {{"driver"}, {"winning", "driver"}, 1.0f},
  };
  const std::vector<Var> params = clf.Parameters();
  AdversarialLocator locator(config);
  std::ostringstream os;
  os << "# classifier gradients v1\n";
  for (size_t k = 0; k < cases.size(); ++k) {
    const Case& c = cases[k];
    os << "case " << k << "\n";
    ZeroGrad(params);
    auto fr = clf.Forward(c.question, c.column).value();
    Var loss = ops::BceWithLogits(fr.logit, c.label);
    Backward(loss);
    os << "loss: " << testing::FloatBits(loss->value(0)) << "\n";
    for (size_t i = 0; i < params.size(); ++i) {
      const Tensor& g = params[i]->grad;
      os << "param " << i << " [";
      for (int d : params[i]->value.shape()) os << " " << d;
      os << " ]";
      if (g.empty()) {
        os << " no grad\n";
        continue;
      }
      char digest[24];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(BitsDigest(g)));
      os << " bits=" << digest << " norm=" << testing::FloatBits(g.Norm2())
         << "\n";
    }
    const InfluenceProfile profile =
        locator.ComputeInfluence(clf, c.question, c.column).value();
    for (size_t t = 0; t < profile.total.size(); ++t) {
      os << "influence " << t << ": " << testing::FloatBits(profile.word_level[t])
         << " " << testing::FloatBits(profile.char_level[t]) << " "
         << testing::FloatBits(profile.total[t]) << "\n";
    }
  }
  return os.str();
}

TEST(ColumnMentionClassifierTest, GradientsMatchCommittedGolden) {
  // Training and the influence probe both differentiate Forward's graph;
  // the golden trace sees that only through trained probabilities, so
  // this pins the gradients themselves — on both GEMM tiers, serial and
  // parallel.
  std::map<std::string, std::string> traces;
  for (gemm::Tier tier : {gemm::Tier::kBase, gemm::Tier::kAuto}) {
    gemm::SetTier(tier);
    for (int threads : {1, 8}) {
      ThreadPool::SetGlobalParallelism(threads);
      traces[std::to_string(static_cast<int>(gemm::ActiveTier())) + "/" +
             std::to_string(threads)] = GradientTrace();
    }
  }
  gemm::SetTier(gemm::Tier::kAuto);
  ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());
  for (const auto& [key, trace] : traces) {
    EXPECT_EQ(trace, traces.begin()->second) << "gradients diverge at " << key;
  }
  EXPECT_TRUE(
      testing::MatchesGolden("classifier_grads.golden", traces.begin()->second));
}

}  // namespace
}  // namespace core
}  // namespace nlidb

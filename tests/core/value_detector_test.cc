#include "core/value_detector.h"

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "data/generator.h"
#include "testing/value_score.h"

namespace nlidb {
namespace core {
namespace {

ModelConfig Config(int dim) {
  ModelConfig c = ModelConfig::Tiny();
  c.word_dim = dim;
  return c;
}

TEST(ValueDetectorTest, CandidateSpansExcludeStopWords) {
  text::EmbeddingProvider provider(16);
  ValueDetector det(Config(16), provider);
  auto spans = det.CandidateSpans(
      {"which", "film", "directed", "by", "jerzy", "antczak", "?"});
  for (const auto& span : spans) {
    EXPECT_FALSE(span.Contains(0)) << "'which' is a stop word";
    EXPECT_FALSE(span.Contains(3)) << "'by' is a stop word";
    EXPECT_FALSE(span.Contains(6)) << "'?' is a stop word";
  }
  // "jerzy antczak" must be among the candidates.
  bool found = false;
  for (const auto& span : spans) found |= span == text::Span{4, 6};
  EXPECT_TRUE(found);
}

TEST(ValueDetectorTest, CandidateSpansRespectMaxLength) {
  text::EmbeddingProvider provider(16);
  ModelConfig config = Config(16);
  config.max_value_span = 2;
  ValueDetector det(config, provider);
  for (const auto& span : det.CandidateSpans({"a1", "b2", "c3", "d4"})) {
    EXPECT_LE(span.length(), 2);
  }
}

TEST(ValueDetectorTest, MismatchedInputDimsAreInvalidArgument) {
  // Dim mismatches used to be an NLIDB_CHECK abort; on the query path
  // they must surface as a recoverable Status instead.
  text::EmbeddingProvider provider(16);
  ValueDetector det(Config(16), provider);
  const std::vector<float> good(16, 0.1f);
  const std::vector<float> bad(8, 0.1f);
  EXPECT_EQ(det.ForwardFromVectors(bad, good).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(det.ForwardFromVectors(good, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(det.ForwardFromVectors({}, {}).status().code(),
            StatusCode::kInvalidArgument);
  // The message names both dims so the caller can log something useful.
  Status s = det.ForwardFromVectors(bad, good).status();
  EXPECT_NE(s.message().find("span=8"), std::string::npos) << s;
  EXPECT_TRUE(det.ForwardFromVectors(good, good).ok());
}

TEST(ValueDetectorTest, ScoreWithMismatchedStatsEmbeddingIsStatusNotAbort) {
  text::EmbeddingProvider provider(16);
  ValueDetector det(Config(16), provider);
  sql::ColumnStatistics stats;
  stats.embedding.assign(4, 0.1f);  // wrong dim: provider is 16-wide
  StatusOr<float> s = testing::AutogradValueScore(det, {"word"}, stats);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

TEST(ValueDetectorTest, ScoreIsProbability) {
  text::EmbeddingProvider provider(16);
  ValueDetector det(Config(16), provider);
  sql::ColumnStatistics stats;
  stats.embedding.assign(16, 0.1f);
  const float s = testing::AutogradValueScore(det, {"word"}, stats).value();
  EXPECT_GT(s, 0.0f);
  EXPECT_LT(s, 1.0f);
}

TEST(ValueDetectorTest, TypeFilterBlocksTextSpansOnRealColumns) {
  text::EmbeddingProvider provider(16);
  ValueDetector det(Config(16), provider);
  sql::ColumnStatistics real_col;
  real_col.type = sql::DataType::kReal;
  real_col.embedding = provider.PhraseVector({"42", "17"});
  // "june 23" is not all-numeric: never admissible for a real column.
  auto detections = det.Detect({"june", "23"}, {real_col}).value();
  for (const auto& d : detections) {
    EXPECT_EQ(d.span.length(), 1);
    EXPECT_EQ(d.span.begin, 1);  // only the bare number can match
  }
}

TEST(ValueDetectorTest, LearnsCounterfactualDetection) {
  // Train on a corpus, then test that a NAME NOT IN ANY TABLE still
  // scores high against a person column and low against a number column
  // (challenge 4: counterfactual values).
  auto provider = std::make_shared<text::EmbeddingProvider>(32);
  data::RegisterDomainClusters(*provider);
  data::GeneratorConfig gc;
  gc.num_tables = 12;
  gc.questions_per_table = 6;
  gc.seed = 9;
  data::Splits splits = data::GenerateWikiSqlSplits(gc);
  ModelConfig config = Config(32);
  ValueDetector det(config, *provider);
  schema::SchemaRegistry registry(provider);
  const float loss = TrainValueDetector(det, splits.train, registry, config);
  EXPECT_LT(loss, 0.5f);

  // Build a fresh films table; ask about a person who is NOT in it.
  sql::Schema schema({{"director", sql::DataType::kText},
                      {"year", sql::DataType::kReal}});
  sql::Table table("films", schema);
  ASSERT_TRUE(table
                  .AddRow({sql::Value::Text("sofia garcia"),
                           sql::Value::Real(1999)})
                  .ok());
  ASSERT_TRUE(table
                  .AddRow({sql::Value::Text("liam murphy"),
                           sql::Value::Real(2004)})
                  .ok());
  auto stats = sql::ComputeTableStatistics(table, *provider);
  // "hugo novak" never occurs in the table but is made of name-pool words.
  const float person_score =
      testing::AutogradValueScore(det, {"hugo", "novak"}, stats[0]).value();
  EXPECT_GT(person_score, 0.5f) << "counterfactual name not detected";
}

TEST(ValueDetectorTest, DetectReturnsSortedScores) {
  auto provider = std::make_shared<text::EmbeddingProvider>(16);
  ValueDetector det(Config(16), *provider);
  sql::ColumnStatistics a, b;
  a.embedding = provider->PhraseVector({"alpha"});
  b.embedding = provider->PhraseVector({"beta"});
  auto detections = det.Detect({"alpha", "beta"}, {a, b}).value();
  for (const auto& d : detections) {
    for (size_t i = 1; i < d.column_scores.size(); ++i) {
      EXPECT_GE(d.column_scores[i - 1].second, d.column_scores[i].second);
    }
    for (const auto& [col, score] : d.column_scores) {
      EXPECT_GT(score, 0.5f);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace nlidb

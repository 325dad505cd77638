#include "core/trainer.h"

#include <gtest/gtest.h>

#include "data/generator.h"

namespace nlidb {
namespace core {
namespace {

data::Dataset SmallCorpus(uint64_t seed) {
  data::GeneratorConfig gc;
  gc.num_tables = 6;
  gc.questions_per_table = 5;
  gc.seed = seed;
  data::WikiSqlGenerator gen(gc, data::TrainDomains());
  return gen.Generate();
}

TEST(GoldAnnotationTest, SelectPairComesWithConditionPairs) {
  data::Dataset ds = SmallCorpus(1);
  for (const data::Example& ex : ds.examples) {
    const Annotation ann = GoldAnnotation(ex);
    // Every condition column has a pair with the right value text.
    for (size_t i = 0; i < ex.query.conditions.size(); ++i) {
      const int pair = ann.PairForColumn(ex.query.conditions[i].column);
      ASSERT_GE(pair, 0) << ex.question;
      EXPECT_FALSE(ann.pairs[pair].value_text.empty());
    }
    // The select column has a pair too (value-less unless shared).
    EXPECT_GE(ann.PairForColumn(ex.query.select_column), -1);
    // Pairs are ordered by appearance.
    int last_pos = -1;
    for (const auto& p : ann.pairs) {
      const int pos = !p.column_span.empty() ? p.column_span.begin
                      : !p.value_span.empty() ? p.value_span.begin
                                              : (1 << 20);
      EXPECT_GE(pos, last_pos == (1 << 20) ? -1 : 0);
      if (pos != (1 << 20)) {
        EXPECT_GE(pos, last_pos) << ex.question;
        last_pos = pos;
      }
    }
  }
}

TEST(RegistryStatsTest, CachesByContent) {
  auto provider = std::make_shared<text::EmbeddingProvider>(16);
  schema::SchemaRegistry registry(provider);
  sql::Schema schema({{"x", sql::DataType::kText}});
  sql::Table t("t", schema);
  ASSERT_TRUE(t.AddRow({sql::Value::Text("hello")}).ok());
  const auto& s1 = registry.EntryFor(t).stats;
  const auto& s2 = registry.EntryFor(t).stats;
  EXPECT_EQ(&s1, &s2);
}

TEST(TrainerTest, ClassifierLossDecreases) {
  auto provider = std::make_shared<text::EmbeddingProvider>(24);
  data::RegisterDomainClusters(*provider);
  data::Dataset ds = SmallCorpus(2);
  ModelConfig config = ModelConfig::Tiny();
  config.word_dim = 24;
  config.classifier_epochs = 1;
  ColumnMentionClassifier clf(config, *provider);
  int pairs = 0;
  const float loss1 = TrainColumnMentionClassifier(clf, ds, config, &pairs);
  EXPECT_GT(pairs, 0);
  config.classifier_epochs = 3;
  ColumnMentionClassifier clf2(config, *provider);
  const float loss3 = TrainColumnMentionClassifier(clf2, ds, config);
  EXPECT_LT(loss3, loss1);
}

TEST(TrainerTest, ValueDetectorProducesPairsAndLearns) {
  auto provider = std::make_shared<text::EmbeddingProvider>(48);
  data::RegisterDomainClusters(*provider);
  data::Dataset ds = SmallCorpus(3);
  ModelConfig config = ModelConfig::Tiny();
  config.word_dim = 48;
  config.value_epochs = 4;
  ValueDetector det(config, *provider);
  schema::SchemaRegistry registry(provider);
  int pairs = 0;
  const float loss = TrainValueDetector(det, ds, registry, config, &pairs);
  EXPECT_GT(pairs, ds.examples.size());
  EXPECT_LT(loss, 0.6f);
}

TEST(TrainerTest, Seq2SeqTrainsOnGoldAnnotations) {
  data::Dataset ds = SmallCorpus(4);
  ModelConfig config = ModelConfig::Tiny();
  config.word_dim = 24;
  config.seq2seq_hidden = 24;
  config.seq2seq_epochs = 2;
  Seq2SeqTranslator translator(config);
  AnnotationOptions options;
  int pairs = 0;
  const float loss = TrainSeq2Seq(translator, ds, options, config, &pairs);
  EXPECT_EQ(pairs, static_cast<int>(ds.examples.size()));
  EXPECT_GT(loss, 0.0f);
  EXPECT_LT(loss, 3.0f);  // sanity: trains without diverging
}

TEST(TrainerTest, EmptyDatasetIsNoOp) {
  auto provider = std::make_shared<text::EmbeddingProvider>(24);
  ModelConfig config = ModelConfig::Tiny();
  config.word_dim = 24;
  data::Dataset empty;
  ColumnMentionClassifier clf(config, *provider);
  EXPECT_EQ(TrainColumnMentionClassifier(clf, empty, config), 0.0f);
  ValueDetector det(config, *provider);
  schema::SchemaRegistry registry(provider);
  EXPECT_EQ(TrainValueDetector(det, empty, registry, config), 0.0f);
  Seq2SeqTranslator tr(config);
  EXPECT_EQ(TrainSeq2Seq(tr, empty, AnnotationOptions{}, config), 0.0f);
}

}  // namespace
}  // namespace core
}  // namespace nlidb

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "data/generator.h"
#include "schema/registry.h"
#include "sql/value.h"
#include "testing/trace.h"

namespace nlidb {
namespace schema {
namespace {

std::shared_ptr<text::EmbeddingProvider> Provider() {
  auto provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*provider);
  return provider;
}

/// A 24-column table — wide enough that a shortlist_k=8 registry must
/// prune — whose column names are ordinary content words.
sql::Table WideTable() {
  const char* kWords[] = {"population", "director", "county",  "film",
                          "year",       "price",    "team",    "city",
                          "color",      "author",   "title",   "length",
                          "weight",     "height",   "speed",   "genre",
                          "artist",     "album",    "country", "capital",
                          "river",      "mountain", "animal",  "flower"};
  std::vector<sql::ColumnDef> cols;
  for (const char* w : kWords) {
    cols.push_back({w, sql::DataType::kText});
  }
  sql::Table t("wide", sql::Schema(cols));
  std::vector<sql::Value> row;
  row.reserve(std::size(kWords));
  for (const char* w : kWords) {
    row.push_back(sql::Value::Text(std::string("sample ") + w));
  }
  EXPECT_TRUE(t.AddRow(std::move(row)).ok());
  return t;
}

TEST(ShortlistTest, NarrowTablesAreNeverPruned) {
  SchemaRegistry registry(Provider());
  sql::Schema schema({{"county", sql::DataType::kText},
                      {"population", sql::DataType::kReal}});
  sql::Table t("counties", schema);
  ASSERT_TRUE(
      t.AddRow({sql::Value::Text("mayo"), sql::Value::Real(130507)}).ok());
  const std::vector<int> shortlist = registry.ShortlistColumns(
      {"unrelated", "words"}, t, registry.EntryFor(t));
  EXPECT_EQ(shortlist, (std::vector<int>{0, 1}));
}

TEST(ShortlistTest, ExplicitNameMentionSurvivesPruning) {
  SchemaRegistryOptions options;
  options.shortlist_k = 8;
  SchemaRegistry registry(Provider(), options);
  sql::Table wide = WideTable();
  const std::vector<std::string> tokens = {"what", "is",     "the", "capital",
                                           "of",   "france", "?"};
  const std::vector<int> shortlist =
      registry.ShortlistColumns(tokens, wide, registry.EntryFor(wide));
  ASSERT_EQ(shortlist.size(), 8u);
  EXPECT_TRUE(std::is_sorted(shortlist.begin(), shortlist.end()));
  // "capital" is column 19; a literally mentioned column must make the
  // cut no matter what the embedding scores say.
  EXPECT_TRUE(std::find(shortlist.begin(), shortlist.end(), 19) !=
              shortlist.end());
}

class ShortlistEquivalenceTest : public ::testing::Test {
 protected:
  ShortlistEquivalenceTest() {
    provider_ = Provider();
    config_ = core::ModelConfig::Tiny();
    config_.word_dim = provider_->dim();
  }

  std::shared_ptr<text::EmbeddingProvider> provider_;
  core::ModelConfig config_;
};

TEST_F(ShortlistEquivalenceTest, ShortlistModeMatchesFullScanOnSeedCorpus) {
  // The correctness gate: with the default shortlist_k (16, wider than
  // any seed-corpus table), shortlist mode must reproduce full-scan
  // annotations exactly — at 1 thread and at 8.
  core::NlidbPipeline pipeline(config_, provider_);
  data::GeneratorConfig gc;
  gc.num_tables = 6;
  gc.questions_per_table = 4;
  gc.seed = 21;
  data::Splits splits = data::GenerateWikiSqlSplits(gc);
  pipeline.Train(splits.train);

  for (int threads : {1, 8}) {
    ThreadPool::SetGlobalParallelism(threads);
    for (const data::Example& ex : splits.test.examples) {
      pipeline.mutable_registry().set_mode(ScanMode::kFullScan);
      auto full = pipeline.Annotate(ex.tokens, *ex.table);
      pipeline.mutable_registry().set_mode(ScanMode::kShortlist);
      auto shortlisted = pipeline.Annotate(ex.tokens, *ex.table);
      ASSERT_TRUE(full.ok()) << full.status();
      ASSERT_TRUE(shortlisted.ok()) << shortlisted.status();
      EXPECT_EQ(testing::AnnotationToString(*full),
                testing::AnnotationToString(*shortlisted))
          << "threads=" << threads << " q: " << ex.question;
    }
  }
  ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());
}

TEST_F(ShortlistEquivalenceTest, WideTableShortlistEqualsFullScanWhenCovered) {
  // Actual pruning: a 24-column table against an 8-column shortlist.
  // The registry's contract is equality whenever the shortlist covers
  // every column the full scan annotates; this asserts both halves —
  // the crafted questions are covered, and covered implies equal.
  core::NlidbPipeline pipeline(config_, provider_);
  data::GeneratorConfig gc;
  gc.num_tables = 6;
  gc.questions_per_table = 4;
  gc.seed = 22;
  data::WikiSqlGenerator gen(gc, data::TrainDomains());
  pipeline.Train(gen.Generate());

  SchemaRegistryOptions options;
  options.shortlist_k = 8;
  SchemaRegistry registry(provider_, options);
  sql::Table wide = WideTable();
  const TableStatsEntry& entry = registry.EntryFor(wide);

  std::vector<std::vector<std::string>> displays;
  for (int c = 0; c < wide.num_columns(); ++c) {
    displays.push_back(wide.schema().column(c).DisplayTokens());
  }

  const std::vector<std::vector<std::string>> questions = {
      {"what", "is", "the", "capital", "of", "france", "?"},
      {"which", "film", "has", "the", "director", "sofia", "garcia", "?"},
      {"what", "is", "the", "population", "of", "mayo", "county", "?"},
      {"how", "tall", "is", "the", "mountain", "?"},
  };
  int pruned_questions = 0;
  for (const auto& tokens : questions) {
    auto full = pipeline.annotator().Annotate(tokens, wide, entry);
    ASSERT_TRUE(full.ok()) << full.status();
    // The accept set the contract quantifies over: columns the
    // classifier scores at or above its 0.5 threshold (the same
    // PredictBatch decision the annotator's classifier pass makes).
    auto probs = pipeline.classifier().PredictBatch(tokens, displays);
    ASSERT_TRUE(probs.ok()) << probs.status();
    std::vector<int> shortlist =
        registry.ShortlistColumns(tokens, wide, entry);
    ASSERT_EQ(shortlist.size(), 8u);
    for (int c = 0; c < wide.num_columns(); ++c) {
      if ((*probs)[static_cast<size_t>(c)] >= 0.5f &&
          std::find(shortlist.begin(), shortlist.end(), c) ==
              shortlist.end()) {
        shortlist.push_back(c);
      }
    }
    std::sort(shortlist.begin(), shortlist.end());
    if (shortlist.size() < static_cast<size_t>(wide.num_columns())) {
      ++pruned_questions;
    }
    auto pruned = pipeline.annotator().Annotate(
        tokens, wide, entry, /*metadata=*/nullptr, /*ctx=*/nullptr,
        /*debug=*/nullptr, &shortlist);
    ASSERT_TRUE(pruned.ok()) << pruned.status();
    EXPECT_EQ(testing::AnnotationToString(*full),
              testing::AnnotationToString(*pruned));
  }
  // Pruning actually happened — the equality assertions above were not
  // all full scans in disguise.
  EXPECT_GE(pruned_questions, 1);

  // A shortlisted Annotate fingerprints the table once: the shortlist
  // ranks against the entry the pipeline already resolved.
  ASSERT_EQ(pipeline.registry().mode(), ScanMode::kShortlist);
  ASSERT_GT(wide.num_columns(), pipeline.registry().options().shortlist_k);
  metrics::Counter& hits =
      metrics::MetricsRegistry::Global().GetCounter("schema.stats_hits");
  metrics::Counter& computed =
      metrics::MetricsRegistry::Global().GetCounter("schema.stats_computed");
  const int64_t before = hits.Value() + computed.Value();
  ASSERT_TRUE(pipeline.Annotate(questions.front(), wide).ok());
  EXPECT_EQ(hits.Value() + computed.Value() - before, 1);
}

}  // namespace
}  // namespace schema
}  // namespace nlidb

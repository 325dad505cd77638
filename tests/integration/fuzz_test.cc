// Failure-injection / fuzz tests: the parsing and recovery layers must
// reject arbitrary garbage with a clean Status — never crash — and the
// annotator must survive adversarial questions (empty, enormous, symbol
// soup, unicode-ish bytes).
//
// Two layers: seeded random sweeps (nlidb::testing::RandomText /
// RandomBytes) for breadth, and committed seed-regression corpora under
// tests/corpus/ replayed verbatim so inputs that once broke a layer stay
// fixed forever. Add a line to the matching corpus file whenever a fuzz
// failure is minimized.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/annotation.h"
#include "core/annotator.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "sql/csv.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "testing/random_text.h"
#include "text/dependency.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace {

#if defined(NLIDB_SANITIZER_BUILD)
constexpr int kSweepScale = 10;  // sanitizer builds: same paths, fewer reps
#else
constexpr int kSweepScale = 1;
#endif

sql::Schema FuzzSchema() {
  return sql::Schema({{"alpha", sql::DataType::kText},
                      {"beta", sql::DataType::kReal}});
}

void ParseAndMaybeExecute(const std::string& text) {
  auto q = sql::ParseSql(text, FuzzSchema());
  if (q.ok()) {
    // Whatever parsed must be executable against a matching table.
    sql::Table t("t", FuzzSchema());
    ASSERT_TRUE(t.AddRow({sql::Value::Text("x"), sql::Value::Real(1)}).ok());
    auto r = sql::Execute(*q, t);
    (void)r;
  }
}

TEST(FuzzTest, SqlParserNeverCrashes) {
  Rng rng(101);
  int ok = 0;
  // Not scaled down under sanitizers: parsing is cheap, and the ok > 0
  // check below needs the full sweep before a random string happens to
  // form a valid query.
  for (int trial = 0; trial < 3000; ++trial) {
    auto q = sql::ParseSql(testing::RandomText(rng, 12), FuzzSchema());
    ok += q.ok();
    if (q.ok()) {
      sql::Table t("t", FuzzSchema());
      ASSERT_TRUE(t.AddRow({sql::Value::Text("x"), sql::Value::Real(1)}).ok());
      auto r = sql::Execute(*q, t);
      (void)r;
    }
  }
  // Some random strings do form valid queries.
  EXPECT_GT(ok, 0);
}

TEST(FuzzTest, SqlParserCorpusRegression) {
  for (const std::string& text : testing::LoadCorpus("sql_parser.txt")) {
    SCOPED_TRACE(text);
    ParseAndMaybeExecute(text);
  }
}

TEST(FuzzTest, RecoverSqlNeverCrashes) {
  Rng rng(102);
  core::Annotation annotation;
  core::MentionPair pair;
  pair.column = 0;
  pair.value_text = "x";
  annotation.pairs.push_back(pair);
  for (int trial = 0; trial < 3000 / kSweepScale; ++trial) {
    const auto tokens = SplitWhitespace(testing::RandomText(rng, 10));
    auto q = core::RecoverSql(tokens, annotation, FuzzSchema());
    (void)q;
  }
}

TEST(FuzzTest, RecoverSqlCorpusRegression) {
  core::Annotation annotation;
  core::MentionPair pair;
  pair.column = 0;
  pair.value_text = "x";
  annotation.pairs.push_back(pair);
  for (const std::string& text : testing::LoadCorpus("recover_sql.txt")) {
    SCOPED_TRACE(text);
    auto q = core::RecoverSql(SplitWhitespace(text), annotation, FuzzSchema());
    (void)q;
  }
}

TEST(FuzzTest, CsvParserNeverCrashes) {
  Rng rng(103);
  static const char* kCsvPieces[] = {"a,b", "\"", ",", "\n", "1", "x",
                                     "\"\"", ",,,", "a b c"};
  for (int trial = 0; trial < 2000 / kSweepScale; ++trial) {
    std::string csv;
    const int n = rng.NextInt(0, 8);
    for (int i = 0; i < n; ++i) {
      csv += kCsvPieces[rng.NextUint64(std::size(kCsvPieces))];
    }
    auto t = sql::ParseCsv(csv, "fuzz");
    (void)t;
  }
}

TEST(FuzzTest, CsvParserCorpusRegression) {
  for (const std::string& text : testing::LoadCorpus("csv.txt")) {
    SCOPED_TRACE(text);
    auto t = sql::ParseCsv(text, "fuzz");
    (void)t;
  }
}

void TokenizeAndParseTree(const std::string& text) {
  auto tokens = text::Tokenize(text);
  for (const auto& t : tokens) EXPECT_FALSE(t.empty());
  // The dependency parser must accept whatever the tokenizer emits.
  auto tree = text::DependencyTree::Parse(tokens);
  EXPECT_EQ(tree.size(), static_cast<int>(tokens.size()));
}

TEST(FuzzTest, TokenizerHandlesArbitraryBytes) {
  Rng rng(104);
  for (int trial = 0; trial < 500 / kSweepScale; ++trial) {
    TokenizeAndParseTree(testing::RandomBytes(rng, 64));
  }
}

TEST(FuzzTest, TokenizerCorpusRegression) {
  for (const std::string& text : testing::LoadCorpus("tokenizer_bytes.txt")) {
    SCOPED_TRACE(::testing::PrintToString(text));
    TokenizeAndParseTree(text);
  }
}

class AnnotatorFuzz : public ::testing::Test {
 protected:
  AnnotatorFuzz()
      : config_(core::ModelConfig::Tiny()),
        table_("t", FuzzSchema()) {
    data::RegisterDomainClusters(provider_);
    config_.word_dim = provider_.dim();
    EXPECT_TRUE(
        table_.AddRow({sql::Value::Text("hello"), sql::Value::Real(3)}).ok());
    entry_.stats =
        sql::ComputeTableStatistics(table_, provider_, &entry_.cells);
  }

  void Annotate(const std::string& question) {
    core::Annotator annotator(config_, provider_, nullptr, nullptr);
    auto tokens = text::Tokenize(question);
    if (tokens.empty()) return;
    StatusOr<core::Annotation> annotated =
        annotator.Annotate(tokens, table_, entry_);
    ASSERT_TRUE(annotated.ok()) << annotated.status();
    const core::Annotation& a = *annotated;
    for (const auto& p : a.pairs) {
      EXPECT_GE(p.column, 0);
      EXPECT_LT(p.column, table_.num_columns());
    }
  }

  text::EmbeddingProvider provider_;
  core::ModelConfig config_;
  sql::Table table_;
  schema::TableStatsEntry entry_;
};

TEST_F(AnnotatorFuzz, SurvivesAdversarialQuestions) {
  const char* nasty[] = {
      "",
      "?",
      "c1 v1 g1 c2 v2 g2",
      "alpha alpha alpha alpha alpha alpha alpha alpha alpha",
      "the the the the of of of",
      "hello hello hello 3 3 3",
  };
  for (const char* q : nasty) Annotate(q);
}

TEST_F(AnnotatorFuzz, CorpusRegression) {
  for (const std::string& q : testing::LoadCorpus("annotator_questions.txt")) {
    SCOPED_TRACE(q);
    Annotate(q);
  }
}

TEST(FuzzTest, GeneratedExamplesAlwaysRecoverable) {
  // Property: for any generated example, gold annotation -> s^a -> SQL
  // never fails across many seeds (complements annotation_test's
  // canonical-equality property with a pure no-crash sweep).
  for (uint64_t seed = 500; seed < 510; ++seed) {
    data::GeneratorConfig gc;
    gc.num_tables = 3;
    gc.questions_per_table = 4;
    gc.seed = seed;
    data::WikiSqlGenerator gen(gc, data::TrainDomains());
    data::Dataset ds = gen.Generate();
    for (const auto& ex : ds.examples) {
      auto gold = core::GoldAnnotation(ex);
      core::AnnotationOptions options;
      auto sa = core::BuildAnnotatedSql(ex.query, gold, ex.schema(), options);
      auto rec = core::RecoverSql(sa, gold, ex.schema());
      ASSERT_TRUE(rec.ok()) << ex.question << ": " << rec.status();
    }
  }
}

}  // namespace
}  // namespace nlidb

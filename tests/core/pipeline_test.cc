#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "testing/trace.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    provider_ = std::make_shared<text::EmbeddingProvider>();
    data::RegisterDomainClusters(*provider_);
    config_ = ModelConfig::Tiny();
    config_.word_dim = provider_->dim();
  }

  sql::Table FilmTable() {
    sql::Schema schema({{"film_name", sql::DataType::kText},
                        {"director", sql::DataType::kText}});
    sql::Table t("films", schema);
    EXPECT_TRUE(t.AddRow({sql::Value::Text("winter echo"),
                          sql::Value::Text("sofia garcia")})
                    .ok());
    return t;
  }

  std::shared_ptr<text::EmbeddingProvider> provider_;
  ModelConfig config_;
};

TEST_F(PipelineTest, AnnotationOptionsMirrorConfig) {
  config_.column_name_appending = false;
  config_.table_header_encoding = true;
  NlidbPipeline pipeline(config_, provider_);
  AnnotationOptions options = pipeline.annotation_options();
  EXPECT_FALSE(options.column_name_appending);
  EXPECT_TRUE(options.table_header_encoding);
}

TEST_F(PipelineTest, EmptyInputsRejectedCleanly) {
  NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  QueryRequest empty_question;
  empty_question.schema_ref = SchemaRef::Table(&table);
  empty_question.question = "";
  auto r1 = pipeline.Query(empty_question);
  EXPECT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  sql::Table empty("empty", sql::Schema{});
  QueryRequest empty_schema;
  empty_schema.schema_ref = SchemaRef::Table(&empty);
  empty_schema.tokens = {"hello"};
  auto r2 = pipeline.Query(empty_schema);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  QueryRequest null_table;
  null_table.question = "hello ?";
  auto r3 = pipeline.Query(null_table);
  EXPECT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PipelineTest, UntrainedPipelineDoesNotCrash) {
  NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  // Untrained models produce garbage, but the pipeline must return a
  // clean result either way: Query succeeds and reports any recovery
  // failure in-band instead of crashing.
  QueryRequest request;
  request.schema_ref = SchemaRef::Table(&table);
  request.question = "which film by sofia garcia ?";
  auto result = pipeline.Query(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->query.has_value(), result->recovery_status.ok());
}

TEST_F(PipelineTest, QueryReturnsEveryStage) {
  NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  QueryRequest request;
  request.schema_ref = SchemaRef::Table(&table);
  request.question = "which film name directed by sofia garcia ?";
  auto result = pipeline.Query(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->tokens.empty());
  EXPECT_FALSE(result->annotated_question.empty());
  EXPECT_FALSE(result->annotated_sql.empty());
  // Stage timings cover the whole pipeline, in order.
  ASSERT_FALSE(result->stages.children.empty());
  EXPECT_EQ(result->stages.name, "query");
  EXPECT_NE(result->stages.Child("annotate"), nullptr);
  EXPECT_NE(result->stages.Child("translate"), nullptr);
  EXPECT_EQ(result->stages.Child("no_such_stage"), nullptr);
  if (result->query.has_value()) {
    // execute=true by default: rows or an execution error, never neither.
    EXPECT_NE(result->rows.has_value(), !result->execution_status.ok());
  }
}

TEST_F(PipelineTest, StageTreeListsEveryStageInPipelineOrder) {
  data::GeneratorConfig gc;
  gc.num_tables = 6;
  gc.questions_per_table = 4;
  gc.seed = 1;
  const data::Splits splits = data::GenerateWikiSqlSplits(gc);
  NlidbPipeline pipeline(config_, provider_);
  pipeline.Train(splits.train);

  const std::vector<std::string> with_execute = {
      "tokenize", "resolve", "annotate", "build_qa",
      "translate", "recover", "execute"};
  const std::vector<std::string> without_execute(with_execute.begin(),
                                                 with_execute.end() - 1);
  auto child_names = [](const StageTiming& root) {
    std::vector<std::string> names;
    for (const StageTiming& child : root.children) {
      names.push_back(child.name);
      EXPECT_LE(child.wall_ns, root.wall_ns) << child.name;
    }
    return names;
  };
  int checked = 0;
  for (const data::Example& ex : splits.train.examples) {
    QueryRequest request;
    request.schema_ref = SchemaRef::Table(ex.table.get());
    request.tokens = ex.tokens;
    auto executed = pipeline.Query(request);
    ASSERT_TRUE(executed.ok()) << executed.status();
    // The execute stage runs only on a recovered query.
    if (!executed->query.has_value()) continue;
    EXPECT_EQ(executed->stages.name, "query");
    EXPECT_EQ(child_names(executed->stages), with_execute);

    request.execute = false;
    auto planned = pipeline.Query(request);
    ASSERT_TRUE(planned.ok()) << planned.status();
    EXPECT_EQ(child_names(planned->stages), without_execute);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(PipelineTest, QueryTimingsCanBeDisabled) {
  NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  QueryRequest request;
  request.schema_ref = SchemaRef::Table(&table);
  request.question = "which film name directed by sofia garcia ?";
  request.collect_timings = false;
  request.execute = false;
  auto result = pipeline.Query(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->stages.children.empty());
  EXPECT_FALSE(result->rows.has_value());
}

TEST_F(PipelineTest, EveryStageHistogramAdvancesOncePerQuery) {
  // The stage spans are the only timer: whether or not the tree is
  // collected, one Query adds exactly one sample to `pipeline.query_ns`
  // and to the `pipeline.<stage>_ns` histogram of every stage it ran.
  NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  const std::vector<std::string> all_stages = {
      "query", "tokenize", "resolve", "annotate", "build_qa",
      "translate", "recover", "execute"};
  std::vector<std::string> ran;  // the root and its children
  for (bool collect : {true, false}) {
    std::map<std::string, int64_t> before;
    for (const std::string& stage : all_stages) {
      before[stage] = registry.GetHistogram("pipeline." + stage + "_ns").Count();
    }
    QueryRequest request;
    request.schema_ref = SchemaRef::Table(&table);
    request.question = "which film name directed by sofia garcia ?";
    request.collect_timings = collect;
    auto result = pipeline.Query(request);
    ASSERT_TRUE(result.ok()) << result.status();
    if (collect) {
      ran = {result->stages.name};
      for (const StageTiming& child : result->stages.children) {
        ran.push_back(child.name);
      }
      ASSERT_EQ(ran.front(), "query");
    } else {
      EXPECT_TRUE(result->stages.children.empty());
    }
    for (const std::string& stage : all_stages) {
      const bool expected =
          std::find(ran.begin(), ran.end(), stage) != ran.end();
      EXPECT_EQ(
          registry.GetHistogram("pipeline." + stage + "_ns").Count() -
              before[stage],
          expected ? 1 : 0)
          << stage << " collect=" << collect;
    }
  }
}

TEST_F(PipelineTest, EverySpanOfAQuickstartRunHasAHistogram) {
  // The quickstart's workload (train, evaluate on unseen tables, one
  // executed query) with a sink installed: every span name it emits
  // shows up in RenderText() as a `<name>_ns` histogram holding at
  // least that many samples.
  data::GeneratorConfig gc;
  gc.num_tables = 6;
  gc.questions_per_table = 4;
  gc.seed = 1;
  const data::Splits splits = data::GenerateWikiSqlSplits(gc);
  auto sink = std::make_shared<trace::InMemorySink>();
  trace::SetSink(sink);
  NlidbPipeline pipeline(config_, provider_);
  pipeline.Train(splits.train);
  eval::EvaluatePipeline(pipeline, splits.test);
  QueryRequest request;
  request.schema_ref = SchemaRef::Table(splits.test.examples[0].table.get());
  request.tokens = splits.test.examples[0].tokens;
  ASSERT_TRUE(pipeline.Query(request).ok());
  trace::SetSink(nullptr);

  std::map<std::string, int64_t> spans;
  for (const trace::SpanRecord& r : sink->Records()) ++spans[r.name];
  ASSERT_GT(spans.count("pipeline.query"), 0u);
  const std::string text =
      "\n" + metrics::MetricsRegistry::Global().RenderText();
  for (const auto& [name, count] : spans) {
    EXPECT_NE(text.find("\n" + name + "_ns count="), std::string::npos)
        << name;
    EXPECT_GE(
        metrics::MetricsRegistry::Global().GetHistogram(name + "_ns").Count(),
        count)
        << name;
  }
}

TEST_F(PipelineTest, AnnotateUsesExactEvidenceWithoutTraining) {
  NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  const auto tokens =
      text::Tokenize("which film name directed by sofia garcia ?");
  StatusOr<Annotation> ann = pipeline.Annotate(tokens, table);
  ASSERT_TRUE(ann.ok()) << ann.status();
  // "sofia garcia" occurs verbatim in the director column.
  const int pair = ann->PairForColumn(1);
  ASSERT_GE(pair, 0);
  EXPECT_EQ(ann->pairs[pair].value_text, "sofia garcia");
}

TEST_F(PipelineTest, AnnotateRejectsEmptyTokens) {
  NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  StatusOr<Annotation> ann = pipeline.Annotate({}, table);
  EXPECT_FALSE(ann.ok());
  EXPECT_EQ(ann.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PipelineTest, RegistryStatsSharedAcrossCalls) {
  NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  const auto& s1 = pipeline.registry().EntryFor(table).stats;
  const auto& s2 = pipeline.registry().EntryFor(table).stats;
  EXPECT_EQ(&s1, &s2);
  // Content-keyed, not address-keyed: an identical copy elsewhere in
  // memory shares the same entry.
  sql::Table copy = FilmTable();
  EXPECT_EQ(&pipeline.registry().EntryFor(copy).stats, &s1);
}

TEST_F(PipelineTest, WideTableAnnotateScoresEveryUnmatchedColumn) {
  // The paper's annotator (Sec. IV-B) hands every column the
  // context-free pass left unmatched to the classifier, however wide the
  // table: here all 24 columns but "mountain".
  const char* kWords[] = {"population", "director", "county",  "film",
                          "year",       "price",    "team",    "city",
                          "color",      "author",   "title",   "length",
                          "weight",     "height",   "speed",   "genre",
                          "artist",     "album",    "country", "capital",
                          "river",      "mountain", "animal",  "flower"};
  std::vector<sql::ColumnDef> cols;
  std::vector<sql::Value> row;
  for (const char* w : kWords) {
    cols.push_back({w, sql::DataType::kText});
    row.push_back(sql::Value::Text(std::string("sample ") + w));
  }
  sql::Table wide("wide", sql::Schema(cols));
  ASSERT_TRUE(wide.AddRow(std::move(row)).ok());

  data::GeneratorConfig gc;
  gc.num_tables = 6;
  gc.questions_per_table = 4;
  gc.seed = 22;
  data::WikiSqlGenerator gen(gc, data::TrainDomains());
  NlidbPipeline pipeline(config_, provider_);
  pipeline.Train(gen.Generate());

  metrics::Counter& scored = metrics::MetricsRegistry::Global().GetCounter(
      "annotator.classifier_columns_scored");
  const auto tokens = text::Tokenize("how tall is the mountain ?");
  const int64_t before = scored.Value();
  StatusOr<Annotation> via_pipeline = pipeline.Annotate(tokens, wide);
  ASSERT_TRUE(via_pipeline.ok()) << via_pipeline.status();
  EXPECT_EQ(scored.Value() - before, 23);

  StatusOr<Annotation> direct = pipeline.annotator().Annotate(
      tokens, wide, pipeline.registry().EntryFor(wide));
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(testing::AnnotationToString(*via_pipeline),
            testing::AnnotationToString(*direct));
}

TEST_F(PipelineTest, QueryResolvesRegisteredTableByName) {
  NlidbPipeline pipeline(config_, provider_);
  auto table = std::make_shared<sql::Table>(FilmTable());
  auto id = pipeline.mutable_registry().Register(table);
  ASSERT_TRUE(id.ok()) << id.status();

  QueryRequest request;
  request.schema_ref = SchemaRef::Name("films");
  request.question = "which film name directed by sofia garcia ?";
  auto result = pipeline.Query(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->table_name, "films");
  EXPECT_EQ(result->table_id, id.value());
  EXPECT_NE(result->stages.Child("resolve"), nullptr);

  QueryRequest by_id;
  by_id.schema_ref = SchemaRef::Id(id.value());
  by_id.question = "which film name directed by sofia garcia ?";
  auto result2 = pipeline.Query(by_id);
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_EQ(result2->table_name, "films");

  QueryRequest unknown;
  unknown.schema_ref = SchemaRef::Name("no_such_table");
  unknown.question = "anything ?";
  auto missing = pipeline.Query(unknown);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(PipelineTest, QueryRoutesWhenNoTableGiven) {
  NlidbPipeline pipeline(config_, provider_);
  auto films = std::make_shared<sql::Table>(FilmTable());
  sql::Schema schema({{"county", sql::DataType::kText},
                      {"population", sql::DataType::kReal}});
  auto counties = std::make_shared<sql::Table>("counties", schema);
  ASSERT_TRUE(
      counties->AddRow({sql::Value::Text("mayo"), sql::Value::Real(130507)})
          .ok());
  ASSERT_TRUE(pipeline.mutable_registry().Register(films).ok());
  ASSERT_TRUE(pipeline.mutable_registry().Register(counties).ok());

  QueryRequest request;
  request.schema_ref = SchemaRef::Route();
  request.question = "what is the population of mayo ?";
  auto result = pipeline.Query(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->table_name, "counties");
  ASSERT_FALSE(result->routing.empty());
  EXPECT_EQ(result->routing.front().name, "counties");
}

TEST_F(PipelineTest, MetadataInjectionImprovesAnnotation) {
  // The Sec. II mechanism: with P_c metadata, a paraphrase mention
  // becomes a context-free match even for an untrained pipeline.
  NlidbPipeline pipeline(config_, provider_);
  sql::Schema schema({{"population", sql::DataType::kReal},
                      {"county", sql::DataType::kText}});
  sql::Table table("gaeltacht", schema);
  ASSERT_TRUE(
      table.AddRow({sql::Value::Real(356), sql::Value::Text("mayo")}).ok());
  NlMetadata metadata;
  metadata.column_phrases = {{"headcount figure"}, {}};
  const auto tokens = text::Tokenize("what is the headcount figure of mayo ?");

  StatusOr<Annotation> without = pipeline.Annotate(tokens, table);
  pipeline.set_metadata(&metadata);
  StatusOr<Annotation> with = pipeline.Annotate(tokens, table);
  pipeline.set_metadata(nullptr);

  ASSERT_TRUE(without.ok()) << without.status();
  ASSERT_TRUE(with.ok()) << with.status();
  auto has_population_span = [](const Annotation& a) {
    const int p = a.PairForColumn(0);
    return p >= 0 && !a.pairs[p].column_span.empty();
  };
  EXPECT_TRUE(has_population_span(*with));
  EXPECT_FALSE(has_population_span(*without));
}

TEST_F(PipelineTest, TrainReturnsPairCounts) {
  data::GeneratorConfig gc;
  gc.num_tables = 4;
  gc.questions_per_table = 3;
  gc.seed = 66;
  data::WikiSqlGenerator gen(gc, data::TrainDomains());
  data::Dataset ds = gen.Generate();
  NlidbPipeline pipeline(config_, provider_);
  TrainReport report = pipeline.Train(ds);
  EXPECT_GT(report.classifier_pairs, 0);
  EXPECT_GT(report.value_pairs, 0);
  EXPECT_EQ(report.seq2seq_pairs, static_cast<int>(ds.size()));
}

}  // namespace
}  // namespace core
}  // namespace nlidb

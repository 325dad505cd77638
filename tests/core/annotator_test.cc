#include "core/annotator.h"

#include <gtest/gtest.h>

#include "data/generator.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace core {
namespace {

class AnnotatorTest : public ::testing::Test {
 protected:
  AnnotatorTest() : provider_(48) {
    data::RegisterDomainClusters(provider_);
    config_ = ModelConfig::Tiny();
    config_.word_dim = 48;
  }

  /// Annotator with context-free matching only (no learned models).
  Annotator MatchOnlyAnnotator() {
    return Annotator(config_, provider_, nullptr, nullptr);
  }

  sql::Table FilmTable() {
    sql::Schema schema({{"film_name", sql::DataType::kText},
                        {"director", sql::DataType::kText},
                        {"year", sql::DataType::kReal}});
    sql::Table t("films", schema);
    EXPECT_TRUE(t.AddRow({sql::Value::Text("aurora crown"),
                          sql::Value::Text("jerzy antczak"),
                          sql::Value::Real(1971)})
                    .ok());
    EXPECT_TRUE(t.AddRow({sql::Value::Text("winter echo"),
                          sql::Value::Text("sofia garcia"),
                          sql::Value::Real(1999)})
                    .ok());
    return t;
  }

  text::EmbeddingProvider provider_;
  ModelConfig config_;
};

TEST_F(AnnotatorTest, ContextFreeExactMatch) {
  Annotator ann = MatchOnlyAnnotator();
  const auto tokens = text::Tokenize("what is the director of aurora crown");
  auto span = ann.ContextFreeMatch(tokens, {"director"});
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(*span, (text::Span{3, 4}));
}

TEST_F(AnnotatorTest, ContextFreeFuzzyMatch) {
  // "directors" (morphological variant) must still match "director".
  Annotator ann = MatchOnlyAnnotator();
  const auto tokens = text::Tokenize("who are the directors here");
  auto span = ann.ContextFreeMatch(tokens, {"director"});
  ASSERT_TRUE(span.has_value());
  EXPECT_TRUE(span->Contains(3));
}

TEST_F(AnnotatorTest, ContextFreeSemanticMatch) {
  // "filmmaker" shares the director cluster: semantic (cosine) match.
  Annotator ann = MatchOnlyAnnotator();
  const auto tokens = text::Tokenize("who is the filmmaker of winter echo");
  auto span = ann.ContextFreeMatch(tokens, {"director"});
  ASSERT_TRUE(span.has_value());
  EXPECT_TRUE(span->Contains(3));
}

TEST_F(AnnotatorTest, ContextFreeRejectsUnrelated) {
  Annotator ann = MatchOnlyAnnotator();
  const auto tokens = text::Tokenize("how many people live in mayo");
  EXPECT_FALSE(ann.ContextFreeMatch(tokens, {"director"}).has_value());
}

TEST_F(AnnotatorTest, ContextFreeNeverMatchesPureStopWords) {
  Annotator ann = MatchOnlyAnnotator();
  const auto tokens = text::Tokenize("how many are there ?");
  // "total" is cluster-related to "how many" but a pure stop-word window
  // must never be a column mention.
  EXPECT_FALSE(ann.ContextFreeMatch(tokens, {"total"}).has_value());
}

TEST_F(AnnotatorTest, ExactCellValueMatches) {
  sql::Table t = FilmTable();
  const auto tokens =
      text::Tokenize("which film directed by jerzy antczak in 1971 ?");
  auto detections = ExactCellValueMatches(tokens, t);
  // "jerzy antczak" (director) and "1971" (year) occur verbatim.
  bool found_name = false, found_year = false;
  for (const auto& d : detections) {
    const std::string span_text = text::SpanText(tokens, d.span);
    if (span_text == "jerzy antczak") {
      found_name = true;
      EXPECT_EQ(d.column_scores[0].first, 1);
    }
    if (span_text == "1971") {
      found_year = true;
      EXPECT_EQ(d.column_scores[0].first, 2);
    }
  }
  EXPECT_TRUE(found_name);
  EXPECT_TRUE(found_year);
}

TEST_F(AnnotatorTest, ExactCellMatchSubsumesSubSpans) {
  sql::Schema schema({{"date", sql::DataType::kText},
                      {"laps", sql::DataType::kReal}});
  sql::Table t("races", schema);
  ASSERT_TRUE(t.AddRow({sql::Value::Text("july 17"), sql::Value::Real(17)}).ok());
  const auto tokens = text::Tokenize("races on july 17 please");
  auto detections = ExactCellValueMatches(tokens, t);
  // "17" alone is inside "july 17": only the maximal span remains.
  for (const auto& d : detections) {
    EXPECT_EQ(text::SpanText(tokens, d.span), "july 17");
  }
  ASSERT_EQ(detections.size(), 1u);
}

TEST_F(AnnotatorTest, AnnotateWithoutModelsUsesExactEvidence) {
  sql::Table t = FilmTable();
  Annotator ann = MatchOnlyAnnotator();
  schema::TableStatsEntry entry;
  entry.stats = sql::ComputeTableStatistics(t, provider_, &entry.cells);
  const auto tokens =
      text::Tokenize("what is the film name directed by jerzy antczak ?");
  StatusOr<Annotation> a = ann.Annotate(tokens, t, entry);
  ASSERT_TRUE(a.ok()) << a.status();
  // film_name matched context-free; "jerzy antczak" matched exactly.
  const int film_pair = a->PairForColumn(0);
  const int director_pair = a->PairForColumn(1);
  ASSERT_GE(film_pair, 0);
  ASSERT_GE(director_pair, 0);
  EXPECT_EQ(a->pairs[director_pair].value_text, "jerzy antczak");
}

TEST_F(AnnotatorTest, MetadataPhrasesProvideExtraCandidates) {
  // Sec. II: P_c metadata ("how many people live in" for population).
  sql::Schema schema({{"population", sql::DataType::kReal},
                      {"county", sql::DataType::kText}});
  sql::Table t("gaeltacht", schema);
  NlMetadata metadata;
  metadata.column_phrases = {{"number of residents"}, {}};
  Annotator ann = MatchOnlyAnnotator();
  const auto tokens = text::Tokenize("what is the number of residents here");
  auto candidates = ann.DetectColumnMentions(tokens, t, &metadata).value();
  bool population_found = false;
  for (const auto& c : candidates) {
    population_found |= c.column == 0 && !c.span.empty();
  }
  EXPECT_TRUE(population_found);
}

}  // namespace
}  // namespace core
}  // namespace nlidb

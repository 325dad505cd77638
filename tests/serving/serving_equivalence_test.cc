// Serving bitwise-equivalence battery (DESIGN.md §13): a query served
// through the ServingEngine — admission queue, worker pool — must
// return exactly what a sequential `pipeline.Query()` call returns:
// same annotated question and SQL tokens, same translate_score float
// BITS, same statuses and degraded flags, same executed rows. Swept
// over concurrent client counts {1, 4, 32, 2x corpus} and every
// DecodeMode. Fast ≡ reference across beam widths is
// differential_fuzz_test's job.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/seq2seq.h"
#include "data/generator.h"
#include "serving/serving.h"
#include "testing/decode_mode.h"

namespace nlidb {
namespace {

uint32_t FloatBits(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

class ServingEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    provider_ = new std::shared_ptr<text::EmbeddingProvider>(
        std::make_shared<text::EmbeddingProvider>());
    data::RegisterDomainClusters(**provider_);

    data::GeneratorConfig gc;
    gc.num_tables = 8;
    gc.questions_per_table = 4;
    gc.seed = 1234;
    splits_ = new data::Splits(data::GenerateWikiSqlSplits(gc));

    core::ModelConfig config = core::ModelConfig::Tiny();
    config.word_dim = (*provider_)->dim();
    config.classifier_epochs = 2;
    config.value_epochs = 2;
    config.seq2seq_epochs = 3;
    pipeline_ = new core::NlidbPipeline(config, *provider_);
    pipeline_->Train(splits_->train);
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    delete splits_;
    delete provider_;
  }

  /// The held-out examples the sweeps cycle through.
  static std::vector<const data::Example*> Corpus(size_t limit) {
    std::vector<const data::Example*> out;
    for (const data::Example& ex : splits_->test.examples) {
      out.push_back(&ex);
      if (out.size() >= limit) break;
    }
    return out;
  }

  static core::QueryRequest RequestFor(const data::Example& ex) {
    core::QueryRequest request;
    request.schema_ref = core::SchemaRef::Table(ex.table.get());
    request.tokens = ex.tokens;
    return request;
  }

  /// Asserts `served` equals the sequential `expected` result bit for
  /// bit in every caller-visible field.
  static void ExpectSame(const serving::ServedResult& served,
                         const StatusOr<core::QueryResult>& expected,
                         const std::string& label) {
    ASSERT_EQ(served.status.ok(), expected.ok()) << label;
    if (!expected.ok()) {
      EXPECT_EQ(served.status.code(), expected.status().code()) << label;
      EXPECT_EQ(served.status.message(), expected.status().message()) << label;
      return;
    }
    const core::QueryResult& a = served.result;
    const core::QueryResult& b = expected.value();
    EXPECT_EQ(a.tokens, b.tokens) << label;
    EXPECT_EQ(a.annotated_question, b.annotated_question) << label;
    EXPECT_EQ(a.annotated_sql, b.annotated_sql) << label;
    EXPECT_EQ(FloatBits(a.translate_score), FloatBits(b.translate_score))
        << label;
    EXPECT_EQ(a.degraded_greedy_decode, b.degraded_greedy_decode) << label;
    EXPECT_EQ(a.recovery_status.code(), b.recovery_status.code()) << label;
    EXPECT_EQ(a.execution_status.code(), b.execution_status.code()) << label;
    EXPECT_EQ(a.rows.has_value(), b.rows.has_value()) << label;
    if (a.rows.has_value() && b.rows.has_value()) {
      EXPECT_EQ(*a.rows, *b.rows) << label;
    }
  }

  static std::shared_ptr<text::EmbeddingProvider>* provider_;
  static data::Splits* splits_;
  static core::NlidbPipeline* pipeline_;
};

std::shared_ptr<text::EmbeddingProvider>* ServingEquivalenceTest::provider_ =
    nullptr;
data::Splits* ServingEquivalenceTest::splits_ = nullptr;
core::NlidbPipeline* ServingEquivalenceTest::pipeline_ = nullptr;

TEST_F(ServingEquivalenceTest, EngineMatchesSequentialAcrossClientsAndModes) {
  const std::vector<const data::Example*> corpus = Corpus(8);
  ASSERT_FALSE(corpus.empty());
  for (const core::DecodeMode mode :
       {core::DecodeMode::kFast, core::DecodeMode::kFastUnmasked,
        core::DecodeMode::kReference, core::DecodeMode::kReferenceMasked}) {
    testing::ScopedDecodeMode pin(pipeline_, mode);
    const char* name = core::Seq2SeqTranslator::DecodeModeName(mode);
    std::vector<StatusOr<core::QueryResult>> sequential;
    for (const data::Example* ex : corpus) {
      sequential.push_back(pipeline_->Query(RequestFor(*ex)));
    }
    // 2x corpus: every request is resubmitted once.
    const int resubmitted = 2 * static_cast<int>(corpus.size());
    for (const int clients : {1, 4, 32, resubmitted}) {
      serving::ServingOptions options;
      options.num_workers = 4;
      serving::ServingEngine engine(*pipeline_, options);
      std::vector<std::shared_ptr<serving::ServingEngine::Ticket>> tickets;
      for (int i = 0; i < clients; ++i) {
        tickets.push_back(
            engine.Submit(RequestFor(*corpus[i % corpus.size()])));
      }
      for (int i = 0; i < clients; ++i) {
        ExpectSame(tickets[i]->Take(), sequential[i % corpus.size()],
                   std::string(name) + " clients=" +
                       std::to_string(clients) + " i=" + std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace nlidb

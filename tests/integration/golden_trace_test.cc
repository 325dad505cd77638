// Golden-trace harness: trains one tiny pipeline on a fixed generator
// corpus, serializes every pipeline stage (classifier probabilities,
// mention pairs, q^a, decoded s^a, recovered SQL, executor results) for a
// held-out corpus, and asserts that the trace is (a) bitwise identical
// across both GEMM ISA tiers, and (b) equal to the committed golden file. Regenerate with NLIDB_UPDATE_GOLDENS=1
// after an intentional behavior change (DESIGN.md "Correctness
// architecture").

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/trace.h"
#include "core/pipeline.h"
#include "data/generator.h"
#include "tensor/gemm_kernels.h"
#include "testing/decode_mode.h"
#include "testing/golden.h"
#include "testing/trace.h"

namespace nlidb {
namespace {

class GoldenTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    provider_ = new std::shared_ptr<text::EmbeddingProvider>(
        std::make_shared<text::EmbeddingProvider>());
    data::RegisterDomainClusters(**provider_);

    // Training corpus: small but non-trivial, fixed seed.
    data::GeneratorConfig train_gc;
    train_gc.num_tables = 8;
    train_gc.questions_per_table = 4;
    train_gc.seed = 1234;
    data::Splits splits = data::GenerateWikiSqlSplits(train_gc);

    core::ModelConfig config = core::ModelConfig::Tiny();
    config.word_dim = (*provider_)->dim();
    config.classifier_epochs = 2;
    config.value_epochs = 2;
    config.seq2seq_epochs = 3;
    pipeline_ = new core::NlidbPipeline(config, *provider_);
    pipeline_->Train(splits.train);

    // Trace corpus: tables the model never saw, fixed seed, covering the
    // generator's mixed question styles.
    data::GeneratorConfig trace_gc;
    trace_gc.num_tables = 4;
    trace_gc.questions_per_table = 3;
    trace_gc.seed = 4321;
    data::WikiSqlGenerator gen(trace_gc, data::TrainDomains());
    trace_corpus_ = new data::Dataset(gen.Generate());
  }

  static void TearDownTestSuite() {
    delete trace_corpus_;
    delete pipeline_;
    delete provider_;
    gemm::SetTier(gemm::Tier::kAuto);
  }

  static std::shared_ptr<text::EmbeddingProvider>* provider_;
  static core::NlidbPipeline* pipeline_;
  static data::Dataset* trace_corpus_;
};

std::shared_ptr<text::EmbeddingProvider>* GoldenTraceTest::provider_ = nullptr;
core::NlidbPipeline* GoldenTraceTest::pipeline_ = nullptr;
data::Dataset* GoldenTraceTest::trace_corpus_ = nullptr;

TEST_F(GoldenTraceTest, BitwiseIdenticalAcrossTiers) {
  // Every GEMM tier must produce the same bytes: the substrate's
  // determinism contract, end to end through the real pipeline rather
  // than kernel microtests.
  std::map<std::string, std::string> traces;
  for (gemm::Tier tier : {gemm::Tier::kBase, gemm::Tier::kAuto}) {
    gemm::SetTier(tier);
    const std::string tier_name =
        gemm::ActiveTier() == gemm::Tier::kAvx2 ? "avx2" : "base";
    traces[tier_name] = testing::TraceDataset(*pipeline_, *trace_corpus_);
  }
  gemm::SetTier(gemm::Tier::kAuto);

  const auto& reference = *traces.begin();
  for (const auto& [key, trace] : traces) {
    EXPECT_EQ(trace, reference.second)
        << "pipeline trace diverges between " << reference.first << " and "
        << key;
  }
}

TEST_F(GoldenTraceTest, MatchesCommittedGolden) {
  // The reference decoder is the behavior baseline: its trace is the
  // committed golden, byte for byte.
  testing::ScopedDecodeMode mode(pipeline_, core::DecodeMode::kReference);
  const std::string trace = testing::TraceDataset(*pipeline_, *trace_corpus_);
  EXPECT_TRUE(testing::MatchesGolden("pipeline_trace.golden", trace));
}

TEST_F(GoldenTraceTest, FastUnmaskedMatchesReferenceGolden) {
  // The bitwise-equivalence gate for the graph-free fast path: decoding
  // with kFastUnmasked must reproduce the *reference* golden exactly —
  // same bytes, not just same answers (DESIGN.md §12).
  testing::ScopedDecodeMode mode(pipeline_, core::DecodeMode::kFastUnmasked);
  const std::string trace = testing::TraceDataset(*pipeline_, *trace_corpus_);
  EXPECT_TRUE(testing::MatchesGolden("pipeline_trace.golden", trace));
}

TEST_F(GoldenTraceTest, MaskedDefaultMatchesCommittedGolden) {
  // The serving default (kFast = fast path + grammar mask) has its own
  // golden: the mask legitimately restricts decoding to well-formed s^a,
  // so its trace differs from the reference, but it must still be pinned.
  testing::ScopedDecodeMode mode(pipeline_, core::DecodeMode::kFast);
  const std::string trace = testing::TraceDataset(*pipeline_, *trace_corpus_);
  EXPECT_TRUE(testing::MatchesGolden("pipeline_trace_masked.golden", trace));
}

TEST_F(GoldenTraceTest, MaskedFastMatchesMaskedReference) {
  // Pairwise equivalence under the mask: kFast and kReferenceMasked are
  // two implementations of the same search and must agree byte for byte.
  std::string fast, reference_masked;
  {
    testing::ScopedDecodeMode mode(pipeline_, core::DecodeMode::kFast);
    fast = testing::TraceDataset(*pipeline_, *trace_corpus_);
  }
  {
    testing::ScopedDecodeMode mode(pipeline_,
                                   core::DecodeMode::kReferenceMasked);
    reference_masked = testing::TraceDataset(*pipeline_, *trace_corpus_);
  }
  EXPECT_EQ(fast, reference_masked)
      << "masked fast path diverges from the masked reference";
}

TEST_F(GoldenTraceTest, InstrumentationDoesNotPerturbNumerics) {
  // The observability layer must be purely observational: running the
  // exact same corpus with tracing enabled (spans recorded to an
  // in-memory sink) must produce a byte-identical pipeline trace,
  // matching the untraced bytes.
  const std::string untraced = testing::TraceDataset(*pipeline_, *trace_corpus_);

  auto sink = std::make_shared<trace::InMemorySink>();
  trace::SetSink(sink);
  const std::string traced = testing::TraceDataset(*pipeline_, *trace_corpus_);
  trace::SetSink(nullptr);

  EXPECT_EQ(traced, untraced) << "tracing changed pipeline numerics";
  // And the instrumentation actually fired: the hot path emitted spans
  // for every pipeline stage while the sink was installed.
  std::map<std::string, int> by_name;
  for (const trace::SpanRecord& r : sink->Records()) ++by_name[r.name];
  for (const char* stage :
       {"pipeline.query", "pipeline.annotate", "pipeline.translate",
        "annotator.annotate", "annotator.classifier", "seq2seq.encode",
        "seq2seq.decode"}) {
    EXPECT_GT(by_name[stage], 0) << "no spans for " << stage;
  }
}

TEST_F(GoldenTraceTest, TraceCoversEveryStage) {
  // Self-check of the harness: a trace that silently dropped a stage
  // would make the golden comparison vacuous for that stage.
  const std::string trace = testing::TraceDataset(*pipeline_, *trace_corpus_);
  for (const char* marker :
       {"# nlidb pipeline trace v1", "case 0", "tokens: ", "probs: ",
        "qa: ", "sa: ", "sql: "}) {
    EXPECT_NE(trace.find(marker), std::string::npos)
        << "trace is missing stage marker '" << marker << "'";
  }
  // The fixed corpus must exercise recovery + execution on at least one
  // example (not every decode recovers, but a corpus where none does
  // would hide executor drift).
  EXPECT_NE(trace.find("exec: "), std::string::npos)
      << "no example in the trace corpus reached execution";
}

}  // namespace
}  // namespace nlidb

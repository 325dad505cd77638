// Property-based differential fuzzing (seeded, deterministic): random
// schemas/tables/questions from data/generator drive cross-implementation
// invariants of the inference substrate:
//
//   1. tiled GEMM kernels (both ISA tiers) are bitwise equal to the
//      *Reference loops;
//   2. every PredictBatch row is bitwise equal to that column scored
//      alone and to the sigmoid of its one-column Forward, and the
//      graph-free pass's logits and influence profiles equal autograd's;
//   3. executor results are stable under row shuffling;
//   4. exact cell-value matching through the cell index equals the
//      per-question scan of every cell it replaced;
//   5. value detection's batched column scores equal the per-column
//      autograd scores.
//
// Every case derives from a fixed seed, so a failure reproduces exactly.
// Release runs >= 200 cases; sanitizer builds scale the counts down
// (they run the same paths 5-20x slower).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "common/strings.h"
#include "core/adversarial.h"
#include "core/annotator.h"
#include "core/seq2seq.h"
#include "data/generator.h"
#include "sql/cell_index.h"
#include "sql/executor.h"
#include "sql/statistics.h"
#include "tensor/gemm_kernels.h"
#include "tensor/tensor.h"
#include "text/tokenizer.h"
#include "testing/influence.h"
#include "testing/trace.h"

namespace nlidb {
namespace {

#if defined(NLIDB_SANITIZER_BUILD)
constexpr int kScale = 4;  // divide iteration counts under sanitizers
#else
constexpr int kScale = 1;
#endif

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Tensor RandomTensor(Rng& rng, int rows, int cols, float zero_probability) {
  Tensor t({rows, cols});
  float* p = t.data();
  for (size_t i = 0; i < t.size(); ++i) {
    p[i] = rng.NextBool(zero_probability) ? 0.0f : rng.NextGaussian();
  }
  return t;
}

/// The exact-value matcher as it was before the cell index: every cell
/// of every column lower-cased, de-duplicated by a linear scan over the
/// column's earlier displays and re-tokenized, on every question. Kept
/// here only as the oracle for core::ExactCellValueMatches.
std::vector<core::ValueDetector::Detection> ExactCellValueScan(
    const std::vector<std::string>& tokens, const sql::Table& table) {
  std::vector<core::ValueDetector::Detection> out;
  const int n = static_cast<int>(tokens.size());
  for (int c = 0; c < table.num_columns(); ++c) {
    std::vector<std::string> seen;
    for (int r = 0; r < table.num_rows(); ++r) {
      const std::string display = ToLower(table.Cell(r, c).ToString());
      bool dup = false;
      for (const auto& s : seen) dup = dup || s == display;
      if (dup) continue;
      seen.push_back(display);
      const std::vector<std::string> cell_tokens = text::Tokenize(display);
      const int m = static_cast<int>(cell_tokens.size());
      if (m == 0 || m > 5) continue;
      for (int i = 0; i + m <= n; ++i) {
        bool match = true;
        for (int j = 0; j < m && match; ++j) {
          match = tokens[i + j] == cell_tokens[j];
        }
        if (!match) continue;
        core::ValueDetector::Detection det;
        det.span = text::Span{i, i + m};
        det.column_scores.push_back({c, 1.0f});
        out.push_back(std::move(det));
      }
    }
  }
  std::vector<core::ValueDetector::Detection> maximal;
  for (auto& det : out) {
    bool subsumed = false;
    for (const auto& other : out) {
      if (other.span.length() > det.span.length() &&
          other.span.begin <= det.span.begin &&
          other.span.end >= det.span.end) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) maximal.push_back(std::move(det));
  }
  std::vector<core::ValueDetector::Detection> merged;
  for (auto& det : maximal) {
    bool found = false;
    for (auto& m : merged) {
      if (m.span == det.span) {
        bool has = false;
        for (auto& cs : m.column_scores) {
          has = has || cs.first == det.column_scores[0].first;
        }
        if (!has) m.column_scores.push_back(det.column_scores[0]);
        found = true;
        break;
      }
    }
    if (!found) merged.push_back(std::move(det));
  }
  return merged;
}

/// Spans, column lists (with scores) and order of a detection list.
std::string DetectionsToString(
    const std::vector<core::ValueDetector::Detection>& detections) {
  std::string out;
  for (const auto& det : detections) {
    out += "[" + std::to_string(det.span.begin) + "," +
           std::to_string(det.span.end) + ")";
    for (const auto& [col, score] : det.column_scores) {
      out += " c" + std::to_string(col) + "=" + testing::FloatBits(score);
    }
    out += "; ";
  }
  return out;
}

class DifferentialFuzzTest : public ::testing::Test {
 protected:
  void TearDown() override { gemm::SetTier(gemm::Tier::kAuto); }
};

TEST_F(DifferentialFuzzTest, TiledGemmMatchesReferenceBitwise) {
  Rng rng(2026);
  int cases = 0;
  const int shapes = 40 / kScale;
  for (int trial = 0; trial < shapes; ++trial) {
    // Mostly small odd shapes (tile-remainder coverage); every 10th trial
    // is a large square whose size spans many full tiles plus a tail.
    int m, k, n;
    if (trial % 10 == 9) {
      m = k = n = rng.NextInt(160, 176);
    } else {
      m = rng.NextInt(1, 40);
      k = rng.NextInt(1, 40);
      n = rng.NextInt(1, 40);
    }
    // The sparse probe in MatMulTransposeAAccumulate flips implementation
    // at >= 50% zeros; cover both sides.
    const float zero_p = rng.NextBool() ? 0.0f : 0.7f;
    const Tensor a = RandomTensor(rng, m, k, zero_p);
    const Tensor at = a.Transposed();
    const Tensor b = RandomTensor(rng, k, n, 0.0f);
    const Tensor bt = b.Transposed();
    const Tensor seed_out = RandomTensor(rng, m, n, 0.0f);

    Tensor want_ab = seed_out, want_atb = seed_out, want_abt = seed_out;
    MatMulAccumulateReference(a, b, want_ab);
    MatMulTransposeAAccumulateReference(at, b, want_atb);
    MatMulTransposeBAccumulateReference(a, bt, want_abt);

    for (gemm::Tier tier : {gemm::Tier::kBase, gemm::Tier::kAuto}) {
      gemm::SetTier(tier);
      Tensor got_ab = seed_out, got_atb = seed_out, got_abt = seed_out;
      MatMulAccumulate(a, b, got_ab);
      MatMulTransposeAAccumulate(at, b, got_atb);
      MatMulTransposeBAccumulate(a, bt, got_abt);
      EXPECT_TRUE(BitwiseEqual(got_ab, want_ab))
          << "AB " << m << "x" << k << "x" << n << " trial " << trial;
      EXPECT_TRUE(BitwiseEqual(got_atb, want_atb))
          << "AtB " << m << "x" << k << "x" << n << " trial " << trial;
      EXPECT_TRUE(BitwiseEqual(got_abt, want_abt))
          << "ABt " << m << "x" << k << "x" << n << " trial " << trial;
      cases += 3;
    }
  }
  RecordProperty("cases", cases);
#if !defined(NLIDB_SANITIZER_BUILD)
  EXPECT_GE(cases, 200);
#endif
}

class ClassifierFuzz : public DifferentialFuzzTest {
 protected:
  static void SetUpTestSuite() {
    provider_ = new text::EmbeddingProvider();
    data::RegisterDomainClusters(*provider_);
    config_ = new core::ModelConfig(core::ModelConfig::Tiny());
    config_->word_dim = provider_->dim();
    classifier_ = new core::ColumnMentionClassifier(*config_, *provider_);

    data::GeneratorConfig gc;
    gc.num_tables = 8;
    gc.questions_per_table = 4;
    gc.seed = 99;
    data::WikiSqlGenerator gen(gc, data::TrainDomains());
    corpus_ = new data::Dataset(gen.Generate());
    for (const auto& ex : corpus_->examples) {
      classifier_->AddVocabulary(ex.tokens);
    }
  }

  static void TearDownTestSuite() {
    delete corpus_;
    delete classifier_;
    delete config_;
    delete provider_;
  }

  static text::EmbeddingProvider* provider_;
  static core::ModelConfig* config_;
  static core::ColumnMentionClassifier* classifier_;
  static data::Dataset* corpus_;
};

text::EmbeddingProvider* ClassifierFuzz::provider_ = nullptr;
core::ModelConfig* ClassifierFuzz::config_ = nullptr;
core::ColumnMentionClassifier* ClassifierFuzz::classifier_ = nullptr;
data::Dataset* ClassifierFuzz::corpus_ = nullptr;

TEST_F(ClassifierFuzz, PredictBatchRowsMatchSingleColumnBitwise) {
  const int limit =
      std::min<int>(16 / kScale + 4, corpus_->examples.size());
  int cases = 0;
  for (int i = 0; i < limit; ++i) {
    const data::Example& ex = corpus_->examples[i];
    const sql::Schema& schema = ex.schema();
    std::vector<std::vector<std::string>> columns;
    for (int c = 0; c < schema.num_columns(); ++c) {
      columns.push_back(schema.column(c).DisplayTokens());
    }
    const std::vector<float> batch =
        classifier_->PredictBatch(ex.tokens, columns).value();
    ASSERT_EQ(batch.size(), columns.size());
    for (size_t c = 0; c < columns.size(); ++c) {
      const float single =
          classifier_->PredictBatch(ex.tokens, {columns[c]}).value()[0];
      const float x =
          classifier_->Forward(ex.tokens, columns[c]).value().logit->value(0, 0);
      const float forward = 1.0f / (1.0f + std::exp(-x));
      EXPECT_EQ(testing::FloatBits(batch[c]), testing::FloatBits(single))
          << "example " << i << " column " << c << " (" << ex.question << ")";
      EXPECT_EQ(testing::FloatBits(batch[c]), testing::FloatBits(forward))
          << "example " << i << " column " << c << " (" << ex.question << ")";
      ++cases;
    }
  }
  RecordProperty("cases", cases);
  EXPECT_GT(cases, 0);
}

// Scores `columns` with one graph-free pass on each GEMM tier and checks
// every column against autograd on its one-column Forward: the logit and
// probability bits, and every influence-profile entry against the
// Backward oracle. Returns the number of (tier, column) cases checked.
int ExpectPassMatchesAutograd(const core::ColumnMentionClassifier& clf,
                              const core::ModelConfig& config,
                              const std::vector<std::string>& question,
                              const std::vector<std::vector<std::string>>& columns,
                              const std::string& where) {
  const core::AdversarialLocator locator(config);
  int cases = 0;
  for (gemm::Tier tier : {gemm::Tier::kBase, gemm::Tier::kAuto}) {
    gemm::SetTier(tier);
    core::ColumnMentionClassifier::Pass pass(clf);
    const Status run = pass.Run(question, columns);
    EXPECT_TRUE(run.ok()) << where << ": " << run.ToString();
    if (!run.ok()) return cases;
    for (size_t c = 0; c < columns.size(); ++c) {
      const std::string at = where + " column " + std::to_string(c) +
                             " tier " +
                             std::to_string(static_cast<int>(gemm::ActiveTier()));
      const float logit =
          clf.Forward(question, columns[c]).value().logit->value(0, 0);
      EXPECT_EQ(testing::FloatBits(pass.logit(static_cast<int>(c))),
                testing::FloatBits(logit))
          << at;
      EXPECT_EQ(testing::FloatBits(pass.probabilities()[c]),
                testing::FloatBits(1.0f / (1.0f + std::exp(-logit))))
          << at;
      const core::InfluenceProfile fast =
          locator.Influence(pass, static_cast<int>(c));
      const core::InfluenceProfile oracle =
          testing::AutogradInfluence(clf, config, question, columns[c]).value();
      EXPECT_EQ(fast.total.size(), question.size()) << at;
      for (size_t i = 0; i < question.size() && i < fast.total.size(); ++i) {
        EXPECT_EQ(testing::FloatBits(fast.word_level[i]),
                  testing::FloatBits(oracle.word_level[i]))
            << at << " token " << i;
        EXPECT_EQ(testing::FloatBits(fast.char_level[i]),
                  testing::FloatBits(oracle.char_level[i]))
            << at << " token " << i;
        EXPECT_EQ(testing::FloatBits(fast.total[i]),
                  testing::FloatBits(oracle.total[i]))
            << at << " token " << i;
      }
      ++cases;
    }
  }
  return cases;
}

TEST_F(ClassifierFuzz, FastPassMatchesAutogradLogitsAndInfluenceBitwise) {
  // Every column of the first corpus examples, as the annotator scores
  // them: one pass per question, influence probed through that pass.
  const int limit = std::min<int>(8 / kScale + 2, corpus_->examples.size());
  int cases = 0;
  std::vector<std::string> words;
  for (int i = 0; i < limit; ++i) {
    const data::Example& ex = corpus_->examples[i];
    std::vector<std::vector<std::string>> columns;
    for (int c = 0; c < ex.schema().num_columns(); ++c) {
      columns.push_back(ex.schema().column(c).DisplayTokens());
    }
    cases += ExpectPassMatchesAutograd(*classifier_, *config_, ex.tokens,
                                       columns, "example " + std::to_string(i));
    words.insert(words.end(), ex.tokens.begin(), ex.tokens.end());
  }

  // Crafted inputs on the corpus classifier and on a deeper one (two
  // question-LSTM layers, a shorter cap): single-token questions, words
  // outside the vocabulary (<unk>), columns longer than
  // max_column_words, and many columns of mixed capped length in one
  // pass.
  core::ModelConfig deep = *config_;
  deep.classifier_layers = 2;
  deep.max_column_words = 3;
  deep.classifier_hidden = 16;
  deep.seed = 12;
  core::ColumnMentionClassifier deep_classifier(deep, *provider_);
  deep_classifier.AddVocabulary(words);
  Rng rng(7301);
  auto random_words = [&](int count) {
    std::vector<std::string> out;
    for (int k = 0; k < count; ++k) {
      out.push_back(rng.NextBool(0.2f) ? "zq" + std::to_string(rng.NextInt(0, 9))
                                       : rng.Choice(words));
    }
    return out;
  };
  const int trials = 12 / kScale + 2;
  for (int trial = 0; trial < trials; ++trial) {
    const bool use_deep = trial % 2 == 1;
    const core::ColumnMentionClassifier& clf =
        use_deep ? deep_classifier : *classifier_;
    const core::ModelConfig& config = use_deep ? deep : *config_;
    const int question_length = trial % 3 == 0 ? 1 : rng.NextInt(2, 12);
    const std::vector<std::string> question = random_words(question_length);
    std::vector<std::vector<std::string>> columns;
    const int num_columns = trial % 4 == 0 ? rng.NextInt(10, 16)
                                           : rng.NextInt(1, 5);
    for (int c = 0; c < num_columns; ++c) {
      columns.push_back(random_words(rng.NextInt(1, 7)));
    }
    cases += ExpectPassMatchesAutograd(clf, config, question, columns,
                                       "trial " + std::to_string(trial));
  }
  RecordProperty("cases", cases);
#if !defined(NLIDB_SANITIZER_BUILD)
  EXPECT_GE(cases, 200);
#endif
}

TEST_F(ClassifierFuzz, EmptyInputsStayInvalidArgument) {
  const core::AdversarialLocator locator(*config_);
  const std::vector<std::string> q = {"who", "won"};
  const std::vector<std::vector<std::string>> empty_column = {{"year"}, {}};
  EXPECT_EQ(classifier_->PredictBatch({}, {{"year"}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(classifier_->PredictBatch(q, empty_column).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(locator.ComputeInfluence(*classifier_, {}, {"year"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(locator.ComputeInfluence(*classifier_, q, {}).status().code(),
            StatusCode::kInvalidArgument);
  core::ColumnMentionClassifier::Pass pass(*classifier_);
  EXPECT_EQ(pass.Run(q, empty_column).code(), StatusCode::kInvalidArgument);
}

TEST_F(DifferentialFuzzTest, DecoderFastPathMatchesReferenceBitwise) {
  // Differential oracle for the graph-free decode fast path: over seeded
  // random (untrained — maximally tie-heavy) models, kFastUnmasked must
  // reproduce kReference and kFast must reproduce kReferenceMasked, byte
  // for byte: same tokens, same score bits, same statuses. Sweeps beam
  // width, max decode length, copy mechanism, grammar-mask eligibility
  // (config flags and SELECT-less vocabularies) and GEMM tiers.
  const std::vector<std::string> structural = {
      "SELECT", "WHERE", "AND", "MAX", "MIN", "COUNT",
      "SUM",    "AVG",   "=",   ">",   "<"};
  const std::vector<std::string> symbols = {"c1", "c2", "c3", "v1",
                                            "v2", "g1", "g2"};
  const std::vector<std::string> words = {
      "what", "is",  "the",   "revenue", "industry", "ceo",  "1996",
      "864",  "ada", "grace", "highest", "name",     "city", "year"};
  Rng rng(60218);
  int cases = 0;
  const int models = 6 / kScale + 2;
  for (int mi = 0; mi < models; ++mi) {
    core::ModelConfig config = core::ModelConfig::Tiny();
    config.word_dim = 24;
    config.seq2seq_hidden = rng.NextBool() ? 16 : 24;
    config.max_decode_length = rng.NextInt(6, 14);
    config.seed = 1000 + mi * 17;  // a fresh random model per iteration
    config.use_copy_mechanism = (mi % 3) != 2;
    config.column_name_appending = (mi % 4) != 3;  // mask-ineligible leg
    core::Seq2SeqTranslator t(config);
    std::vector<std::string> vocab_tokens;
    if (mi % 5 != 4) {  // every 5th model: no SELECT -> grammar unusable
      vocab_tokens.insert(vocab_tokens.end(), structural.begin(),
                          structural.end());
    }
    vocab_tokens.insert(vocab_tokens.end(), symbols.begin(), symbols.end());
    vocab_tokens.insert(vocab_tokens.end(), words.begin(), words.end());
    t.AddVocabulary(vocab_tokens);

    for (int si = 0; si < 3; ++si) {
      std::vector<std::string> source;
      const int len = rng.NextInt(2, 9);
      for (int i = 0; i < len; ++i) {
        source.push_back(rng.NextBool(0.1f)
                             ? "oov" + std::to_string(rng.NextInt(0, 5))
                             : rng.Choice(vocab_tokens));
      }
      gemm::SetTier(rng.NextBool() ? gemm::Tier::kBase : gemm::Tier::kAuto);

      const std::pair<core::DecodeMode, core::DecodeMode> pairings[] = {
          {core::DecodeMode::kReference, core::DecodeMode::kFastUnmasked},
          {core::DecodeMode::kReferenceMasked, core::DecodeMode::kFast}};
      for (int width : {1, 2, 4}) {
        for (const auto& [ref_mode, fast_mode] : pairings) {
          t.set_decode_mode(ref_mode);
          const auto ref = t.DecodeWithBeamWidth(source, width);
          t.set_decode_mode(fast_mode);
          const auto fast = t.DecodeWithBeamWidth(source, width);
          const std::string where = "model " + std::to_string(mi) +
                                    " source " + std::to_string(si) +
                                    " width " + std::to_string(width) +
                                    (ref_mode == core::DecodeMode::kReference
                                         ? " (unmasked pairing)"
                                         : " (masked pairing)");
          ASSERT_EQ(ref.ok(), fast.ok()) << where;
          if (ref.ok()) {
            EXPECT_EQ(ref.value().tokens, fast.value().tokens) << where;
            EXPECT_EQ(testing::FloatBits(ref.value().score),
                      testing::FloatBits(fast.value().score))
                << where;
            EXPECT_EQ(ref.value().used_greedy_fallback,
                      fast.value().used_greedy_fallback)
                << where;
          } else {
            EXPECT_EQ(ref.status().code(), fast.status().code()) << where;
          }
          ++cases;
        }
      }
    }
  }
  RecordProperty("cases", cases);
#if !defined(NLIDB_SANITIZER_BUILD)
  EXPECT_GE(cases, 100);
#endif
}

TEST_F(DifferentialFuzzTest, ValueDetectionMatchesPerColumnScoresBitwise) {
  // Detect scores a span's type-compatible columns in one graph-free
  // MLP pass. The oracle is the loop it replaced: every candidate span
  // against every compatible column through the autograd `Score`, kept
  // above 0.5 and sorted the same way. The untrained detector scores
  // near 0.5, so both sides of the threshold occur.
  text::EmbeddingProvider provider;
  data::RegisterDomainClusters(provider);
  core::ModelConfig config = core::ModelConfig::Tiny();
  config.word_dim = provider.dim();
  config.seed = 31;
  const core::ValueDetector detector(config, provider);
  data::GeneratorConfig gc;
  gc.num_tables = 6;
  gc.questions_per_table = 8 / kScale + 1;
  gc.seed = 8080;
  data::WikiSqlGenerator gen(gc, data::TrainDomains());
  const data::Dataset ds = gen.Generate();
  int cases = 0;
  int detected = 0;
  for (const data::Example& ex : ds.examples) {
    const std::vector<sql::ColumnStatistics> stats =
        sql::ComputeTableStatistics(*ex.table, provider);
    std::vector<core::ValueDetector::Detection> want;
    for (const text::Span& span : detector.CandidateSpans(ex.tokens)) {
      const std::vector<std::string> span_tokens(
          ex.tokens.begin() + span.begin, ex.tokens.begin() + span.end);
      bool all_numeric = true;
      for (const auto& t : span_tokens) all_numeric &= LooksNumeric(t);
      core::ValueDetector::Detection det;
      det.span = span;
      for (size_t c = 0; c < stats.size(); ++c) {
        if (stats[c].type == sql::DataType::kReal && !all_numeric) continue;
        const float score = detector.Score(span_tokens, stats[c]).value();
        if (score > 0.5f) det.column_scores.push_back({static_cast<int>(c), score});
      }
      if (det.column_scores.empty()) continue;
      std::sort(det.column_scores.begin(), det.column_scores.end(),
                [](const auto& a, const auto& b) { return a.second > b.second; });
      want.push_back(std::move(det));
    }
    for (gemm::Tier tier : {gemm::Tier::kBase, gemm::Tier::kAuto}) {
      gemm::SetTier(tier);
      const auto got = detector.Detect(ex.tokens, stats).value();
      EXPECT_EQ(DetectionsToString(got), DetectionsToString(want))
          << "tier " << static_cast<int>(gemm::ActiveTier()) << " question "
          << ex.question;
      ++cases;
    }
    detected += static_cast<int>(want.size());
  }
  RecordProperty("cases", cases);
  EXPECT_GT(detected, 0);
}

TEST_F(DifferentialFuzzTest, ExactValueIndexMatchesScan) {
  // Generated tables at the benchmark's two sizes; each question gets
  // one to three cell displays (or a prefix of one) spliced in, so
  // multi-token values, sub-spans and values shared across columns all
  // occur. Both index paths are checked: the one built next to the
  // column statistics (the registry's) and CellIndex::Build (the
  // two-argument overload's).
  text::EmbeddingProvider provider(16);
  Rng rng(4242);
  int cases = 0;
  int nonempty = 0;
  for (const int rows : {12, 2000}) {
    data::GeneratorConfig gc;
    gc.num_tables = rows == 12 ? 12 : 2;
    gc.rows_per_table = rows;
    gc.questions_per_table = rows == 12 ? 4 : 12 / kScale;
    gc.seed = 515 + rows;
    data::WikiSqlGenerator gen(gc, data::TrainDomains());
    const data::Dataset ds = gen.Generate();
    for (const auto& table : ds.tables) {
      sql::CellIndex with_stats;
      (void)sql::ComputeTableStatistics(*table, provider, &with_stats);
      const sql::CellIndex built = sql::CellIndex::Build(*table);
      EXPECT_EQ(with_stats.size(), built.size()) << table->name();
      for (const data::Example& ex : ds.examples) {
        if (ex.table != table) continue;
        std::vector<std::string> tokens = ex.tokens;
        const int splices = rng.NextInt(1, 3);
        for (int k = 0; k < splices; ++k) {
          const int r = rng.NextInt(0, table->num_rows() - 1);
          const int c = rng.NextInt(0, table->num_columns() - 1);
          std::vector<std::string> cell =
              text::Tokenize(table->Cell(r, c).ToString());
          if (cell.size() > 1 && rng.NextBool(0.3f)) {
            cell.resize(static_cast<size_t>(
                rng.NextInt(1, static_cast<int>(cell.size()) - 1)));
          }
          const int at = rng.NextInt(0, static_cast<int>(tokens.size()));
          tokens.insert(tokens.begin() + at, cell.begin(), cell.end());
        }
        const std::string want =
            DetectionsToString(ExactCellValueScan(tokens, *table));
        const std::string where =
            table->name() + ": " + text::Detokenize(tokens);
        EXPECT_EQ(DetectionsToString(core::ExactCellValueMatches(
                      tokens, *table, with_stats)),
                  want)
            << where;
        EXPECT_EQ(DetectionsToString(
                      core::ExactCellValueMatches(tokens, *table, built)),
                  want)
            << where;
        nonempty += want.empty() ? 0 : 1;
        ++cases;
      }
    }
  }
  RecordProperty("cases", cases);
  EXPECT_GE(cases, 60 / kScale);
  EXPECT_GE(nonempty, cases / 2);
}

TEST_F(DifferentialFuzzTest, ExactValueIndexMatchesScanOnCraftedTables) {
  struct Case {
    std::string what;
    std::vector<sql::ColumnDef> columns;
    std::vector<std::vector<sql::Value>> rows;
    std::string question;
    std::string want;
  };
  using sql::Value;
  constexpr auto kText = sql::DataType::kText;
  constexpr auto kReal = sql::DataType::kReal;
  const std::string one = testing::FloatBits(1.0f);
  const std::vector<Case> cases = {
      {"two displays with the same tokens in one column",
       {{"pair", kText}},
       {{Value::Text("x, y")}, {Value::Text("x ,y")}, {Value::Text("z")}},
       "rows with x , y and z",
       "[2,5) c0=" + one + "; [6,7) c0=" + one + "; "},
      {"one value in two columns",
       {{"home", kText}, {"away", kText}},
       {{Value::Text("boston"), Value::Text("denver")},
        {Value::Text("utah"), Value::Text("boston")}},
       "games with boston at home",
       "[2,3) c0=" + one + " c1=" + one + "; "},
      {"17 inside july 17",
       {{"date", kText}, {"laps", kReal}},
       {{Value::Text("july 17"), Value::Real(17)}},
       "races on july 17 with 17 laps",
       "[2,4) c0=" + one + "; [5,6) c1=" + one + "; "},
      {"cells of 0 tokens and of 6 or more",
       {{"note", kText}},
       {{Value::Text("")},
        {Value::Text("  ")},
        {Value::Text("a b c d e f")},
        {Value::Text("a b c d e")}},
       "notes a b c d e f",
       "[1,6) c0=" + one + "; "},
  };
  for (const Case& c : cases) {
    sql::Table table("crafted", sql::Schema(c.columns));
    for (const auto& row : c.rows) {
      ASSERT_TRUE(table.AddRow(row).ok()) << c.what;
    }
    const std::vector<std::string> tokens = text::Tokenize(c.question);
    EXPECT_EQ(DetectionsToString(ExactCellValueScan(tokens, table)), c.want)
        << c.what;
    EXPECT_EQ(DetectionsToString(core::ExactCellValueMatches(tokens, table)),
              c.want)
        << c.what;
  }

  // A planted collision: an entry carrying the hash of "silent river"
  // but pointing at the cell "ocean". The lookup finds it; checking the
  // cell rejects it, as it would a genuine 32-bit hash collision.
  sql::Table table("crafted", sql::Schema({{"name", kText}}));
  ASSERT_TRUE(table.AddRow({Value::Text("ocean")}).ok());
  sql::CellIndex index = sql::CellIndex::Build(table);
  index.Add(0, 0, {"silent", "river"});
  index.Seal();
  const std::vector<std::string> tokens = {"the", "silent", "river", "ocean"};
  uint32_t hash = sql::CellIndex::kHashSeed;
  hash = sql::CellIndex::HashToken(hash, "silent");
  hash = sql::CellIndex::HashToken(hash, "river");
  ASSERT_EQ(index.Find(hash).size(), 1u);
  EXPECT_EQ(DetectionsToString(
                core::ExactCellValueMatches(tokens, table, index)),
            "[3,4) c0=" + one + "; ");
  EXPECT_EQ(DetectionsToString(ExactCellValueScan(tokens, table)),
            "[3,4) c0=" + one + "; ");
}

TEST_F(DifferentialFuzzTest, ExecutorStableUnderRowShuffling) {
  data::GeneratorConfig gc;
  gc.num_tables = 10;
  gc.questions_per_table = 6;
  gc.seed = 777;
  data::WikiSqlGenerator gen(gc, data::TrainDomains());
  const data::Dataset ds = gen.Generate();

  Rng rng(31337);
  int cases = 0;
  const int limit =
      std::min<int>(static_cast<int>(ds.examples.size()), 60 / kScale + 10);
  for (int i = 0; i < limit; ++i) {
    const data::Example& ex = ds.examples[i];
    const sql::Table& table = *ex.table;

    std::vector<int> order(table.num_rows());
    for (int r = 0; r < table.num_rows(); ++r) order[r] = r;
    rng.Shuffle(order);
    sql::Table shuffled(table.name(), table.schema());
    for (int r : order) {
      ASSERT_TRUE(shuffled.AddRow(table.Row(r)).ok());
    }

    const auto base = sql::Execute(ex.query, table);
    const auto perm = sql::Execute(ex.query, shuffled);
    ASSERT_EQ(base.ok(), perm.ok()) << ex.question;
    if (!base.ok()) continue;
    ++cases;

    if (ex.query.agg == sql::Aggregate::kSum ||
        ex.query.agg == sql::Aggregate::kAvg) {
      // Float accumulation order changes under row permutation; demand
      // agreement to rounding, not bitwise.
      ASSERT_EQ(base->size(), perm->size()) << ex.question;
      for (size_t v = 0; v < base->size(); ++v) {
        ASSERT_TRUE((*base)[v].is_real() && (*perm)[v].is_real());
        EXPECT_NEAR((*base)[v].number(), (*perm)[v].number(),
                    1e-9 * (1.0 + std::fabs((*base)[v].number())))
            << ex.question;
      }
    } else {
      // Multiset equality — the Acc_ex comparison itself.
      EXPECT_TRUE(sql::ResultsEqual(*base, *perm)) << ex.question;
    }
  }
  RecordProperty("cases", cases);
  EXPECT_GT(cases, 0);
}

}  // namespace
}  // namespace nlidb

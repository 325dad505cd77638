#include "core/seq2seq.h"

#include <gtest/gtest.h>
#include <cmath>
#include <cstring>

#include "common/metrics.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace nlidb {
namespace core {
namespace {

ModelConfig Config() {
  ModelConfig c = ModelConfig::Tiny();
  c.word_dim = 24;
  c.seq2seq_hidden = 24;
  c.max_decode_length = 12;
  return c;
}

// Greedy decode: beam width 1, with an empty sequence for a failed search.
std::vector<std::string> Greedy(const Seq2SeqTranslator& t,
                                const std::vector<std::string>& source) {
  StatusOr<Seq2SeqTranslator::Decoded> decoded =
      t.DecodeWithBeamWidth(source, 1);
  if (!decoded.ok()) return {};
  return std::move(decoded).value().tokens;
}

TEST(Seq2SeqTest, VocabularyGrows) {
  Seq2SeqTranslator t(Config());
  t.AddVocabulary({"select", "where", "c1", "v1"});
  EXPECT_TRUE(t.vocab().Contains("c1"));
  EXPECT_FALSE(t.vocab().Contains("newword"));
}

TEST(Seq2SeqTest, LossIsFinitePositive) {
  Seq2SeqTranslator t(Config());
  t.AddVocabulary({"a", "b", "c", "x", "y"});
  Var loss = t.Loss({"a", "b", "c"}, {"x", "y"});
  EXPECT_EQ(loss->value.size(), 1u);
  EXPECT_GT(loss->value(0), 0.0f);
  EXPECT_TRUE(std::isfinite(loss->value(0)));
}

TEST(Seq2SeqTest, GradientsReachAllParameters) {
  Seq2SeqTranslator t(Config());
  t.AddVocabulary({"a", "b", "x"});
  Var loss = t.Loss({"a", "b"}, {"x"});
  Backward(loss);
  int with_grad = 0;
  for (const auto& p : t.Parameters()) {
    with_grad += !p->grad.empty() && p->grad.Norm2() > 0.0f;
  }
  // Nearly all parameters participate (embedding rows are sparse).
  EXPECT_GT(with_grad, static_cast<int>(t.Parameters().size()) - 3);
}

TEST(Seq2SeqTest, LearnsCopyTask) {
  // Identity translation: the copy mechanism should let the model learn
  // to reproduce short sequences after a handful of epochs.
  ModelConfig config = Config();
  Seq2SeqTranslator t(config);
  Rng rng(3);
  const std::vector<std::string> alphabet = {"red",  "blue", "green",
                                             "gold", "pink", "gray"};
  t.AddVocabulary(alphabet);
  nn::Adam opt(t.Parameters(), 5e-3f);
  for (int step = 0; step < 700; ++step) {
    std::vector<std::string> seq;
    const int len = rng.NextInt(1, 4);
    for (int i = 0; i < len; ++i) seq.push_back(rng.Choice(alphabet));
    Var loss = t.Loss(seq, seq);
    opt.ZeroGrad();
    Backward(loss);
    nn::ClipGradNorm(opt.params(), 5.0f);
    opt.Step();
  }
  int exact = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::string> seq;
    const int len = rng.NextInt(1, 4);
    for (int i = 0; i < len; ++i) seq.push_back(rng.Choice(alphabet));
    exact += Greedy(t, seq) == seq;
  }
  EXPECT_GE(exact, 15);
}

TEST(Seq2SeqTest, TranslateTerminates) {
  Seq2SeqTranslator t(Config());
  t.AddVocabulary({"a", "b", "c"});
  auto out = t.Translate({"a", "b", "c"});
  EXPECT_LE(static_cast<int>(out.size()), Config().max_decode_length);
}

TEST(Seq2SeqTest, BeamNotWorseThanGreedyOnTrainedModel) {
  ModelConfig config = Config();
  config.beam_width = 3;
  Seq2SeqTranslator t(config);
  Rng rng(5);
  const std::vector<std::string> alphabet = {"aa", "bb", "cc"};
  t.AddVocabulary(alphabet);
  nn::Adam opt(t.Parameters(), 5e-3f);
  for (int step = 0; step < 300; ++step) {
    std::vector<std::string> seq = {rng.Choice(alphabet), rng.Choice(alphabet)};
    Var loss = t.Loss(seq, seq);
    opt.ZeroGrad();
    Backward(loss);
    opt.Step();
  }
  int greedy_ok = 0, beam_ok = 0;
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<std::string> seq = {rng.Choice(alphabet), rng.Choice(alphabet)};
    greedy_ok += Greedy(t, seq) == seq;
    beam_ok += t.Translate(seq) == seq;
  }
  EXPECT_GE(beam_ok, greedy_ok - 1);
}

TEST(Seq2SeqTest, CopyDisabledStillDecodes) {
  ModelConfig config = Config();
  config.use_copy_mechanism = false;
  Seq2SeqTranslator t(config);
  t.AddVocabulary({"a", "b"});
  Var loss = t.Loss({"a"}, {"b"});
  EXPECT_TRUE(std::isfinite(loss->value(0)));
  auto out = t.Translate({"a", "b"});
  EXPECT_LE(static_cast<int>(out.size()), config.max_decode_length);
}

TEST(TopKTest, PinsTieSelectionToLowerIndex) {
  // Equal scores must always resolve to the lower index — the property
  // that makes nth_element selection reproducible across the reference
  // and fast decoders regardless of libstdc++'s partition order.
  const float scores[] = {0.5f, 0.9f, 0.5f, 0.9f, 0.1f, 0.9f};
  std::vector<int> top = TopKScoreIndices(scores, 6, 4);
  EXPECT_EQ(top, (std::vector<int>{1, 3, 5, 0}));

  // Same contract on an explicit (non-identity) candidate domain.
  std::vector<int> ids = {5, 3, 2, 0};
  TopKByScore(&ids, scores, 3);
  EXPECT_EQ(ids, (std::vector<int>{3, 5, 0}));
}

TEST(TopKTest, KLargerThanDomainSortsEverything) {
  const float scores[] = {0.2f, 0.8f, 0.2f};
  std::vector<int> top = TopKScoreIndices(scores, 3, 10);
  EXPECT_EQ(top, (std::vector<int>{1, 0, 2}));
}

/// Vocabulary that makes the grammar mask applicable: structural SQL
/// tokens plus annotation symbols and literals.
std::vector<std::string> SqlishVocab() {
  return {"SELECT", "WHERE", "AND", "MAX", "COUNT", "=",    ">",
          "<",      "c1",    "c2",  "v1",  "g1",    "what", "is",
          "the",    "revenue", "1996"};
}

TEST(Seq2SeqTest, FastUnmaskedBitwiseEqualsReference) {
  // The fast path's core contract: for any model state (here: untrained,
  // so scores are near-uniform and ties matter), kFastUnmasked decodes
  // the same tokens with the same score bits as kReference.
  ModelConfig config = Config();
  Seq2SeqTranslator t(config);
  t.AddVocabulary(SqlishVocab());
  const std::vector<std::string> source = {"what", "is",  "the", "c1",
                                           "revenue", "v1", "1996"};
  for (int width : {1, 2, 4}) {
    t.set_decode_mode(DecodeMode::kReference);
    auto ref = t.DecodeWithBeamWidth(source, width);
    t.set_decode_mode(DecodeMode::kFastUnmasked);
    auto fast = t.DecodeWithBeamWidth(source, width);
    ASSERT_TRUE(ref.ok() && fast.ok()) << "width " << width;
    EXPECT_EQ(ref.value().tokens, fast.value().tokens) << "width " << width;
    EXPECT_EQ(0, std::memcmp(&ref.value().score, &fast.value().score,
                             sizeof(float)))
        << "width " << width << ": score bits diverge";
    EXPECT_FALSE(ref.value().used_fast_path);
    EXPECT_TRUE(fast.value().used_fast_path);
  }
}

TEST(Seq2SeqTest, FastMaskedBitwiseEqualsReferenceMasked) {
  ModelConfig config = Config();
  Seq2SeqTranslator t(config);
  t.AddVocabulary(SqlishVocab());
  const std::vector<std::string> source = {"SELECT", "c1", "WHERE",
                                           "c2",     "=",  "v1"};
  for (int width : {1, 3}) {
    t.set_decode_mode(DecodeMode::kReferenceMasked);
    auto ref = t.DecodeWithBeamWidth(source, width);
    t.set_decode_mode(DecodeMode::kFast);
    auto fast = t.DecodeWithBeamWidth(source, width);
    ASSERT_TRUE(ref.ok() && fast.ok()) << "width " << width;
    EXPECT_EQ(ref.value().tokens, fast.value().tokens) << "width " << width;
    EXPECT_EQ(0, std::memcmp(&ref.value().score, &fast.value().score,
                             sizeof(float)))
        << "width " << width << ": score bits diverge";
  }
}

TEST(Seq2SeqTest, MaskedDecodeEmitsGrammaticalPrefix) {
  // Even an untrained model must emit a SELECT-led, grammatical s^a when
  // the mask is on: that is the whole point of constrained decoding.
  Seq2SeqTranslator t(Config());
  t.AddVocabulary(SqlishVocab());
  t.set_decode_mode(DecodeMode::kFast);
  auto out = t.DecodeWithBeamWidth({"what", "is", "c1", "revenue"}, 2);
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out.value().tokens.empty());
  EXPECT_EQ(out.value().tokens[0], "SELECT");
}

TEST(Seq2SeqTest, FastPathCountersIncrement) {
  Seq2SeqTranslator t(Config());
  t.AddVocabulary(SqlishVocab());
  metrics::Counter& fast_queries =
      metrics::MetricsRegistry::Global().GetCounter(
          "seq2seq.fast_path_queries");
  metrics::Counter& masked_tokens =
      metrics::MetricsRegistry::Global().GetCounter(
          "seq2seq.grammar_masked_tokens");

  t.set_decode_mode(DecodeMode::kReference);
  const int64_t fast_before = fast_queries.Value();
  ASSERT_TRUE(t.DecodeWithBeamWidth({"c1", "revenue"}, 1).ok());
  EXPECT_EQ(fast_queries.Value(), fast_before)
      << "reference decode must not count as a fast-path query";

  t.set_decode_mode(DecodeMode::kFast);
  const int64_t masked_before = masked_tokens.Value();
  ASSERT_TRUE(t.DecodeWithBeamWidth({"c1", "revenue"}, 1).ok());
  EXPECT_EQ(fast_queries.Value(), fast_before + 1);
  EXPECT_GT(masked_tokens.Value(), masked_before)
      << "grammar mask vetoed no tokens on a mostly-illegal vocabulary";
}

TEST(Seq2SeqTest, SymbolEmbeddingsShareTypeHalf) {
  // c1 and c2 share the type half of their structured embedding; c1 and
  // v1 share the index half (Sec. VII-A2 representation).
  ModelConfig config = Config();
  Seq2SeqTranslator t(config);
  t.AddVocabulary({"c1", "c2", "v1"});
  const auto& params = t.Parameters();
  const Var& table = params[0];  // embedding table is first
  const int c1 = t.vocab().GetId("c1");
  const int c2 = t.vocab().GetId("c2");
  const int v1 = t.vocab().GetId("v1");
  const int half = config.word_dim / 2;
  for (int j = 0; j < half; ++j) {
    EXPECT_FLOAT_EQ(table->value(c1, j), table->value(c2, j));
  }
  for (int j = half; j < config.word_dim; ++j) {
    EXPECT_FLOAT_EQ(table->value(c1, j), table->value(v1, j));
  }
}

}  // namespace
}  // namespace core
}  // namespace nlidb

#include "core/seq2seq.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/annotation.h"
#include "tensor/ops.h"

namespace nlidb {
namespace core {

namespace {

/// DecodeModeName's spellings, indexed by DecodeMode.
constexpr const char* kDecodeModeNames[] = {"reference", "reference_masked",
                                            "fast_unmasked", "fast"};

/// Deterministic unit-ish vector for structured symbol embeddings.
std::vector<float> HashedVector(const std::string& key, int dim) {
  Rng rng(Fnv1aHash(key));
  std::vector<float> v(dim);
  float norm = 0.0f;
  for (float& x : v) {
    x = rng.NextGaussian();
    norm += x * x;
  }
  norm = std::sqrt(norm);
  if (norm > 1e-6f) {
    for (float& x : v) x = 0.5f * x / norm * std::sqrt(static_cast<float>(dim));
  }
  return v;
}

}  // namespace

void TopKByScore(std::vector<int>* ids, const float* scores, int k) {
  const auto better = [scores](int a, int b) {
    return scores[a] > scores[b] || (scores[a] == scores[b] && a < b);
  };
  if (k < static_cast<int>(ids->size())) {
    std::nth_element(ids->begin(), ids->begin() + k, ids->end(), better);
    ids->resize(k);
  }
  std::sort(ids->begin(), ids->end(), better);
}

std::vector<int> TopKScoreIndices(const float* scores, int count, int k) {
  std::vector<int> ids(count);
  for (int j = 0; j < count; ++j) ids[j] = j;
  TopKByScore(&ids, scores, k);
  return ids;
}

const char* Seq2SeqTranslator::DecodeModeName(DecodeMode mode) {
  return kDecodeModeNames[static_cast<int>(mode)];
}

Seq2SeqTranslator::Seq2SeqTranslator(const ModelConfig& config)
    : config_(config) {
  Rng rng(config_.seed + 3);
  const int d = config_.word_dim;
  const int h = config_.seq2seq_hidden;
  embedding_ = std::make_unique<nn::Embedding>(kVocabBudget, d, rng);
  encoder_ = std::make_unique<nn::StackedBiGru>(d, h, config_.seq2seq_layers, rng);
  init_proj_ = std::make_unique<nn::Linear>(2 * h, 2 * h, rng);
  decoder_cell_ = std::make_unique<nn::GruCell>(d + 2 * h, 2 * h, rng);
  attention_ = std::make_unique<nn::AdditiveAttention>(2 * h, h, rng);
  query_proj_ = std::make_unique<nn::Linear>(2 * h, h, rng, /*use_bias=*/false);
  output_proj_ = std::make_unique<nn::Linear>(4 * h, kVocabBudget, rng);
}

void Seq2SeqTranslator::AddVocabulary(const std::vector<std::string>& tokens) {
  for (const auto& t : tokens) {
    if (vocab_.Contains(t)) continue;
    if (vocab_.size() >= kVocabBudget) break;  // budget full: map to <unk>
    const int id = vocab_.AddToken(t);
    if (IsAnnotationSymbol(t)) {
      // Structured symbol embedding: [type vector ; index vector]
      // (Sec. VII-A2: concatenation of annotation-type and index
      // embeddings, each of half dimension).
      const int half = config_.word_dim / 2;
      std::vector<float> type_vec =
          HashedVector("sym-type:" + t.substr(0, 1), half);
      std::vector<float> index_vec =
          HashedVector("sym-index:" + t.substr(1), config_.word_dim - half);
      std::vector<float> row;
      row.reserve(config_.word_dim);
      row.insert(row.end(), type_vec.begin(), type_vec.end());
      row.insert(row.end(), index_vec.begin(), index_vec.end());
      embedding_->SetRow(id, row);
    }
  }
}

Seq2SeqTranslator::EncoderOutput Seq2SeqTranslator::Encode(
    const std::vector<std::string>& source) const {
  // Emptiness is validated by the public entry points (Loss asserts, the
  // query path returns InvalidArgument) before reaching here.
  trace::TraceSpan span("seq2seq.encode");
  span.Annotate("source_len", static_cast<int64_t>(source.size()));
  EncoderOutput out;
  out.source_ids = vocab_.Encode(source);
  Var emb = embedding_->Forward(out.source_ids);
  nn::StackedBiGru::Output enc = encoder_->Forward(emb);
  out.states = enc.states;
  out.memory_proj = attention_->ProjectMemory(enc.states);
  out.d0 = ops::Tanh(init_proj_->Forward(
      ops::ConcatCols({enc.final_forward, enc.final_backward})));
  return out;
}

Seq2SeqTranslator::StepOutput Seq2SeqTranslator::DecodeStep(
    const EncoderOutput& enc, const Var& prev_state, int prev_token) const {
  // prev_state packs [d_{i-1} ; beta_{i-1}] is NOT how the paper defines
  // it; instead the caller passes d_{i-1} and beta_{i-1} separately via
  // this overloaded contract: prev_state is [1, 4h] = [d ; beta].
  const int h2 = 2 * config_.seq2seq_hidden;
  Var d_prev = ops::SliceCols(prev_state, 0, h2);
  Var beta_prev = ops::SliceCols(prev_state, h2, h2);
  Var emb = embedding_->Forward({prev_token});  // [1, d]
  Var x = ops::ConcatCols({emb, beta_prev});
  Var d_i = decoder_cell_->Step(x, d_prev);
  Var energies = attention_->Energies(enc.memory_proj,
                                      query_proj_->Forward(d_i));
  Var weights = attention_->Weights(energies);
  Var beta_i = attention_->Context(weights, enc.states);
  Var logits = output_proj_->Forward(ops::ConcatCols({d_i, beta_i}));
  Var scores = ops::Exp(logits);
  static metrics::Counter& decode_steps =
      metrics::MetricsRegistry::Global().GetCounter("seq2seq.decode_steps");
  static metrics::Counter& copy_steps =
      metrics::MetricsRegistry::Global().GetCounter("seq2seq.copy_steps");
  decode_steps.Increment();
  if (config_.use_copy_mechanism) {
    // M_i[token] += exp(e_ij) for every source position j carrying it.
    copy_steps.Increment();
    Var copy_mass = ops::ScatterSumCols(ops::Exp(energies), enc.source_ids,
                                        kVocabBudget);
    scores = ops::Add(scores, copy_mass);
  }
  StepOutput out;
  out.state = ops::ConcatCols({d_i, beta_i});
  out.scores = scores;
  out.energies = energies;
  out.weights = weights;
  return out;
}

Var Seq2SeqTranslator::Loss(const std::vector<std::string>& source,
                            const std::vector<std::string>& target) const {
  // Training path: malformed corpus data is a programming error, so the
  // fatal check stays (the query path reports Status instead).
  NLIDB_CHECK(!source.empty()) << "Loss of empty source";
  EncoderOutput enc = Encode(source);
  const int h2 = 2 * config_.seq2seq_hidden;
  Var state = ops::ConcatCols({enc.d0, MakeVar(Tensor::Zeros({1, h2}))});
  std::vector<int> target_ids = vocab_.Encode(target);
  target_ids.push_back(text::Vocab::kEos);
  int prev = text::Vocab::kBos;
  Var total;
  for (int tid : target_ids) {
    StepOutput step = DecodeStep(enc, state, prev);
    Var step_loss = ops::NegLogNormalized(step.scores, tid);
    total = total ? ops::Add(total, step_loss) : step_loss;
    state = step.state;
    prev = tid;  // teacher forcing
  }
  return ops::ScalarMul(total, 1.0f / static_cast<float>(target_ids.size()));
}

StatusOr<Seq2SeqTranslator::ScoredTokens> Seq2SeqTranslator::BeamSearch(
    const std::vector<std::string>& source, int beam_width,
    const CancelContext* ctx, const DecodeGrammar* grammar) const {
  if (source.empty()) {
    return Status::InvalidArgument("cannot decode an empty source sequence");
  }
  trace::TraceSpan span("seq2seq.translate");
  span.Annotate("beam_width", static_cast<int64_t>(beam_width));
  EncoderOutput enc = Encode(source);
  trace::TraceSpan decode_span("seq2seq.decode");
  const int h2 = 2 * config_.seq2seq_hidden;
  const int vocab_size = vocab_.size();
  static metrics::Counter& masked_tokens =
      metrics::MetricsRegistry::Global().GetCounter(
          "seq2seq.grammar_masked_tokens");

  // Vocabulary ids copyable from this query's source (the grammar mask
  // admits literals and annotation symbols only from here).
  std::vector<uint8_t> in_source;
  if (grammar != nullptr) {
    in_source.assign(vocab_size, 0);
    for (int id : enc.source_ids) in_source[id] = 1;
  }

  struct Beam {
    Var state;
    int prev_token = text::Vocab::kBos;
    int grammar_state = DecodeGrammar::kStart;
    std::vector<std::string> tokens;
    float log_prob = 0.0f;
    bool finished = false;
  };
  Beam init;
  init.state = ops::ConcatCols({enc.d0, MakeVar(Tensor::Zeros({1, h2}))});
  std::vector<Beam> beams = {init};
  std::vector<Beam> finished;

  for (int step = 0; step < config_.max_decode_length; ++step) {
    // Decode steps dominate query latency, so the deadline is polled at
    // this granularity: an expired request stops mid-decode instead of
    // finishing up to max_decode_length steps.
    NLIDB_RETURN_IF_ERROR(CheckCancel(ctx, "seq2seq.decode"));
    std::vector<Beam> candidates;
    for (Beam& beam : beams) {
      if (beam.finished) continue;
      StepOutput so = DecodeStep(enc, beam.state, beam.prev_token);
      const float* scores = so.scores->value.data();
      const int k = std::min(beam_width, vocab_size);
      // Normalization mass and top-k selection domain: the full
      // vocabulary, or the grammar-legal subset (ascending id order in
      // both cases, so masked sums are reproducible bitwise).
      float sum = 0.0f;
      std::vector<int> top;
      if (grammar != nullptr) {
        std::vector<int> legal;
        legal.reserve(vocab_size);
        for (int j = 0; j < vocab_size; ++j) {
          if (grammar->IsLegal(beam.grammar_state, j, in_source)) {
            legal.push_back(j);
          }
        }
        masked_tokens.Increment(vocab_size - static_cast<int>(legal.size()));
        for (int j : legal) sum += scores[j];
        top = std::move(legal);
        TopKByScore(&top, scores, k);
      } else {
        for (int j = 0; j < vocab_size; ++j) sum += scores[j];
        top = TopKScoreIndices(scores, vocab_size, k);
      }
      for (const int tok : top) {
        if (grammar == nullptr &&
            (tok == text::Vocab::kPad || tok == text::Vocab::kBos)) {
          continue;
        }
        const float p = scores[tok] / (sum + 1e-9f);
        Beam next = beam;
        next.state = so.state;
        next.prev_token = tok;
        next.log_prob = beam.log_prob + std::log(p + 1e-12f);
        if (grammar != nullptr) {
          next.grammar_state = grammar->Advance(beam.grammar_state, tok);
        }
        if (tok == text::Vocab::kEos) {
          next.finished = true;
        } else if (tok == text::Vocab::kUnk) {
          // Pointer fallback: emit the source token under the attention
          // peak instead of a literal <unk>.
          const Tensor& w = so.weights->value;
          int peak = 0;
          for (int j = 1; j < w.cols(); ++j) {
            if (w(0, j) > w(0, peak)) peak = j;
          }
          next.tokens.push_back(source[peak]);
        } else {
          next.tokens.push_back(vocab_.GetToken(tok));
        }
        candidates.push_back(std::move(next));
      }
    }
    if (candidates.empty()) break;
    // stable_sort pins candidate order on log-prob ties to construction
    // order (beam order, then score rank), matching the fast path.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Beam& a, const Beam& b) {
                       return a.log_prob > b.log_prob;
                     });
    beams.clear();
    for (Beam& c : candidates) {
      if (c.finished) {
        finished.push_back(std::move(c));
      } else if (static_cast<int>(beams.size()) < beam_width) {
        beams.push_back(std::move(c));
      }
      if (static_cast<int>(beams.size()) >= beam_width &&
          static_cast<int>(finished.size()) >= beam_width) {
        break;
      }
    }
    if (beams.empty()) break;
  }
  for (Beam& b : beams) finished.push_back(std::move(b));
  // Unreachable: the loop starts from one live hypothesis and every exit
  // keeps one, finished or live (seq2seq_test pins this).
  if (finished.empty()) {
    return Status::Internal("beam search exhausted every hypothesis");
  }
  // Length-normalized selection.
  const Beam* best = &finished[0];
  float best_score = -1e30f;
  for (const Beam& b : finished) {
    const float denom = static_cast<float>(std::max<size_t>(1, b.tokens.size()));
    const float s = b.log_prob / denom;
    if (s > best_score) {
      best_score = s;
      best = &b;
    }
  }
  return ScoredTokens{best->tokens, best_score};
}

StatusOr<Seq2SeqTranslator::ScoredTokens> Seq2SeqTranslator::Search(
    const std::vector<std::string>& source, int beam_width,
    const CancelContext* ctx) const {
  // The query path's one injection site: `error` fails the query in band
  // with the injected status, `delay` perturbs the serving schedule.
  NLIDB_RETURN_IF_ERROR(NLIDB_FAILPOINT("seq2seq/decode"));
  switch (decode_mode()) {
    case DecodeMode::kReference:
      return BeamSearch(source, beam_width, ctx, /*grammar=*/nullptr);
    case DecodeMode::kReferenceMasked: {
      if (!GrammarMaskEligible()) {
        return BeamSearch(source, beam_width, ctx, /*grammar=*/nullptr);
      }
      const DecodeGrammar grammar(vocab_);
      if (!grammar.usable()) {
        return BeamSearch(source, beam_width, ctx, /*grammar=*/nullptr);
      }
      return BeamSearch(source, beam_width, ctx, &grammar);
    }
    case DecodeMode::kFastUnmasked:
      return FastBeamSearch(source, beam_width, /*use_grammar_mask=*/false,
                            ctx);
    case DecodeMode::kFast:
      return FastBeamSearch(source, beam_width, GrammarMaskEligible(), ctx);
  }
  return Status::Internal("unreachable decode mode");
}

StatusOr<Seq2SeqTranslator::Decoded> Seq2SeqTranslator::Decode(
    const std::vector<std::string>& source, const CancelContext* ctx) const {
  return DecodeWithBeamWidth(source, config_.beam_width, ctx);
}

StatusOr<Seq2SeqTranslator::Decoded> Seq2SeqTranslator::DecodeWithBeamWidth(
    const std::vector<std::string>& source, int beam_width,
    const CancelContext* ctx) const {
  StatusOr<ScoredTokens> beam = Search(source, beam_width, ctx);
  if (!beam.ok()) return beam.status();
  Decoded out;
  out.tokens = std::move(beam.value().tokens);
  out.score = beam.value().score;
  return out;
}

std::vector<std::string> Seq2SeqTranslator::Translate(
    const std::vector<std::string>& source) const {
  StatusOr<Decoded> decoded = Decode(source, nullptr);
  if (!decoded.ok()) return {};
  return std::move(decoded).value().tokens;
}

void Seq2SeqTranslator::CollectParameters(std::vector<Var>* out) const {
  embedding_->CollectParameters(out);
  encoder_->CollectParameters(out);
  init_proj_->CollectParameters(out);
  decoder_cell_->CollectParameters(out);
  attention_->CollectParameters(out);
  query_proj_->CollectParameters(out);
  output_proj_->CollectParameters(out);
}

}  // namespace core
}  // namespace nlidb

#include "core/column_mention_classifier.h"

#include <algorithm>

#include "common/logging.h"
#include "tensor/ops.h"

namespace nlidb {
namespace core {

ColumnMentionClassifier::ColumnMentionClassifier(
    const ModelConfig& config, const text::EmbeddingProvider& provider)
    : config_(config), provider_(&provider) {
  NLIDB_CHECK(config_.word_dim == provider.dim())
      << "word_dim must match EmbeddingProvider dim";
  Rng rng(config_.seed);
  // Generous vocab budget; rows are initialized lazily by AddVocabulary.
  word_embedding_ = std::make_unique<nn::Embedding>(
      /*vocab_size=*/4096, config_.word_dim, rng);
  char_embedder_ = std::make_unique<nn::CharCnnEmbedder>(
      char_vocab_.size(), config_.char_dim, config_.char_per_width,
      config_.char_widths, rng);
  const int emb_dim = config_.word_dim + char_embedder_->output_dim();
  question_lstm_ = std::make_unique<nn::StackedLstm>(
      emb_dim, config_.classifier_hidden, config_.classifier_layers, rng);
  column_lstm_ = std::make_unique<nn::StackedLstm>(
      emb_dim, config_.classifier_hidden, config_.classifier_layers, rng);
  const int h = config_.classifier_hidden;
  attention_ = std::make_unique<nn::AdditiveAttention>(h, h, rng);
  query_state_proj_ = std::make_unique<nn::Linear>(h, h, rng, /*use_bias=*/false);
  query_hidden_proj_ = std::make_unique<nn::Linear>(h, h, rng, /*use_bias=*/true);
  // z_t = [s_t^c ; context] has width 2h; bi-LSTM output per step is 2h.
  fwd_cell_ = std::make_unique<nn::LstmCell>(2 * h, h, rng);
  bwd_cell_ = std::make_unique<nn::LstmCell>(2 * h, h, rng);
  // Each column-word slot carries [fw_t ; bw_t ; max-sim_t ; mean-sim_t]:
  // the LSTM states plus BiDAF-style word-similarity features.
  head_ = std::make_unique<nn::Mlp>(
      std::vector<int>{(2 * h + 2) * config_.max_column_words,
                       config_.classifier_mlp_hidden, 1},
      rng);
}

void ColumnMentionClassifier::AddVocabulary(
    const std::vector<std::string>& words) {
  for (const auto& w : words) {
    if (vocab_.Contains(w)) continue;
    if (vocab_.size() >= word_embedding_->vocab_size()) break;  // -> <unk>
    const int id = vocab_.AddToken(w);
    word_embedding_->SetRow(id, provider_->Vector(w));
  }
}

StatusOr<Var> ColumnMentionClassifier::Embed(
    const std::vector<std::string>& words, Var* word_lookup,
    std::vector<Var>* char_outputs) const {
  if (words.empty()) {
    return Status::InvalidArgument("cannot embed an empty word sequence");
  }
  std::vector<int> ids;
  ids.reserve(words.size());
  for (const auto& w : words) ids.push_back(vocab_.GetId(w));
  Var word_part = word_embedding_->Forward(ids);  // [n, word_dim]
  if (word_lookup != nullptr) *word_lookup = word_part;
  std::vector<Var> rows;
  rows.reserve(words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    Var char_part = char_embedder_->Forward(char_vocab_.Encode(words[i]));
    if (char_outputs != nullptr) char_outputs->push_back(char_part);
    rows.push_back(
        ops::ConcatCols({ops::PickRow(word_part, static_cast<int>(i)),
                         char_part}));
  }
  return ops::ConcatRows(rows);  // [n, word_dim + char_out]
}

StatusOr<ColumnMentionClassifier::ForwardResult>
ColumnMentionClassifier::Forward(const std::vector<std::string>& question,
                                 const std::vector<std::string>& column) const {
  ForwardResult result;
  StatusOr<Var> q_emb_or = Embed(question, &result.question_word_embeddings,
                                 &result.question_char_embeddings);
  if (!q_emb_or.ok()) return q_emb_or.status();
  Var q_word_t = ops::Transpose(result.question_word_embeddings);
  Var sq = question_lstm_->Forward(*q_emb_or);  // [n, h]
  // The query contribution at step t is W2 s_t^c + W3 d_{t-1} + b (paper's
  // e_t equation); the memory side W1 s^q is projected once.
  Var memory_proj = attention_->ProjectMemory(sq);
  const int h = config_.classifier_hidden;

  // Column encoding and BiDAF-style similarity features (the paper's
  // "bidirectional attention flow"). Embeddings start unit-norm, so the
  // dots approximate cosines.
  Var c_word;
  StatusOr<Var> c_emb_or = Embed(column, &c_word, nullptr);
  if (!c_emb_or.ok()) return c_emb_or.status();
  Var sim = ops::MatMul(c_word, q_word_t);
  Var sim_max = ops::RowMax(sim);    // [m,1]
  Var sim_mean = ops::RowMean(sim);  // [m,1]
  Var sc = column_lstm_->Forward(*c_emb_or);  // [m, h]
  const int len = std::min(sc->value.rows(), config_.max_column_words);

  // Attention bi-LSTM over the first `len` column steps.
  std::vector<Var> fw(len), bw(len);
  for (const bool forward : {true, false}) {
    std::vector<Var>& outs = forward ? fw : bw;
    nn::LstmCell& cell = forward ? *fwd_cell_ : *bwd_cell_;
    nn::LstmCell::State state = cell.InitialState();
    for (int step = 0; step < len; ++step) {
      const int t = forward ? step : len - 1 - step;
      Var st = ops::PickRow(sc, t);  // [1, h]
      Var query = ops::Add(query_state_proj_->Forward(st),
                           query_hidden_proj_->Forward(state.h));
      Var weights =
          attention_->Weights(attention_->Energies(memory_proj, query));
      Var context = attention_->Context(weights, sq);  // [1, h]
      state = cell.Step(ops::ConcatCols({st, context}), state);
      outs[t] = state.h;
    }
  }

  Var zero_slot = MakeVar(Tensor::Zeros({1, 2 * h + 2}));
  std::vector<Var> slots;
  slots.reserve(config_.max_column_words);
  for (int t = 0; t < config_.max_column_words; ++t) {
    if (t < len) {
      slots.push_back(ops::ConcatCols({fw[t], bw[t], ops::PickRow(sim_max, t),
                                       ops::PickRow(sim_mean, t)}));
    } else {
      slots.push_back(zero_slot);  // zero-padding (paper Sec. IV-B iii)
    }
  }
  result.logit = head_->Forward(ops::ConcatCols(slots));  // [1, 1]
  return result;
}

StatusOr<std::vector<float>> ColumnMentionClassifier::PredictBatch(
    const std::vector<std::string>& question,
    const std::vector<std::vector<std::string>>& columns) const {
  if (columns.empty()) return std::vector<float>{};
  Pass pass(*this);
  NLIDB_RETURN_IF_ERROR(pass.Run(question, columns));
  return pass.probabilities();
}

void ColumnMentionClassifier::CollectParameters(std::vector<Var>* out) const {
  word_embedding_->CollectParameters(out);
  char_embedder_->CollectParameters(out);
  question_lstm_->CollectParameters(out);
  column_lstm_->CollectParameters(out);
  attention_->CollectParameters(out);
  query_state_proj_->CollectParameters(out);
  query_hidden_proj_->CollectParameters(out);
  fwd_cell_->CollectParameters(out);
  bwd_cell_->CollectParameters(out);
  head_->CollectParameters(out);
}

}  // namespace core
}  // namespace nlidb

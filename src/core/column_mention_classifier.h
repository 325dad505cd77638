#ifndef NLIDB_CORE_COLUMN_MENTION_CLASSIFIER_H_
#define NLIDB_CORE_COLUMN_MENTION_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "nn/attention.h"
#include "nn/char_cnn.h"
#include "nn/layers.h"
#include "nn/rnn.h"
#include "text/embedding_provider.h"
#include "text/vocab.h"

namespace nlidb {
namespace core {

/// The machine-comprehension binary classifier of Sec. IV-B: given a
/// question q and a column c, predicts whether c is mentioned in q.
///
/// Architecture (Fig. 3):
///  (i)  word embedder emb(w) = [E_word(w), E_char(w)] with a char-CNN
///       over widths {3..7} (Fig. 4);
///  (ii) a stacked LSTM over the question and a separate stacked LSTM
///       over the column words;
///  (iii) a bidirectional LSTM over the column states with additive
///       attention into the question states; the per-step outputs d_t are
///       zero-padded to `max_column_words`, concatenated and fed to an
///       MLP that emits one logit.
///
/// The network is defined once, by a private builder that scores a batch
/// of columns against one question: the question is encoded once,
/// columns of equal capped length walk the attention bi-LSTM as rows of
/// one state matrix, and every feature row goes through the head as one
/// GEMM. A single column runs through the same ops as a batch of one.
/// `Forward` is that one-column graph, exposing the embedding-lookup
/// nodes so training and the adversarial locator can read dL/dE_word(w)
/// and dL/dE_char(w) after Backward; `PredictBatch` is the batched graph
/// plus a sigmoid per row.
class ColumnMentionClassifier : public nn::Module {
 public:
  ColumnMentionClassifier(const ModelConfig& config,
                          const text::EmbeddingProvider& provider);

  /// Registers question/column words into the trainable word vocabulary,
  /// initializing new rows from the embedding provider. Call for the
  /// training corpus before training; unseen inference words map to <unk>
  /// (their char-level representation still carries signal).
  void AddVocabulary(const std::vector<std::string>& words);

  struct ForwardResult {
    Var logit;                       // [batch, 1]; [1,1] from Forward
    Var question_word_embeddings;    // [n, word_dim] lookup node
    std::vector<Var> question_char_embeddings;  // per token: [1, char_out]
  };

  /// Runs the classifier on (question tokens, column words).
  /// InvalidArgument when either sequence is empty — malformed input is
  /// a request error, not a process-fatal invariant (DESIGN.md
  /// "Fault-tolerance architecture").
  StatusOr<ForwardResult> Forward(const std::vector<std::string>& question,
                                  const std::vector<std::string>& column) const;

  /// P(column mentioned in question) = sigmoid(logit) for every column,
  /// in column order, from one batched graph. Each row is bitwise equal
  /// to sigmoid(Forward(question, column).logit) (DESIGN.md "Performance
  /// architecture").
  StatusOr<std::vector<float>> PredictBatch(
      const std::vector<std::string>& question,
      const std::vector<std::vector<std::string>>& columns) const;

  void CollectParameters(std::vector<Var>* out) const override;

  const ModelConfig& config() const { return config_; }
  const text::Vocab& vocab() const { return vocab_; }

 private:
  StatusOr<Var> Embed(const std::vector<std::string>& words,
                      Var* word_lookup,
                      std::vector<Var>* char_outputs) const;
  /// The one graph builder behind Forward and PredictBatch; `columns`
  /// must be non-empty.
  StatusOr<ForwardResult> Build(
      const std::vector<std::string>& question,
      const std::vector<std::vector<std::string>>& columns) const;

  ModelConfig config_;
  const text::EmbeddingProvider* provider_;
  text::Vocab vocab_;
  text::CharVocab char_vocab_;

  std::unique_ptr<nn::Embedding> word_embedding_;
  std::unique_ptr<nn::CharCnnEmbedder> char_embedder_;
  std::unique_ptr<nn::StackedLstm> question_lstm_;
  std::unique_ptr<nn::StackedLstm> column_lstm_;
  // Attention bi-LSTM over column states.
  std::unique_ptr<nn::AdditiveAttention> attention_;
  std::unique_ptr<nn::Linear> query_state_proj_;   // W2 s_t^c
  std::unique_ptr<nn::Linear> query_hidden_proj_;  // W3 d_{t-1} (+ b)
  std::unique_ptr<nn::LstmCell> fwd_cell_;
  std::unique_ptr<nn::LstmCell> bwd_cell_;
  std::unique_ptr<nn::Mlp> head_;
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_COLUMN_MENTION_CLASSIFIER_H_

#ifndef NLIDB_CORE_COLUMN_MENTION_CLASSIFIER_H_
#define NLIDB_CORE_COLUMN_MENTION_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/workspace.h"
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
/// The network is defined twice. `Forward` builds the autograd graph for
/// one column, exposing the embedding-lookup nodes so training reads
/// dL/dE_word(w) and dL/dE_char(w) after Backward. `Pass` is the
/// graph-free inference twin (column_mention_fast.cc): it encodes the
/// question once, scores every column, and differentiates a column's
/// logit by hand back to the question's embeddings, bitwise equal to
/// autograd on `Forward`'s graph. `PredictBatch` and the adversarial
/// locator run on `Pass`.
class ColumnMentionClassifier : public nn::Module {
 public:
  class Pass;

  ColumnMentionClassifier(const ModelConfig& config,
                          const text::EmbeddingProvider& provider);

  /// Registers question/column words into the trainable word vocabulary,
  /// initializing new rows from the embedding provider. Call for the
  /// training corpus before training; unseen inference words map to <unk>
  /// (their char-level representation still carries signal).
  void AddVocabulary(const std::vector<std::string>& words);

  struct ForwardResult {
    Var logit;                       // [1, 1]
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
  /// in column order, from one graph-free `Pass`. Each row is bitwise
  /// equal to sigmoid(Forward(question, column).logit) (DESIGN.md
  /// "Performance architecture").
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

/// One graph-free inference pass of the classifier over a question and
/// its columns (column_mention_fast.cc; DESIGN.md "Performance
/// architecture"). `Run` encodes the question once, walks every column
/// through its encoder, the attention bi-LSTM and the head, and keeps
/// the activations in the calling thread's Workspace. `Differentiate`
/// then carries one column's dz/dE back to the question's word-lookup
/// rows and char-CNN outputs by hand: no weight gradient, no column-side
/// backward. Probabilities and gradients are bitwise equal to autograd
/// on `Forward(question, column)`.
///
/// A Pass holds a Workspace scope: it stays on the thread that made it,
/// and Workspace scopes opened after it must close before it does.
class ColumnMentionClassifier::Pass {
 public:
  explicit Pass(const ColumnMentionClassifier& classifier);
  ~Pass();
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  /// Scores every column against `question`. InvalidArgument when the
  /// question or any column is empty, as `Forward` reports it. Call once
  /// per Pass.
  Status Run(const std::vector<std::string>& question,
             const std::vector<std::vector<std::string>>& columns);

  /// sigmoid(logit) per column, in column order, after `Run`.
  const std::vector<float>& probabilities() const { return probs_; }
  /// Column `c`'s logit, after `Run`.
  float logit(int c) const { return head_outputs_.back()[c]; }

  /// dz/dE for column `c`'s logit z at the question's embeddings:
  /// `word` is [tokens, word_dim] (the rows of the word-lookup node) and
  /// `chars` is [tokens, char_dim] (the char-CNN outputs), row-major.
  /// Valid until the next Differentiate or the end of the Pass.
  struct Gradients {
    const float* word;
    const float* chars;
    int tokens;
    int word_dim;
    int char_dim;
  };
  Gradients Differentiate(int c);

 private:
  struct StepTrace;
  struct Column;

  /// Embed() without a graph: rows [E_word(w) ; E_char(w)] of `words`
  /// into emb [words, word_dim + char_out].
  void EmbedRows(const std::vector<std::string>& words, float* emb) const;
  void EncodeQuestion(const std::vector<std::string>& question);
  void EncodeColumn(const std::vector<std::string>& words, float* features);
  void WalkAttention(int len, const std::vector<int>& group, float* features);
  void ReverseAttention(const Column& col, const float* d_features,
                        float* d_sq);
  void ReverseQuestion(float* d_states, float* d_emb);

  const ColumnMentionClassifier& clf_;
  Workspace& ws_;
  Workspace::Scope scope_;
  int n_ = 0;                           // question length
  const float* q_word_t_ = nullptr;     // [word_dim, n] E_word(question)^T
  const float* sq_ = nullptr;           // [n, h] question states s^q
  const float* memory_proj_ = nullptr;  // [n, h] W1 s^q
  std::vector<float*> q_lstm_;     // per question-LSTM layer: gates, c, tanh(c)
  std::vector<StepTrace> steps_;   // attention steps of every length group
  std::vector<Column> columns_;
  std::vector<int> argmax_;        // per column word: RowMax's pick
  std::vector<float*> head_outputs_;  // Mlp::Infer's per-layer outputs
  std::vector<float> probs_;
  float* d_word_ = nullptr;   // Differentiate's outputs
  float* d_chars_ = nullptr;
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_COLUMN_MENTION_CLASSIFIER_H_

#ifndef NLIDB_CORE_VALUE_DETECTOR_H_
#define NLIDB_CORE_VALUE_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/config.h"
#include "nn/layers.h"
#include "sql/statistics.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace core {

/// The value detection classifier of Sec. IV-D.
///
/// Takes a question span's mean embedding s_span and a column's data
/// statistics s_c and scores
///   y = sigmoid(W2 relu(W1 [s_c - s_span, s_c * s_span] + b1) + b2).
/// Because s_c summarizes the column without enumerating its values, the
/// detector handles counterfactual values (challenge 4): "joe biden" is
/// still close to the statistics of a person-name column even if absent
/// from the table.
class ValueDetector : public nn::Module {
 public:
  ValueDetector(const ModelConfig& config,
                const text::EmbeddingProvider& provider);

  /// Forward pass returning the [1,1] logit for (span embedding, column
  /// statistics) as a differentiable graph (used in training).
  /// InvalidArgument when either vector does not have the provider's
  /// dimension (request error, not a process-fatal invariant).
  StatusOr<Var> ForwardFromVectors(const std::vector<float>& span_embedding,
                                   const std::vector<float>& column_stats) const;

  /// Candidate value spans of a question: contiguous spans of length
  /// 1..max_value_span containing no stop words (Sec. IV-D).
  std::vector<text::Span> CandidateSpans(
      const std::vector<std::string>& tokens) const;

  /// For every candidate span, the columns whose score exceeds 0.5,
  /// sorted by score descending. A span with no accepting column is not
  /// a value mention.
  struct Detection {
    text::Span span;
    std::vector<std::pair<int, float>> column_scores;  // (column, score>0.5)
  };
  /// `ctx` (optional) is polled once per candidate span; an expired
  /// deadline surfaces as DeadlineExceeded instead of finishing the scan.
  StatusOr<std::vector<Detection>> Detect(
      const std::vector<std::string>& tokens,
      const std::vector<sql::ColumnStatistics>& table_stats,
      const CancelContext* ctx = nullptr) const;

  void CollectParameters(std::vector<Var>* out) const override;

  const ModelConfig& config() const { return config_; }
  const text::EmbeddingProvider& provider() const { return *provider_; }

 private:
  // P(span is a value of table_stats[c]) of one embedded span for every
  // c in `columns`, from one graph-free [k, 2d] pass of the MLP (Detect's
  // path). Each score is bitwise equal to the sigmoid of
  // ForwardFromVectors' logit (testing::AutogradValueScore checks it).
  StatusOr<std::vector<float>> ScoreColumns(
      const std::vector<float>& span_embedding,
      const std::vector<sql::ColumnStatistics>& table_stats,
      const std::vector<int>& columns) const;

  ModelConfig config_;
  const text::EmbeddingProvider* provider_;
  std::unique_ptr<nn::Mlp> mlp_;
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_VALUE_DETECTOR_H_

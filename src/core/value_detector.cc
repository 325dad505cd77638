#include "core/value_detector.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "common/workspace.h"
#include "tensor/ops.h"

namespace nlidb {
namespace core {

ValueDetector::ValueDetector(const ModelConfig& config,
                             const text::EmbeddingProvider& provider)
    : config_(config), provider_(&provider) {
  Rng rng(config_.seed + 1);
  mlp_ = std::make_unique<nn::Mlp>(
      std::vector<int>{2 * provider.dim(), config_.value_mlp_hidden, 1}, rng);
}

namespace {

Status CheckInputDims(const std::vector<float>& span_embedding,
                      const std::vector<float>& column_stats, int d) {
  if (static_cast<int>(span_embedding.size()) != d ||
      static_cast<int>(column_stats.size()) != d) {
    return Status::InvalidArgument(
        "ValueDetector input dims: span=" +
        std::to_string(span_embedding.size()) +
        " stats=" + std::to_string(column_stats.size()) + " want=" +
        std::to_string(d));
  }
  return Status::Ok();
}

/// Input features [s_c - s_span, s_c * s_span] (paper Sec. IV-D) into
/// row [2d].
void FeatureRow(const std::vector<float>& span_embedding,
                const std::vector<float>& column_stats, float* row) {
  const size_t d = span_embedding.size();
  for (size_t j = 0; j < d; ++j) {
    row[j] = column_stats[j] - span_embedding[j];
    row[d + j] = column_stats[j] * span_embedding[j];
  }
}

inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

StatusOr<Var> ValueDetector::ForwardFromVectors(
    const std::vector<float>& span_embedding,
    const std::vector<float>& column_stats) const {
  const int d = provider_->dim();
  NLIDB_RETURN_IF_ERROR(CheckInputDims(span_embedding, column_stats, d));
  Tensor input({1, 2 * d});
  FeatureRow(span_embedding, column_stats, input.data());
  return mlp_->Forward(MakeVar(std::move(input)));
}

StatusOr<float> ValueDetector::Score(
    const std::vector<std::string>& span_tokens,
    const sql::ColumnStatistics& stats) const {
  return ScoreEmbedding(provider_->PhraseVector(span_tokens), stats);
}

StatusOr<float> ValueDetector::ScoreEmbedding(
    const std::vector<float>& span_embedding,
    const sql::ColumnStatistics& stats) const {
  StatusOr<Var> logit = ForwardFromVectors(span_embedding, stats.embedding);
  if (!logit.ok()) return logit.status();
  return Sigmoid((*logit)->value.vec()[0]);
}

StatusOr<std::vector<float>> ValueDetector::ScoreColumns(
    const std::vector<float>& span_embedding,
    const std::vector<sql::ColumnStatistics>& table_stats,
    const std::vector<int>& columns) const {
  const int d = provider_->dim();
  for (int c : columns) {
    NLIDB_RETURN_IF_ERROR(
        CheckInputDims(span_embedding, table_stats[c].embedding, d));
  }
  const int k = static_cast<int>(columns.size());
  Workspace& ws = Workspace::ThreadLocal();
  Workspace::Scope scope(ws);
  float* input = ws.Floats(static_cast<size_t>(k) * 2 * d);
  for (int i = 0; i < k; ++i) {
    FeatureRow(span_embedding, table_stats[columns[i]].embedding,
               input + static_cast<size_t>(i) * 2 * d);
  }
  const float* logits = mlp_->Infer(input, k, ws).back();
  std::vector<float> scores(k);
  for (int i = 0; i < k; ++i) scores[i] = Sigmoid(logits[i]);
  return scores;
}

std::vector<text::Span> ValueDetector::CandidateSpans(
    const std::vector<std::string>& tokens) const {
  std::vector<text::Span> spans;
  const int n = static_cast<int>(tokens.size());
  for (int i = 0; i < n; ++i) {
    if (text::IsStopWord(tokens[i])) continue;
    for (int j = i + 1; j <= std::min(n, i + config_.max_value_span); ++j) {
      if (text::IsStopWord(tokens[j - 1])) break;
      spans.push_back(text::Span{i, j});
    }
  }
  return spans;
}

StatusOr<std::vector<ValueDetector::Detection>> ValueDetector::Detect(
    const std::vector<std::string>& tokens,
    const std::vector<sql::ColumnStatistics>& table_stats,
    const CancelContext* ctx) const {
  std::vector<Detection> detections;
  for (const text::Span& span : CandidateSpans(tokens)) {
    NLIDB_RETURN_IF_ERROR(CheckCancel(ctx, "value_detector.detect"));
    std::vector<std::string> span_tokens(tokens.begin() + span.begin,
                                         tokens.begin() + span.end);
    bool all_numeric = true;
    for (const auto& t : span_tokens) all_numeric = all_numeric && LooksNumeric(t);
    // Type compatibility: a real column only takes all-numeric spans
    // ("june 23" can never be a laps value).
    std::vector<int> compatible;
    for (size_t c = 0; c < table_stats.size(); ++c) {
      if (table_stats[c].type == sql::DataType::kReal && !all_numeric) continue;
      compatible.push_back(static_cast<int>(c));
    }
    if (compatible.empty()) continue;
    // Embedded once per span (each embedding takes the provider's lock
    // once per word), then every compatible column scored in one pass.
    StatusOr<std::vector<float>> scores = ScoreColumns(
        provider_->PhraseVector(span_tokens), table_stats, compatible);
    if (!scores.ok()) return scores.status();
    Detection det;
    det.span = span;
    for (size_t i = 0; i < compatible.size(); ++i) {
      if ((*scores)[i] > 0.5f) {
        det.column_scores.push_back({compatible[i], (*scores)[i]});
      }
    }
    if (det.column_scores.empty()) continue;
    std::sort(det.column_scores.begin(), det.column_scores.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    detections.push_back(std::move(det));
  }
  return detections;
}

void ValueDetector::CollectParameters(std::vector<Var>* out) const {
  mlp_->CollectParameters(out);
}

}  // namespace core
}  // namespace nlidb

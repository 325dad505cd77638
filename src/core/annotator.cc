#include "core/annotator.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "text/distance.h"
#include "text/stopwords.h"

namespace nlidb {
namespace core {

namespace {

constexpr float kEditAcceptThreshold = 0.78f;
constexpr float kCosineAcceptThreshold = 0.82f;
constexpr float kClassifierThreshold = 0.5f;
// Slight preference for longer windows among near-equal match scores
// ("grand prix" over "grand").
constexpr float kLengthBonus = 0.02f;

}  // namespace

/// Sec. III: "some mentions ... can be detected exactly as they appear in
/// the questions". Counterfactual values still need the learned detector.
std::vector<ValueDetector::Detection> ExactCellValueMatches(
    const std::vector<std::string>& tokens, const sql::Table& table,
    const sql::CellIndex& index) {
  struct Hit {
    int col, row, begin, length;
  };
  std::vector<Hit> hits;
  const int n = static_cast<int>(tokens.size());
  for (int i = 0; i < n; ++i) {
    uint32_t hash = sql::CellIndex::kHashSeed;
    for (int m = 1; m <= sql::CellIndex::kMaxTokens && i + m <= n; ++m) {
      hash = sql::CellIndex::HashToken(hash, tokens[i + m - 1]);
      for (const sql::CellIndex::Entry& e : index.Find(hash)) {
        // A hash hit is only a candidate: the cell itself must tokenize
        // to exactly this n-gram.
        const int r = index.row(e);
        const int c = index.column(e);
        if (r >= table.num_rows() || c >= table.num_columns()) continue;
        const std::vector<std::string> cell_tokens =
            text::Tokenize(table.Cell(r, c).ToString());
        if (cell_tokens.size() == static_cast<size_t>(m) &&
            std::equal(cell_tokens.begin(), cell_tokens.end(),
                       tokens.begin() + i)) {
          hits.push_back({c, r, i, m});
        }
      }
    }
  }
  // Column, then the display's first row, then question position: the
  // order of a column-by-column, row-by-row scan of the table.
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.col != b.col) return a.col < b.col;
    if (a.row != b.row) return a.row < b.row;
    return a.begin < b.begin;
  });
  std::vector<ValueDetector::Detection> out;
  out.reserve(hits.size());
  for (const Hit& hit : hits) {
    ValueDetector::Detection det;
    det.span = text::Span{hit.begin, hit.begin + hit.length};
    det.column_scores.push_back({hit.col, 1.0f});
    out.push_back(std::move(det));
  }
  // Keep only maximal spans: an exact match strictly inside a longer one
  // ("17" inside "july 17") is subsumed.
  std::vector<ValueDetector::Detection> maximal;
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
  // Merge detections sharing a span so a value string occurring in two
  // columns yields one detection with both columns admissible.
  std::vector<ValueDetector::Detection> merged;
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

std::vector<ValueDetector::Detection> ExactCellValueMatches(
    const std::vector<std::string>& tokens, const sql::Table& table) {
  return ExactCellValueMatches(tokens, table, sql::CellIndex::Build(table));
}

namespace {

bool SpanClaimed(const std::vector<bool>& claimed, const text::Span& span) {
  for (int i = span.begin; i < span.end; ++i) {
    if (claimed[i]) return true;
  }
  return false;
}

void Claim(std::vector<bool>& claimed, const text::Span& span) {
  for (int i = span.begin; i < span.end; ++i) claimed[i] = true;
}

}  // namespace

Annotator::Annotator(const ModelConfig& config,
                     const text::EmbeddingProvider& provider,
                     const ColumnMentionClassifier* classifier,
                     const ValueDetector* value_detector)
    : config_(config),
      provider_(&provider),
      classifier_(classifier),
      value_detector_(value_detector),
      resolver_(config.use_dependency_resolution
                    ? MentionResolver::Strategy::kDependencyTree
                    : MentionResolver::Strategy::kScoreOnly) {}

std::optional<text::Span> Annotator::ContextFreeMatch(
    const std::vector<std::string>& tokens,
    const std::vector<std::string>& phrase_tokens) const {
  std::vector<bool> claimed(tokens.size(), false);
  return ContextFreeMatchUnclaimed(tokens, phrase_tokens, claimed,
                                   ContextFreeMode::kEditAndSemantic);
}

std::vector<ColumnMentionCandidate> Annotator::ContextFreeColumnPass(
    const std::vector<std::string>& tokens, const sql::Schema& schema,
    const NlMetadata* metadata, std::vector<bool>& claimed,
    std::vector<bool>& matched) const {
  std::vector<ColumnMentionCandidate> out;
  // Two rounds: lexical (edit) matches bind first so that a column whose
  // name literally appears cannot lose its tokens to a semantically
  // related sibling (silver vs bronze); cosine matches fill in after.
  const ContextFreeMode modes[] = {ContextFreeMode::kEditOnly,
                                   ContextFreeMode::kEditAndSemantic};
  for (ContextFreeMode mode : modes) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      if (matched[c]) continue;
      const std::vector<std::string> display = schema.column(c).DisplayTokens();
      std::optional<text::Span> span =
          ContextFreeMatchUnclaimed(tokens, display, claimed, mode);
      if (!span.has_value() && metadata != nullptr &&
          c < static_cast<int>(metadata->column_phrases.size())) {
        for (const auto& phrase : metadata->column_phrases[c]) {
          span = ContextFreeMatchUnclaimed(tokens, SplitWhitespace(phrase),
                                           claimed, mode);
          if (span.has_value()) break;
        }
      }
      if (span.has_value()) {
        Claim(claimed, *span);
        out.push_back({c, *span, 1.0f});
        matched[c] = true;
      }
    }
  }
  return out;
}

std::optional<text::Span> Annotator::ContextFreeMatchUnclaimed(
    const std::vector<std::string>& tokens,
    const std::vector<std::string>& phrase_tokens,
    const std::vector<bool>& claimed, ContextFreeMode mode) const {
  if (phrase_tokens.empty() || tokens.empty()) return std::nullopt;
  const int n = static_cast<int>(tokens.size());
  const int m = static_cast<int>(phrase_tokens.size());
  const std::string phrase = Join(phrase_tokens, " ");

  float best_score = 0.0f;
  text::Span best{};
  for (int len = std::max(1, m - 1); len <= m + 1; ++len) {
    for (int i = 0; i + len <= n; ++i) {
      const text::Span span{i, i + len};
      if (SpanClaimed(claimed, span)) continue;
      std::vector<std::string> window(tokens.begin() + i,
                                      tokens.begin() + i + len);
      // A column mention never consists of function words alone
      // ("how many" must not match a column named "total").
      bool has_content = false;
      for (const auto& w : window) has_content |= !text::IsStopWord(w);
      if (!has_content) continue;
      const float edit = text::EditSimilarity(Join(window, " "), phrase);
      const float cosine = mode == ContextFreeMode::kEditOnly
                               ? 0.0f
                               : text::PhraseCosine(*provider_, window,
                                                    phrase_tokens);
      // Accept on either signal; rank by their max plus a length bonus.
      if (edit >= kEditAcceptThreshold || cosine >= kCosineAcceptThreshold) {
        const float score = std::max(edit, cosine) + kLengthBonus * len;
        if (score > best_score) {
          best_score = score;
          best = span;
        }
      }
    }
  }
  if (best.empty()) return std::nullopt;
  return best;
}

StatusOr<std::vector<ColumnMentionCandidate>> Annotator::DetectColumnMentions(
    const std::vector<std::string>& tokens, const sql::Table& table,
    const NlMetadata* metadata) const {
  const sql::Schema& schema = table.schema();
  std::vector<bool> claimed(tokens.size(), false);
  std::vector<bool> matched(schema.num_columns(), false);
  std::vector<ColumnMentionCandidate> out =
      ContextFreeColumnPass(tokens, schema, metadata, claimed, matched);
  StatusOr<std::vector<ColumnMentionCandidate>> learned =
      ClassifierColumnPass(tokens, schema, claimed, matched, nullptr);
  if (!learned.ok()) return learned.status();
  for (auto& cand : *learned) {
    out.push_back(std::move(cand));
  }
  return out;
}

StatusOr<std::vector<ColumnMentionCandidate>> Annotator::ClassifierColumnPass(
    const std::vector<std::string>& tokens, const sql::Schema& schema,
    std::vector<bool>& claimed, const std::vector<bool>& matched,
    const CancelContext* ctx) const {
  std::vector<ColumnMentionCandidate> out;
  if (classifier_ == nullptr) return out;
  static metrics::Counter& columns_scored =
      metrics::MetricsRegistry::Global().GetCounter(
          "annotator.classifier_columns_scored");
  static metrics::Counter& influence_probes =
      metrics::MetricsRegistry::Global().GetCounter(
          "annotator.influence_probes");
  trace::TraceSpan span("annotator.classifier");
  AdversarialLocator locator(config_);

  // Phase 1: one graph-free classifier pass scores every unmatched
  // column. It encodes the question once and keeps every column's
  // activations; each probability is bitwise equal to that column's
  // one-column Forward, so the acceptance decisions are exactly those of
  // a per-column pass.
  std::vector<int> pending;
  std::vector<std::vector<std::string>> displays;
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (matched[c]) continue;
    pending.push_back(c);
    displays.push_back(schema.column(c).DisplayTokens());
  }
  if (pending.empty()) return out;
  columns_scored.Increment(static_cast<int64_t>(pending.size()));
  NLIDB_RETURN_IF_ERROR(CheckCancel(ctx, "annotator.classifier_batch"));
  ColumnMentionClassifier::Pass pass(*classifier_);
  NLIDB_RETURN_IF_ERROR(pass.Run(tokens, displays));
  const std::vector<float>& probs = pass.probabilities();

  // Phase 2: influence profiles for the accepted columns, one probe at a
  // time on this thread. Each probe is a hand-written reverse pass over
  // the activations phase 1 kept, from the column's logit back to the
  // question's embeddings; nothing is re-encoded.
  std::vector<int> accepted;
  for (size_t j = 0; j < pending.size(); ++j) {
    if (probs[j] >= kClassifierThreshold) accepted.push_back(static_cast<int>(j));
  }
  std::vector<InfluenceProfile> profiles;
  profiles.reserve(accepted.size());
  if (!accepted.empty()) {
    influence_probes.Increment(static_cast<int64_t>(accepted.size()));
    trace::TraceSpan probes("annotator.influence");
    probes.Annotate("columns", static_cast<int64_t>(accepted.size()));
    for (int j : accepted) {
      NLIDB_RETURN_IF_ERROR(CheckCancel(ctx, "annotator.influence"));
      profiles.push_back(locator.Influence(pass, j));
    }
  }

  // Phase 3 (sequential, original column order): masking, span location,
  // and claiming. The claimed mask evolves between columns exactly as in
  // the sequential pass, so results are unchanged.
  for (size_t j = 0; j < accepted.size(); ++j) {
    const int c = pending[accepted[j]];
    const float p = probs[accepted[j]];
    InfluenceProfile& profile = profiles[j];
    // Tokens already claimed by higher-confidence evidence (exact values,
    // context-free column matches, learned values) and stop words are
    // masked out of the influence profile — a column mention is never
    // made of function words alone, and a span landing on a value means
    // the column is mentioned implicitly through its value (Fig. 1d).
    float masked_max = 0.0f;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (claimed[i] || text::IsStopWord(tokens[i])) profile.total[i] = 0.0f;
      masked_max = std::max(masked_max, profile.total[i]);
    }
    text::Span span{};
    if (masked_max > 0.0f) {
      span = locator.LocateSpan(profile);
      // Trim zeroed borders introduced by masking.
      while (span.begin < span.end && profile.total[span.begin] == 0.0f) {
        ++span.begin;
      }
      while (span.end > span.begin && profile.total[span.end - 1] == 0.0f) {
        --span.end;
      }
    }
    if (!span.empty()) Claim(claimed, span);
    out.push_back({c, span, p});
  }
  return out;
}

StatusOr<Annotation> Annotator::Annotate(
    const std::vector<std::string>& tokens, const sql::Table& table,
    const schema::TableStatsEntry& entry, const NlMetadata* metadata,
    const CancelContext* ctx) const {
  if (tokens.empty()) {
    return Status::InvalidArgument("empty question");
  }
  const std::vector<sql::ColumnStatistics>& stats = entry.stats;
  if (static_cast<int>(stats.size()) != table.num_columns()) {
    return Status::InvalidArgument(
        "column statistics do not match the table schema (" +
        std::to_string(stats.size()) + " stats for " +
        std::to_string(table.num_columns()) + " columns)");
  }
  static metrics::Counter& exact_matches =
      metrics::MetricsRegistry::Global().GetCounter(
          "annotator.exact_value_matches");
  static metrics::Counter& context_free_matches =
      metrics::MetricsRegistry::Global().GetCounter(
          "annotator.context_free_matches");
  static metrics::Counter& learned_detections =
      metrics::MetricsRegistry::Global().GetCounter(
          "annotator.learned_value_detections");
  trace::TraceSpan span("annotator.annotate");

  // Confidence-ordered token claiming:
  //  1. exact table-cell value matches,
  //  2. context-free column matches,
  //  3. learned value detections,
  //  4. adversarial column spans (masked by everything above).
  const sql::Schema& schema = table.schema();

  // Stage 1: exact table-cell value matches claim their tokens.
  std::vector<ValueDetector::Detection> values;
  std::vector<bool> claimed(tokens.size(), false);
  {
    trace::TraceSpan stage("annotator.exact_values");
    values = ExactCellValueMatches(tokens, table, entry.cells);
    for (const auto& det : values) Claim(claimed, det.span);
    exact_matches.Increment(static_cast<int64_t>(values.size()));
  }

  NLIDB_RETURN_IF_ERROR(CheckCancel(ctx, "annotator.exact_values"));

  // Stage 2: context-free column matches on unclaimed tokens.
  std::vector<bool> matched(schema.num_columns(), false);
  std::vector<ColumnMentionCandidate> columns;
  {
    trace::TraceSpan stage("annotator.context_free");
    columns = ContextFreeColumnPass(tokens, schema, metadata, claimed,
                                    matched);
    context_free_matches.Increment(static_cast<int64_t>(columns.size()));
  }
  NLIDB_RETURN_IF_ERROR(CheckCancel(ctx, "annotator.context_free"));

  // Stage 3: learned value detections, longest span first so a full
  // multi-word value is not blocked by its own sub-span.
  if (value_detector_ != nullptr) {
    trace::TraceSpan stage("annotator.values");
    StatusOr<std::vector<ValueDetector::Detection>> learned_or =
        value_detector_->Detect(tokens, stats, ctx);
    if (!learned_or.ok()) return learned_or.status();
    std::vector<ValueDetector::Detection> learned =
        std::move(learned_or).value();
    learned_detections.Increment(static_cast<int64_t>(learned.size()));
    std::sort(learned.begin(), learned.end(),
              [](const ValueDetector::Detection& a,
                 const ValueDetector::Detection& b) {
                if (a.span.length() != b.span.length()) {
                  return a.span.length() > b.span.length();
                }
                const float sa =
                    a.column_scores.empty() ? 0 : a.column_scores[0].second;
                const float sb =
                    b.column_scores.empty() ? 0 : b.column_scores[0].second;
                return sa > sb;
              });
    for (auto& det : learned) {
      if (SpanClaimed(claimed, det.span)) continue;
      Claim(claimed, det.span);
      values.push_back(std::move(det));
    }
  }

  // Stage 4: classifier + adversarial locator for unmatched columns.
  StatusOr<std::vector<ColumnMentionCandidate>> learned_columns =
      ClassifierColumnPass(tokens, schema, claimed, matched, ctx);
  if (!learned_columns.ok()) return learned_columns.status();
  for (auto& cand : *learned_columns) {
    columns.push_back(std::move(cand));
  }
  NLIDB_RETURN_IF_ERROR(CheckCancel(ctx, "annotator.classifier"));
  trace::TraceSpan resolve("annotator.resolve");
  return resolver_.Resolve(tokens, columns, values);
}

}  // namespace core
}  // namespace nlidb

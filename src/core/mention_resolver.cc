#include "core/mention_resolver.h"

#include <algorithm>

namespace nlidb {
namespace core {

namespace {

constexpr int kImplicitDistancePenalty = 8;

struct ResolvedValue {
  text::Span span;
  int column = -1;
  float score = 0.0f;
};

}  // namespace

Annotation MentionResolver::Resolve(
    const std::vector<std::string>& tokens,
    const std::vector<ColumnMentionCandidate>& columns,
    const std::vector<ValueDetector::Detection>& values) const {
  const text::DependencyTree tree = text::DependencyTree::Parse(tokens);

  // 1. Select non-overlapping value spans, preferring longer spans (a
  // multi-word entity beats its sub-spans) and higher detector scores.
  std::vector<ValueDetector::Detection> ordered = values;
  std::sort(ordered.begin(), ordered.end(),
            [](const ValueDetector::Detection& a,
               const ValueDetector::Detection& b) {
              if (a.span.length() != b.span.length()) {
                return a.span.length() > b.span.length();
              }
              const float sa = a.column_scores.empty() ? 0 : a.column_scores[0].second;
              const float sb = b.column_scores.empty() ? 0 : b.column_scores[0].second;
              return sa > sb;
            });
  std::vector<const ValueDetector::Detection*> accepted;
  auto overlaps_any = [&](const text::Span& span) {
    for (const auto* d : accepted) {
      if (d->span.Overlaps(span)) return true;
    }
    for (const auto& c : columns) {
      if (!c.span.empty() && c.span.Overlaps(span)) return true;
    }
    return false;
  };
  for (const auto& det : ordered) {
    if (!overlaps_any(det.span)) accepted.push_back(&det);
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const auto* a, const auto* b) {
              return a->span.begin < b->span.begin;
            });

  // 2. Assign each value span to a column by structural closeness.
  std::vector<ResolvedValue> resolved;
  std::vector<bool> column_taken(columns.size(), false);
  std::vector<bool> schema_col_taken_by_value(512, false);
  for (const auto* det : accepted) {
    int best_col = -1;
    float best_score = 0.0f;
    int best_dist = 1 << 20;
    for (const auto& [col, score] : det->column_scores) {
      if (col < 512 && schema_col_taken_by_value[col]) continue;
      // Distance to an explicit mention of this column if one exists,
      // else a fixed implicit penalty (favoring explicit pairings).
      // Under the kScoreOnly ablation, structure is ignored entirely.
      int dist = 0;
      if (strategy_ == Strategy::kDependencyTree) {
        dist = kImplicitDistancePenalty;
        for (const auto& cm : columns) {
          if (cm.column == col && !cm.span.empty()) {
            dist = tree.SpanDistance(det->span, cm.span);
            break;
          }
        }
      }
      if (dist < best_dist ||
          (dist == best_dist && score > best_score)) {
        best_dist = dist;
        best_col = col;
        best_score = score;
      }
    }
    if (best_col < 0) continue;
    if (best_col < 512) schema_col_taken_by_value[best_col] = true;
    resolved.push_back({det->span, best_col, best_score});
  }

  // 3. Build pairs: every detected column mention contributes a pair;
  // values attach to their column's pair, or create an implicit pair.
  struct ProtoPair {
    MentionPair pair;
    int position = 1 << 20;  // ordering key
  };
  std::vector<ProtoPair> protos;
  for (size_t i = 0; i < columns.size(); ++i) {
    const auto& cm = columns[i];
    if (cm.column < 0) continue;
    // Skip duplicate mentions of the same column (keep most confident).
    bool dup = false;
    for (auto& p : protos) {
      if (p.pair.column == cm.column) dup = true;
    }
    if (dup) continue;
    ProtoPair proto;
    proto.pair.column = cm.column;
    proto.pair.column_span = cm.span;
    proto.position = cm.span.empty() ? (1 << 20) : cm.span.begin;
    protos.push_back(std::move(proto));
    (void)column_taken[i];
  }
  for (const auto& rv : resolved) {
    ProtoPair* target = nullptr;
    for (auto& p : protos) {
      if (p.pair.column == rv.column) {
        target = &p;
        break;
      }
    }
    if (target == nullptr) {
      ProtoPair proto;
      proto.pair.column = rv.column;
      protos.push_back(std::move(proto));
      target = &protos.back();
    }
    if (!target->pair.value_span.empty()) continue;  // already has a value
    target->pair.value_span = rv.span;
    target->pair.value_text = text::SpanText(tokens, rv.span);
    target->position = std::min(target->position, rv.span.begin);
  }

  std::sort(protos.begin(), protos.end(),
            [](const ProtoPair& a, const ProtoPair& b) {
              return a.position < b.position;
            });
  Annotation annotation;
  for (auto& p : protos) annotation.pairs.push_back(std::move(p.pair));
  return annotation;
}

}  // namespace core
}  // namespace nlidb

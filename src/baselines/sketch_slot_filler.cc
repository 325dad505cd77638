#include "baselines/sketch_slot_filler.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"
#include "core/trainer.h"

namespace nlidb {
namespace baselines {

SketchSlotFiller::SketchSlotFiller(
    const core::ModelConfig& config,
    std::shared_ptr<text::EmbeddingProvider> provider)
    : config_(config),
      provider_(std::move(provider)),
      registry_(provider_) {
  NLIDB_CHECK(provider_ != nullptr) << "sketch filler needs a provider";
  value_detector_ = std::make_unique<core::ValueDetector>(config_, *provider_);
  // Context-free matching only: no classifier, no learned value detector
  // wired into the annotator (we drive the detector directly).
  matcher_ = std::make_unique<core::Annotator>(config_, *provider_,
                                               /*classifier=*/nullptr,
                                               /*value_detector=*/nullptr);
}

float SketchSlotFiller::Train(const data::Dataset& dataset) {
  return core::TrainValueDetector(*value_detector_, dataset, registry_,
                                  config_);
}

sql::Aggregate SketchSlotFiller::PredictAggregate(
    const std::vector<std::string>& tokens) {
  bool how_many = false;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    how_many = how_many || (tokens[i] == "how" && tokens[i + 1] == "many");
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    if (t == "highest" || t == "largest" || t == "maximum" || t == "most") {
      return sql::Aggregate::kMax;
    }
    if (t == "lowest" || t == "smallest" || t == "minimum") {
      return sql::Aggregate::kMin;
    }
    if (t == "average" || t == "mean") return sql::Aggregate::kAvg;
    if (i > 0 && tokens[i - 1] == "the" && t == "total") {
      return sql::Aggregate::kSum;
    }
    if (t == "entries" || t == "rows") {
      if (how_many) return sql::Aggregate::kCount;
    }
  }
  return sql::Aggregate::kNone;
}

StatusOr<sql::SelectQuery> SketchSlotFiller::Translate(
    const std::vector<std::string>& tokens, const sql::Table& table) const {
  const sql::Schema& schema = table.schema();
  sql::SelectQuery query;
  query.agg = PredictAggregate(tokens);

  // $SELECT_COL: earliest context-free column match in the question
  // (questions lead with what they ask for); fall back to column 0.
  int select_col = 0;
  int best_pos = 1 << 20;
  for (int c = 0; c < schema.num_columns(); ++c) {
    auto span = matcher_->ContextFreeMatch(tokens,
                                           schema.column(c).DisplayTokens());
    if (span.has_value() && span->begin < best_pos) {
      best_pos = span->begin;
      select_col = c;
    }
  }
  query.select_column = select_col;

  // $COND_COL/$OP/$COND_VAL: type-aware value detection; each value span
  // goes to its highest-scoring column — no structural resolution.
  const schema::TableStatsEntry& entry = registry_.EntryFor(table);
  std::vector<core::ValueDetector::Detection> detections =
      core::ExactCellValueMatches(tokens, table, entry.cells);
  StatusOr<std::vector<core::ValueDetector::Detection>> detected =
      value_detector_->Detect(tokens, entry.stats);
  if (detected.ok()) {
    for (auto& det : *detected) {
      bool covered = false;
      for (const auto& e : detections) {
        covered = covered || e.span.Overlaps(det.span);
      }
      if (!covered) detections.push_back(std::move(det));
    }
  }
  // Longest spans first; skip overlaps.
  std::sort(detections.begin(), detections.end(),
            [](const core::ValueDetector::Detection& a,
               const core::ValueDetector::Detection& b) {
              return a.span.length() > b.span.length();
            });
  std::vector<text::Span> used;
  std::vector<bool> column_used(schema.num_columns(), false);
  for (const auto& det : detections) {
    if (det.column_scores.empty()) continue;
    bool overlap = false;
    for (const auto& u : used) overlap = overlap || u.Overlaps(det.span);
    if (overlap) continue;
    int col = -1;
    for (const auto& [candidate, score] : det.column_scores) {
      if (!column_used[candidate]) {
        col = candidate;
        break;
      }
    }
    if (col < 0) continue;
    used.push_back(det.span);
    column_used[col] = true;

    sql::Condition cond;
    cond.column = col;
    // $OP from comparative keywords right before the value span.
    cond.op = sql::CondOp::kEq;
    for (int i = std::max(0, det.span.begin - 3); i < det.span.begin; ++i) {
      if (tokens[i] == "more" || tokens[i] == "over" ||
          tokens[i] == "greater" || tokens[i] == "above") {
        cond.op = sql::CondOp::kGt;
      }
      if (tokens[i] == "fewer" || tokens[i] == "less" ||
          tokens[i] == "under" || tokens[i] == "below") {
        cond.op = sql::CondOp::kLt;
      }
    }
    const std::string value_text = text::SpanText(tokens, det.span);
    if (schema.column(col).type == sql::DataType::kReal &&
        LooksNumeric(value_text)) {
      cond.value = sql::Value::Real(std::strtod(value_text.c_str(), nullptr));
    } else {
      cond.value = sql::Value::Text(value_text);
    }
    query.conditions.push_back(std::move(cond));
  }
  if (query.conditions.empty()) {
    return Status::NotFound("sketch filler found no conditions");
  }
  return query;
}

}  // namespace baselines
}  // namespace nlidb

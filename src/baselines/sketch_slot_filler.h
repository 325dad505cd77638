#ifndef NLIDB_BASELINES_SKETCH_SLOT_FILLER_H_
#define NLIDB_BASELINES_SKETCH_SLOT_FILLER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/annotator.h"
#include "core/trainer.h"
#include "core/value_detector.h"
#include "data/example.h"
#include "schema/registry.h"

namespace nlidb {
namespace baselines {

/// A SQLNet/TypeSQL-style sketch-based slot filler: instead of decoding a
/// sequence, it fills the fixed sketch
///   SELECT $AGG $SELECT_COL WHERE ($COND_COL $OP $COND_VAL)*
/// slot by slot — aggregate from keyword features, select column from
/// context-free matching, conditions from type-aware value detection with
/// each value assigned to its highest-scoring column (no dependency-tree
/// resolution, no latent-structure translation).
///
/// This is the comparison system for the sketch rows of Table II and the
/// $COND_COL/$COND_VAL comparison of Sec. VII-A1.
class SketchSlotFiller {
 public:
  SketchSlotFiller(const core::ModelConfig& config,
                   std::shared_ptr<text::EmbeddingProvider> provider);

  SketchSlotFiller(const SketchSlotFiller&) = delete;
  SketchSlotFiller& operator=(const SketchSlotFiller&) = delete;

  /// Trains the type-aware value detector on the corpus.
  float Train(const data::Dataset& dataset);

  /// Fills the sketch for one question.
  StatusOr<sql::SelectQuery> Translate(const std::vector<std::string>& tokens,
                                       const sql::Table& table) const;

  /// Aggregate slot from keyword features (exposed for tests).
  static sql::Aggregate PredictAggregate(
      const std::vector<std::string>& tokens);

 private:
  core::ModelConfig config_;
  std::shared_ptr<text::EmbeddingProvider> provider_;
  std::unique_ptr<core::ValueDetector> value_detector_;
  std::unique_ptr<core::Annotator> matcher_;  // context-free matching only
  /// Statistics via the same const lookup API the main pipeline uses.
  /// Nothing is registered here, so every table it is handed is ad hoc
  /// and its entry content-keyed.
  schema::SchemaRegistry registry_;
};

}  // namespace baselines
}  // namespace nlidb

#endif  // NLIDB_BASELINES_SKETCH_SLOT_FILLER_H_

#ifndef NLIDB_CORE_TRAINER_H_
#define NLIDB_CORE_TRAINER_H_

#include <vector>

#include "core/annotation.h"
#include "core/column_mention_classifier.h"
#include "core/seq2seq.h"
#include "core/value_detector.h"
#include "data/example.h"
#include "schema/registry.h"

namespace nlidb {
namespace core {

/// Builds the gold annotation of a generated example from its recorded
/// mention spans. Pairs are ordered by first appearance, fixing the
/// c_i/v_i numbering (the same ordering the inference-time resolver
/// produces).
Annotation GoldAnnotation(const data::Example& example);

/// Concatenates a base corpus with an augmentation corpus (adversarial
/// mutants, paraphrase variants) into one training dataset. Tables are
/// merged with pointer-identity dedup — augmented examples generated
/// from base tables do not duplicate them.
data::Dataset AugmentDataset(const data::Dataset& base,
                             const data::Dataset& augmentation);

/// Per-stage training results (mean loss of the final epoch).
struct TrainReport {
  float classifier_loss = 0.0f;
  float value_loss = 0.0f;
  float seq2seq_loss = 0.0f;
  int classifier_pairs = 0;
  int value_pairs = 0;
  int seq2seq_pairs = 0;
};

/// Trains the column-mention classifier on (question, column) pairs
/// derived from the dataset: query-referenced columns are positive,
/// the remaining schema columns negative. Returns final-epoch mean loss.
float TrainColumnMentionClassifier(ColumnMentionClassifier& classifier,
                                   const data::Dataset& dataset,
                                   const ModelConfig& config,
                                   int* num_pairs = nullptr);

/// Trains the value detector on (span, column-stats) pairs: gold value
/// spans against their column (positive, oversampled) and against other
/// columns / random non-value spans (negative). Column statistics come
/// from `registry.EntryFor` (the same const lookup the inference path
/// uses): bound at `Register` for a registered table, content-keyed for
/// any other, so training a second model over the same corpus reuses the
/// computed statistics instead of recomputing them.
float TrainValueDetector(ValueDetector& detector, const data::Dataset& dataset,
                         const schema::SchemaRegistry& registry,
                         const ModelConfig& config, int* num_pairs = nullptr);

/// Trains a sequence translator (GRU seq2seq or transformer) on
/// (q^a, s^a) pairs built from gold annotations. `options` selects the
/// representation (appending / header encoding) so ablations reuse this
/// entry point.
float TrainSeq2Seq(TranslatorInterface& translator,
                   const data::Dataset& dataset,
                   const AnnotationOptions& options, const ModelConfig& config,
                   int* num_pairs = nullptr);

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_TRAINER_H_

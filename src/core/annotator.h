#ifndef NLIDB_CORE_ANNOTATOR_H_
#define NLIDB_CORE_ANNOTATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/adversarial.h"
#include "core/column_mention_classifier.h"
#include "core/mention_resolver.h"
#include "core/value_detector.h"
#include "schema/registry.h"
#include "sql/cell_index.h"

namespace nlidb {
namespace core {

/// Optional database-specific natural-language metadata (Sec. II): for
/// each schema column, extra phrases P_c that mention it. Purely provides
/// extra context-free match candidates; "optional and orthogonal to the
/// rest of the model". Left empty for WikiSQL-style evaluation (the paper
/// disables it there for fair comparison).
struct NlMetadata {
  std::vector<std::vector<std::string>> column_phrases;  // per column
};

/// Context-free value detection: table cells whose display text occurs
/// verbatim (token-wise, 1..CellIndex::kMaxTokens tokens) in the
/// question, reported as detections with score 1.0. Each question n-gram
/// is looked up in `index` (the table's CellIndex, built once per table
/// content) and every hash hit is checked against the cell itself, so
/// the cost grows with the question, not the table. Detections come out
/// in column, then first-row, then position order. Sub-spans of longer
/// matches are subsumed; a string present in several columns yields one
/// detection listing all of them.
std::vector<ValueDetector::Detection> ExactCellValueMatches(
    const std::vector<std::string>& tokens, const sql::Table& table,
    const sql::CellIndex& index);

/// The same, with `table`'s index built for this one call (ad-hoc use;
/// the pipeline passes the schema registry's index).
std::vector<ValueDetector::Detection> ExactCellValueMatches(
    const std::vector<std::string>& tokens, const sql::Table& table);

/// Step 1 of the framework: q -> q^a.
///
/// Column mentions are found by (a) context-free matching — sliding-window
/// edit similarity and embedding cosine against the column's display name
/// and metadata phrases — and (b) for context-dependent cases, the
/// mention classifier plus the adversarial locator (Sec. VII-A1 describes
/// exactly this split). Value mentions come from the value detector;
/// pairing is done by the dependency-tree resolver.
class Annotator {
 public:
  Annotator(const ModelConfig& config,
            const text::EmbeddingProvider& provider,
            const ColumnMentionClassifier* classifier,
            const ValueDetector* value_detector);

  /// Annotates a tokenized question against a table. `entry` must be the
  /// schema registry's entry for the same table content (its column
  /// statistics and cell index); an empty question or a stats/schema
  /// size mismatch is an InvalidArgument error rather than a
  /// silently-empty annotation. `ctx` (optional) is polled at stage
  /// boundaries, inside the value-detector scan and before each
  /// influence probe; expiry surfaces as DeadlineExceeded.
  StatusOr<Annotation> Annotate(
      const std::vector<std::string>& tokens, const sql::Table& table,
      const schema::TableStatsEntry& entry,
      const NlMetadata* metadata = nullptr,
      const CancelContext* ctx = nullptr) const;

  /// Best context-free match of `phrase_tokens` inside `tokens`:
  /// the window with the highest blended edit/semantic similarity, if it
  /// clears the acceptance threshold.
  std::optional<text::Span> ContextFreeMatch(
      const std::vector<std::string>& tokens,
      const std::vector<std::string>& phrase_tokens) const;

  /// Detects column mention candidates only (exposed for evaluation).
  StatusOr<std::vector<ColumnMentionCandidate>> DetectColumnMentions(
      const std::vector<std::string>& tokens, const sql::Table& table,
      const NlMetadata* metadata = nullptr) const;

 private:
  enum class ContextFreeMode { kEditOnly, kEditAndSemantic };

  /// ContextFreeMatch restricted to windows whose tokens are unclaimed.
  std::optional<text::Span> ContextFreeMatchUnclaimed(
      const std::vector<std::string>& tokens,
      const std::vector<std::string>& phrase_tokens,
      const std::vector<bool>& claimed, ContextFreeMode mode) const;

  /// Context-free column matching: lexical round then semantic round.
  /// Claims matched tokens and flags matched columns.
  std::vector<ColumnMentionCandidate> ContextFreeColumnPass(
      const std::vector<std::string>& tokens, const sql::Schema& schema,
      const NlMetadata* metadata, std::vector<bool>& claimed,
      std::vector<bool>& matched) const;

  /// Classifier + adversarial-locator pass over every column the
  /// context-free pass left unmatched.
  StatusOr<std::vector<ColumnMentionCandidate>> ClassifierColumnPass(
      const std::vector<std::string>& tokens, const sql::Schema& schema,
      std::vector<bool>& claimed, const std::vector<bool>& matched,
      const CancelContext* ctx) const;

  ModelConfig config_;
  const text::EmbeddingProvider* provider_;
  const ColumnMentionClassifier* classifier_;
  const ValueDetector* value_detector_;
  MentionResolver resolver_;
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_ANNOTATOR_H_

#ifndef NLIDB_CORE_MENTION_RESOLVER_H_
#define NLIDB_CORE_MENTION_RESOLVER_H_

#include <vector>

#include "core/annotation.h"
#include "core/value_detector.h"
#include "text/dependency.h"

namespace nlidb {
namespace core {

/// A detected column mention prior to pairing.
struct ColumnMentionCandidate {
  int column = -1;
  text::Span span;      // empty for "mentioned but not locatable"
  float confidence = 0.0f;
};

/// Mention resolution (Sec. IV-E): pairs each detected value span with a
/// column using structural closeness in the question's dependency tree —
/// "a value is often the closest child node of the paired column". Among
/// a value's admissible columns (those whose value-detector score passed,
/// intersected with detected column mentions where possible), the column
/// whose mention is closest in the tree wins; ties break by detector
/// score.
class MentionResolver {
 public:
  /// Pairing strategy. kDependencyTree is the paper's method; kScoreOnly
  /// ignores structure and assigns each value to its highest-scoring
  /// admissible column (ablation baseline showing what the tree buys).
  enum class Strategy { kDependencyTree, kScoreOnly };

  explicit MentionResolver(Strategy strategy = Strategy::kDependencyTree)
      : strategy_(strategy) {}

  /// Resolves mentions into ordered annotation pairs. Pairs are ordered
  /// by first appearance in the question (column span start, or value
  /// span start for implicit mentions), which fixes the c_i/v_i indexing.
  /// The rule-based dependency parse cannot fail, so resolution has no
  /// fallback.
  Annotation Resolve(const std::vector<std::string>& tokens,
                     const std::vector<ColumnMentionCandidate>& columns,
                     const std::vector<ValueDetector::Detection>& values) const;

 private:
  Strategy strategy_;
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_MENTION_RESOLVER_H_

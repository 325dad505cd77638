#ifndef NLIDB_CORE_ADVERSARIAL_H_
#define NLIDB_CORE_ADVERSARIAL_H_

#include <string>
#include <vector>

#include "core/column_mention_classifier.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace core {

/// Per-token influence levels (Sec. IV-C):
///   I(w) = alpha * ||dL/dE_word(w)||_p + beta * ||dL/dE_char(w)||_p
struct InfluenceProfile {
  std::vector<float> word_level;  // ||dL/dE_word(w_i)||_p
  std::vector<float> char_level;  // ||dL/dE_char(w_i)||_p
  std::vector<float> total;       // alpha*word + beta*char
};

/// The adversarial text method: locates the term of a column mention as
/// the contiguous span most influential to the classifier's decision,
/// measured by fast-gradient-method loss gradients w.r.t. the word- and
/// character-level representations (Goodfellow et al. [9], Miyato et
/// al. [25]).
class AdversarialLocator {
 public:
  explicit AdversarialLocator(const ModelConfig& config) : config_(config) {}

  /// Computes the influence of every question token on the prediction
  /// that `column` is mentioned in `question`: one graph-free classifier
  /// pass over that column, differentiated from its logit. Propagates the
  /// classifier's InvalidArgument on empty inputs.
  StatusOr<InfluenceProfile> ComputeInfluence(
      const ColumnMentionClassifier& classifier,
      const std::vector<std::string>& question,
      const std::vector<std::string>& column) const;

  /// The influence profile of column `c` of a pass that has run; the
  /// annotator scores every column with one pass and probes the accepted
  /// ones through it.
  InfluenceProfile Influence(ColumnMentionClassifier::Pass& pass,
                             int c) const;

  /// Picks the mention span from an influence profile: seeded at the
  /// influence peak and greedily extended while neighbors stay above
  /// half the peak, capped at `config.max_mention_length` (the paper's
  /// maximum mention length constraint).
  text::Span LocateSpan(const InfluenceProfile& profile) const;

  /// Convenience: ComputeInfluence + LocateSpan.
  StatusOr<text::Span> LocateMention(
      const ColumnMentionClassifier& classifier,
      const std::vector<std::string>& question,
      const std::vector<std::string>& column) const;

 private:
  ModelConfig config_;
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_ADVERSARIAL_H_

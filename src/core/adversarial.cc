#include "core/adversarial.h"

#include <algorithm>
#include <cmath>

namespace nlidb {
namespace core {

StatusOr<InfluenceProfile> AdversarialLocator::ComputeInfluence(
    const ColumnMentionClassifier& classifier,
    const std::vector<std::string>& question,
    const std::vector<std::string>& column) const {
  ColumnMentionClassifier::Pass pass(classifier);
  NLIDB_RETURN_IF_ERROR(pass.Run(question, {column}));
  return Influence(pass, 0);
}

InfluenceProfile AdversarialLocator::Influence(
    ColumnMentionClassifier::Pass& pass, int c) const {
  // The paper takes dL/dq with L the classifier loss. Since
  // dL/dE = (sigmoid(z) - target) * dz/dE, the loss gradient is the
  // logit gradient scaled by a constant that underflows to exactly zero
  // in float once the classifier saturates (p -> 1). We therefore
  // differentiate the logit z itself: identical influence *profile*
  // (what the span search consumes), numerically stable at saturation.
  const ColumnMentionClassifier::Pass::Gradients g = pass.Differentiate(c);
  const int n = g.tokens;
  InfluenceProfile profile;
  profile.word_level.resize(n, 0.0f);
  profile.char_level.resize(n, 0.0f);
  profile.total.resize(n, 0.0f);
  const float p = config_.influence_norm_p;
  auto norm = [p](const float* row, int width) {
    // ||row||_p, accumulated as Tensor::NormP does.
    float s = 0.0f;
    for (int j = 0; j < width; ++j) s += std::pow(std::fabs(row[j]), p);
    return std::pow(s, 1.0f / p);
  };
  for (int i = 0; i < n; ++i) {
    profile.word_level[i] = norm(g.word + i * g.word_dim, g.word_dim);
    profile.char_level[i] = norm(g.chars + i * g.char_dim, g.char_dim);
    profile.total[i] = config_.influence_alpha * profile.word_level[i] +
                       config_.influence_beta * profile.char_level[i];
  }
  return profile;
}

text::Span AdversarialLocator::LocateSpan(
    const InfluenceProfile& profile) const {
  const int n = static_cast<int>(profile.total.size());
  if (n == 0) return text::Span{};
  int peak = 0;
  for (int i = 1; i < n; ++i) {
    if (profile.total[i] > profile.total[peak]) peak = i;
  }
  const float threshold = 0.5f * profile.total[peak];
  int begin = peak;
  int end = peak + 1;
  // Greedy bidirectional extension by the stronger neighbor, bounded by
  // the maximum mention length.
  while (end - begin < config_.max_mention_length) {
    const float left = begin > 0 ? profile.total[begin - 1] : -1.0f;
    const float right = end < n ? profile.total[end] : -1.0f;
    if (left < threshold && right < threshold) break;
    if (left >= right) {
      --begin;
    } else {
      ++end;
    }
  }
  return text::Span{begin, end};
}

StatusOr<text::Span> AdversarialLocator::LocateMention(
    const ColumnMentionClassifier& classifier,
    const std::vector<std::string>& question,
    const std::vector<std::string>& column) const {
  StatusOr<InfluenceProfile> profile =
      ComputeInfluence(classifier, question, column);
  if (!profile.ok()) return profile.status();
  return LocateSpan(*profile);
}

}  // namespace core
}  // namespace nlidb

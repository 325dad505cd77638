#include "core/adversarial.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "tensor/ops.h"

namespace nlidb {
namespace core {

StatusOr<InfluenceProfile> AdversarialLocator::ComputeInfluence(
    const ColumnMentionClassifier& classifier,
    const std::vector<std::string>& question,
    const std::vector<std::string>& column) const {
  StatusOr<ColumnMentionClassifier::ForwardResult> fr_or =
      classifier.Forward(question, column);
  if (!fr_or.ok()) return fr_or.status();
  ColumnMentionClassifier::ForwardResult fr = std::move(fr_or).value();
  // The paper takes dL/dq with L the classifier loss. Since
  // dL/dE = (sigmoid(z) - target) * dz/dE, the loss gradient is the
  // logit gradient scaled by a constant that underflows to exactly zero
  // in float once the classifier saturates (p -> 1). We therefore
  // backpropagate from the logit z itself: identical influence *profile*
  // (what the span search consumes), numerically stable at saturation.
  Var loss = fr.logit;
  // The embedding lookup nodes must expose gradients even though we never
  // update them here.
  fr.question_word_embeddings->requires_grad = true;
  for (auto& v : fr.question_char_embeddings) v->requires_grad = true;
  {
    // Influence probing only reads gradients at the embedding *lookup*
    // nodes, never at the weights. The scope makes Backward skip every
    // write into parameter leaves, which (a) drops the useless dW GEMMs
    // and (b) removes the only shared-state writes, so concurrent
    // requests can probe one classifier at once (the lookup nodes and
    // all intermediates are per-graph).
    InferenceGradScope scope;
    Backward(loss);
  }

  const int n = static_cast<int>(question.size());
  InfluenceProfile profile;
  profile.word_level.resize(n, 0.0f);
  profile.char_level.resize(n, 0.0f);
  profile.total.resize(n, 0.0f);
  const float p = config_.influence_norm_p;
  const Tensor& wg = fr.question_word_embeddings->grad;
  for (int i = 0; i < n; ++i) {
    if (!wg.empty()) {
      // ||dL/dE_word(w_i)||_p over the i-th row.
      float s = 0.0f;
      for (int j = 0; j < wg.cols(); ++j) {
        s += std::pow(std::fabs(wg(i, j)), p);
      }
      profile.word_level[i] = std::pow(s, 1.0f / p);
    }
    const Tensor& cg = fr.question_char_embeddings[i]->grad;
    if (!cg.empty()) profile.char_level[i] = cg.NormP(p);
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

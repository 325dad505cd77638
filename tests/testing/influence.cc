#include "testing/influence.h"

#include <cmath>

namespace nlidb {
namespace testing {

StatusOr<core::InfluenceProfile> AutogradInfluence(
    const core::ColumnMentionClassifier& classifier,
    const core::ModelConfig& config, const std::vector<std::string>& question,
    const std::vector<std::string>& column) {
  StatusOr<core::ColumnMentionClassifier::ForwardResult> fr_or =
      classifier.Forward(question, column);
  if (!fr_or.ok()) return fr_or.status();
  core::ColumnMentionClassifier::ForwardResult fr = std::move(fr_or).value();
  // The lookup nodes must expose gradients although nothing updates them.
  fr.question_word_embeddings->requires_grad = true;
  for (auto& v : fr.question_char_embeddings) v->requires_grad = true;
  Backward(fr.logit);

  const int n = static_cast<int>(question.size());
  core::InfluenceProfile profile;
  profile.word_level.resize(n, 0.0f);
  profile.char_level.resize(n, 0.0f);
  profile.total.resize(n, 0.0f);
  const float p = config.influence_norm_p;
  const Tensor& wg = fr.question_word_embeddings->grad;
  for (int i = 0; i < n; ++i) {
    if (!wg.empty()) {
      float s = 0.0f;
      for (int j = 0; j < wg.cols(); ++j) {
        s += std::pow(std::fabs(wg(i, j)), p);
      }
      profile.word_level[i] = std::pow(s, 1.0f / p);
    }
    const Tensor& cg = fr.question_char_embeddings[i]->grad;
    if (!cg.empty()) profile.char_level[i] = cg.NormP(p);
    profile.total[i] = config.influence_alpha * profile.word_level[i] +
                       config.influence_beta * profile.char_level[i];
  }
  return profile;
}

}  // namespace testing
}  // namespace nlidb

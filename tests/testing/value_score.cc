#include "testing/value_score.h"

#include <cmath>

namespace nlidb {
namespace testing {

StatusOr<float> AutogradValueScore(const core::ValueDetector& detector,
                                   const std::vector<std::string>& span_tokens,
                                   const sql::ColumnStatistics& stats) {
  StatusOr<Var> logit = detector.ForwardFromVectors(
      detector.provider().PhraseVector(span_tokens), stats.embedding);
  if (!logit.ok()) return logit.status();
  // The same expression as value_detector.cc's Sigmoid.
  return 1.0f / (1.0f + std::exp(-(*logit)->value.vec()[0]));
}

}  // namespace testing
}  // namespace nlidb

#ifndef NLIDB_TESTS_TESTING_INFLUENCE_H_
#define NLIDB_TESTS_TESTING_INFLUENCE_H_

#include <string>
#include <vector>

#include "core/adversarial.h"

namespace nlidb {
namespace testing {

/// The autograd influence profile of Sec. IV-C, the oracle for
/// core::AdversarialLocator's graph-free one: builds
/// `Forward(question, column)`, runs Backward from the logit, and takes
/// the lp-norms of the gradients at the word-lookup rows and the char-CNN
/// outputs, weighted by `config`'s alpha and beta. Like any Backward it
/// also accumulates into the classifier's parameter gradients, so it is
/// for single-threaded tests only.
StatusOr<core::InfluenceProfile> AutogradInfluence(
    const core::ColumnMentionClassifier& classifier,
    const core::ModelConfig& config, const std::vector<std::string>& question,
    const std::vector<std::string>& column);

}  // namespace testing
}  // namespace nlidb

#endif  // NLIDB_TESTS_TESTING_INFLUENCE_H_

#ifndef NLIDB_TESTS_TESTING_VALUE_SCORE_H_
#define NLIDB_TESTS_TESTING_VALUE_SCORE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/value_detector.h"
#include "sql/statistics.h"

namespace nlidb {
namespace testing {

/// The value detector's score of Sec. IV-D through the autograd graph,
/// the oracle for ValueDetector::Detect's graph-free pass: embeds the
/// span with the detector's provider, builds `ForwardFromVectors(span,
/// stats.embedding)` and applies the sigmoid Detect applies to each
/// logit. InvalidArgument when the statistics have the wrong dimension.
StatusOr<float> AutogradValueScore(const core::ValueDetector& detector,
                                   const std::vector<std::string>& span_tokens,
                                   const sql::ColumnStatistics& stats);

}  // namespace testing
}  // namespace nlidb

#endif  // NLIDB_TESTS_TESTING_VALUE_SCORE_H_

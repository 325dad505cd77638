#ifndef NLIDB_TESTS_LINT_FIXTURES_MUTEX_COVERAGE_SUPPRESSED_H_
#define NLIDB_TESTS_LINT_FIXTURES_MUTEX_COVERAGE_SUPPRESSED_H_

// Lint fixture: the same coverage gaps, waived with a rationale.
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace nlidb {

class Ledger {
 public:
  void Add(int d);

 private:
  Mutex mu_;
  int total_ NLIDB_GUARDED_BY(mu_) = 0;
  // Written once before threads start.  nlidb-lint: disable(mutex-coverage)
  int pending_ = 0;
  std::string label_;  // nlidb-lint: disable(mutex-coverage)
};

}  // namespace nlidb

#endif  // NLIDB_TESTS_LINT_FIXTURES_MUTEX_COVERAGE_SUPPRESSED_H_

#ifndef NLIDB_TESTS_LINT_FIXTURES_MUTEX_COVERAGE_HIT_H_
#define NLIDB_TESTS_LINT_FIXTURES_MUTEX_COVERAGE_HIT_H_

// Lint fixture: a mutex-owning class with unannotated mutable fields.
// One field carries NLIDB_GUARDED_BY so mutex-unguarded stays quiet and
// only the coverage gaps are reported.
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
  int pending_ = 0;
  std::string label_;
};

}  // namespace nlidb

#endif  // NLIDB_TESTS_LINT_FIXTURES_MUTEX_COVERAGE_HIT_H_

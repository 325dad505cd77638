#ifndef NLIDB_TESTS_LINT_FIXTURES_MUTEX_COVERAGE_CLEAN_H_
#define NLIDB_TESTS_LINT_FIXTURES_MUTEX_COVERAGE_CLEAN_H_

// Lint fixture: full coverage — every field of the mutex-owning class
// is annotated, const, atomic, or a reference bound at construction.
#include <atomic>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace nlidb {

class Ledger {
 public:
  explicit Ledger(const std::string& name);

  void Add(int d);
  int Total() const;

 private:
  static constexpr int kShards = 4;

  const std::string name_;
  const int* const limit_;
  std::atomic<long> fast_total_{0};
  mutable Mutex mu_;
  CondVar cv_;
  std::vector<int> entries_ NLIDB_GUARDED_BY(mu_);
  int total_ NLIDB_GUARDED_BY(mu_) = 0;
};

// A class with no mutex member is outside the rule entirely.
struct PlainConfig {
  int retries = 3;
  std::string endpoint;
};

}  // namespace nlidb

#endif  // NLIDB_TESTS_LINT_FIXTURES_MUTEX_COVERAGE_CLEAN_H_

#ifndef NLIDB_TESTS_TESTING_THREADS_H_
#define NLIDB_TESTS_TESTING_THREADS_H_

#include <exception>
#include <thread>
#include <vector>

namespace nlidb {
namespace testing {

/// Runs `body(index)` for every index in [0, n) concurrently: index 0 on
/// the calling thread, each other index on a thread of its own, and
/// returns once all of them have finished. The first exception by index
/// is rethrown after every thread has joined. The tests that race code
/// against itself use this (lint rule `raw-thread` allows only this file
/// and the serving engine to start threads).
template <typename Body>
void RunOnThreads(int n, const Body& body) {
  std::vector<std::exception_ptr> errors(n > 1 ? n : 1);
  auto run = [&body, &errors](int index) {
    try {
      body(index);
    } catch (...) {
      errors[index] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;  // each joins when destroyed
    for (int index = 1; index < n; ++index) {
      threads.emplace_back(run, index);
    }
    run(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace testing
}  // namespace nlidb

#endif  // NLIDB_TESTS_TESTING_THREADS_H_

#ifndef NLIDB_COMMON_THREAD_POOL_H_
#define NLIDB_COMMON_THREAD_POOL_H_

#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace nlidb {

/// A fixed pool of worker threads with a blocking `ParallelFor` helper.
///
/// Design constraints (DESIGN.md "Performance architecture"):
///  - No work stealing: `ParallelFor` statically partitions [begin, end)
///    into one contiguous chunk per thread, so every index is processed by
///    exactly one thread and callers that write results by index get
///    deterministic output regardless of scheduling.
///  - The calling thread participates (a pool of parallelism N starts
///    N - 1 workers), so parallelism 1 degenerates to a plain serial loop
///    with no synchronization.
///  - Nested ParallelFor calls from inside a worker run inline on the
///    worker (never re-enqueue), which makes nesting safe by construction:
///    a ParallelFor issued from inside a body cannot deadlock the pool.
///  - Exceptions thrown by the body are captured and the first one (by
///    chunk index) is rethrown on the calling thread after all chunks
///    finish, so the pool is always left in a reusable state.
class ThreadPool {
 public:
  /// Creates a pool with total parallelism `parallelism` (clamped to
  /// >= 1); `parallelism - 1` worker threads are started.
  explicit ThreadPool(int parallelism);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: workers + the calling thread.
  int parallelism() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs `body(chunk_begin, chunk_end)` over a static partition of
  /// [begin, end) and blocks until every chunk finished. Chunk c covers
  /// indices [begin + c*len/P, begin + (c+1)*len/P). Serial fallback (the
  /// body is invoked once with the whole range on the calling thread)
  /// when the pool has parallelism 1, the range has fewer than two
  /// indices, or the caller is itself a pool worker.
  void ParallelFor(int begin, int end,
                   const std::function<void(int, int)>& body);

  /// The process-wide pool. Lazily constructed with
  /// `DefaultParallelism()` threads on first use.
  static ThreadPool& Global();

  /// Resizes the global pool (no-op if the size already matches). Must
  /// not race with in-flight ParallelFor calls on the global pool; call
  /// it at configuration time (pipeline construction, bench/test main).
  static void SetGlobalParallelism(int parallelism);

  /// Parallelism the global pool would be (or was) created with: the
  /// NLIDB_NUM_THREADS environment variable when set, otherwise
  /// std::thread::hardware_concurrency(), always clamped to >= 1.
  /// NLIDB_NUM_THREADS=1 forces every parallel path in the system serial
  /// (the debugging knob from core/config.cc).
  static int DefaultParallelism();

 private:
  struct LoopState;  // per-ParallelFor completion latch + error slots
  struct Job {
    const std::function<void(int, int)>* body;
    int begin, end;
    int chunk;
    LoopState* loop;
  };

  void WorkerLoop() NLIDB_LOCKS_EXCLUDED(mu_);
  static void RunJob(const Job& job);

  // The worker threads themselves; this std::thread use is the one the
  // raw-thread lint rule exists to funnel everything else through.
  // Written once in the constructor, joined in the destructor; never
  // mutated while workers run.
  std::vector<std::thread> workers_;  // nlidb-lint: disable(mutex-coverage)
  Mutex mu_{"pool.queue"};
  CondVar work_cv_;  // workers wait for jobs
  std::deque<Job> queue_ NLIDB_GUARDED_BY(mu_);
  bool shutdown_ NLIDB_GUARDED_BY(mu_) = false;
};

}  // namespace nlidb

#endif  // NLIDB_COMMON_THREAD_POOL_H_

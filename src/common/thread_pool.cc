#include "common/thread_pool.h"

#include <cstdlib>
#include <memory>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace nlidb {

namespace {

// Set while a thread is executing pool jobs; nested ParallelFor calls on
// such a thread must run inline instead of enqueueing (see header).
thread_local bool tls_in_pool_worker = false;

}  // namespace

struct ThreadPool::LoopState {
  Mutex mu{"pool.loop"};
  CondVar done_cv;
  int remaining NLIDB_GUARDED_BY(mu) = 0;
  // One slot per chunk, written by the chunk that failed and read by the
  // calling thread after `remaining` hits zero.
  std::vector<std::exception_ptr> errors NLIDB_GUARDED_BY(mu);
};

ThreadPool::ThreadPool(int parallelism) {
  const int workers = std::max(parallelism, 1) - 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  tls_in_pool_worker = true;
  for (;;) {
    Job job;
    {
      MutexLock lock(mu_);
      // WaitIdle: an empty queue is a legitimate steady state, not a
      // lost notify — the stuck-wait watchdog must not report it.
      while (!shutdown_ && queue_.empty()) work_cv_.WaitIdle(mu_);
      if (queue_.empty()) return;  // shutdown with drained queue
      job = queue_.front();
      queue_.pop_front();
    }
    RunJob(job);
  }
}

void ThreadPool::RunJob(const Job& job) {
  // Mark the thread as executing pool work for the duration of the body
  // (also for the calling thread running chunk 0), so nested ParallelFor
  // calls go inline.
  const bool was_worker = tls_in_pool_worker;
  tls_in_pool_worker = true;
  std::exception_ptr error;
  try {
    (*job.body)(job.begin, job.end);
  } catch (...) {
    error = std::current_exception();
  }
  tls_in_pool_worker = was_worker;
  MutexLock lock(job.loop->mu);
  if (error) job.loop->errors[job.chunk] = error;
  if (--job.loop->remaining == 0) job.loop->done_cv.NotifyAll();
}

void ThreadPool::ParallelFor(int begin, int end,
                             const std::function<void(int, int)>& body) {
  static metrics::Counter& parallel_fors =
      metrics::MetricsRegistry::Global().GetCounter(
          "thread_pool.parallel_fors");
  static metrics::Counter& inline_runs =
      metrics::MetricsRegistry::Global().GetCounter(
          "thread_pool.inline_runs");
  static metrics::Counter& jobs_enqueued =
      metrics::MetricsRegistry::Global().GetCounter(
          "thread_pool.jobs_enqueued");
  static metrics::MaxGauge& queue_depth_peak =
      metrics::MetricsRegistry::Global().GetGauge(
          "thread_pool.queue_depth_peak");

  const int len = end - begin;
  if (len <= 0) return;
  const int chunks = std::min(parallelism(), len);
  if (chunks <= 1 || tls_in_pool_worker) {
    inline_runs.Increment();
    body(begin, end);
    return;
  }

  parallel_fors.Increment();
  jobs_enqueued.Increment(chunks - 1);
  LoopState loop;
  {
    // The loop state is not shared until the jobs are enqueued below,
    // but initializing under the lock keeps the guarded_by contract
    // unconditional.
    MutexLock lock(loop.mu);
    loop.remaining = chunks;
    loop.errors.resize(chunks);
  }
  {
    MutexLock lock(mu_);
    NLIDB_CHECK(!shutdown_) << "ParallelFor on a shut-down pool";
    // Chunk 0 runs on the calling thread below; enqueue the rest.
    for (int c = 1; c < chunks; ++c) {
      const int cb = begin + static_cast<int>(
                                 static_cast<long long>(len) * c / chunks);
      const int ce = begin + static_cast<int>(
                                 static_cast<long long>(len) * (c + 1) / chunks);
      queue_.push_back(Job{&body, cb, ce, c, &loop});
    }
    queue_depth_peak.Update(static_cast<int64_t>(queue_.size()));
  }
  work_cv_.NotifyAll();

  const int ce0 =
      begin + static_cast<int>(static_cast<long long>(len) / chunks);
  RunJob(Job{&body, begin, ce0, 0, &loop});

  MutexLock lock(loop.mu);
  while (loop.remaining != 0) loop.done_cv.Wait(loop.mu);
  // Deterministic error selection: lowest chunk index wins. Rethrowing
  // under the lock is fine; MutexLock releases during unwind.
  for (auto& e : loop.errors) {
    if (e) std::rethrow_exception(e);
  }
}

int ThreadPool::DefaultParallelism() {
  if (const char* env = std::getenv("NLIDB_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

namespace {
Mutex global_pool_mu{"pool.global"};
std::unique_ptr<ThreadPool> global_pool NLIDB_GUARDED_BY(global_pool_mu);
}  // namespace

ThreadPool& ThreadPool::Global() {
  MutexLock lock(global_pool_mu);
  if (!global_pool) {
    global_pool = std::make_unique<ThreadPool>(DefaultParallelism());
  }
  return *global_pool;
}

void ThreadPool::SetGlobalParallelism(int parallelism) {
  const int p = std::max(parallelism, 1);
  MutexLock lock(global_pool_mu);
  if (global_pool && global_pool->parallelism() == p) return;
  global_pool = std::make_unique<ThreadPool>(p);
}

}  // namespace nlidb

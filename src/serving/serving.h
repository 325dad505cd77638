#ifndef NLIDB_SERVING_SERVING_H_
#define NLIDB_SERVING_SERVING_H_

// Multi-tenant serving harness over a trained pipeline (DESIGN.md §13).
//
// `ServingEngine` owns a bounded admission queue and a fixed worker pool
// in front of a `const NlidbPipeline&`. Requests are deadline-aware at
// every hop: infeasible ones are shed at submit (before consuming a
// queue slot), expired ones are shed at dequeue (before consuming
// compute), and in-flight ones abort at the pipeline's CancelContext
// poll points. Each worker runs one request at a time through
// `pipeline.Query()`, so served results are bitwise identical to
// sequential calls. Decodes are not batched across requests: on a
// 4-core box a shared decode tick cost both throughput and p99
// (DESIGN.md §13).
//
// Counter invariant (asserted by serving_fault_test):
//   serving.submitted == serving.admitted + serving.rejected_queue_full
//                        + serving.rejected_shutdown
//   serving.admitted  == serving.completed + serving.shed
//                        + serving.cancelled
// A request that runs and misses its deadline in-flight still counts as
// completed (the miss shows up in serving.deadline_misses, which tallies
// both shed-for-deadline and missed-in-flight requests). A request whose
// SchemaRef cannot resolve is failed at admission (admitted + completed,
// plus serving.schema_unresolvable) without consuming a queue slot.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/pipeline.h"

// The engine's workers are the only threads src/ starts (lint rule
// `raw-thread` allows this file alone); each runs a whole query, GEMMs
// included, on its own thread.
#include <thread>

namespace nlidb {
namespace serving {

/// Engine shape, set in code by the caller.
struct ServingOptions {
  /// Worker threads executing queries. 0 is legal (nothing executes
  /// until shutdown; admission and rejection still work) — used by
  /// queue-edge tests.
  int num_workers = 4;

  /// Bounded admission queue capacity; submits beyond it are rejected
  /// with Unavailable rather than queued without bound.
  int queue_capacity = 256;
};

/// Everything the engine returns for one request. `status` carries
/// admission/scheduling failures (shed, queue full, shutdown) and
/// pipeline-level errors exactly as `pipeline.Query()` would return
/// them; `result` is only meaningful when `status.ok()`.
struct ServedResult {
  Status status = Status::Ok();
  core::QueryResult result;
  uint64_t queue_wait_ns = 0;  // submit -> worker pickup
  uint64_t e2e_ns = 0;         // submit -> resolution
};

class ServingEngine {
 public:
  /// A one-shot future for a submitted request. Take() blocks until the
  /// request resolves (completed, shed, cancelled or drained) and may be
  /// called once; it is safe to call from any thread, including after
  /// engine shutdown (every ticket resolves before Shutdown returns).
  class Ticket {
   public:
    ServedResult Take();

   private:
    friend class ServingEngine;
    Mutex mu_{"serving.ticket"};
    CondVar cv_;
    bool done_ NLIDB_GUARDED_BY(mu_) = false;
    ServedResult result_ NLIDB_GUARDED_BY(mu_);
  };

  /// `pipeline` must be trained, remain alive and unmutated for the
  /// engine's lifetime (the const reference is the thread-safety
  /// contract: serving never trains).
  explicit ServingEngine(const core::NlidbPipeline& pipeline,
                         const ServingOptions& options = ServingOptions());
  ~ServingEngine();
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Admits `request` (or sheds/rejects it — the ticket resolves
  /// immediately in that case) and returns the ticket to wait on.
  /// Thread-safe.
  std::shared_ptr<Ticket> Submit(core::QueryRequest request);

  /// Submit + Take: the synchronous client call.
  ServedResult Query(core::QueryRequest request);

  /// Stops admitting, drains queued requests (their tickets resolve
  /// with Unavailable), and joins the workers. Idempotent; the
  /// destructor calls it.
  void Shutdown();

 private:
  struct Pending {
    core::QueryRequest request;
    std::shared_ptr<Ticket> ticket;
    uint64_t submit_ns = 0;
    int parent_span = 0;  // submitter's span, for cross-thread stitching
  };

  void WorkerLoop();
  void Process(Pending pending);
  static void Resolve(Ticket& ticket, ServedResult result);

  const core::NlidbPipeline& pipeline_;
  const ServingOptions options_;

  Mutex mu_{"serving.queue"};
  CondVar cv_;
  std::vector<Pending> queue_ NLIDB_GUARDED_BY(mu_);
  bool shutdown_ NLIDB_GUARDED_BY(mu_) = false;

  /// Serializes Shutdown against concurrent Shutdown/destruction (join
  /// must happen exactly once).
  Mutex shutdown_mu_{"serving.shutdown"};
  bool workers_joined_ NLIDB_GUARDED_BY(shutdown_mu_) = false;

  /// EWMA of recent service times, feeding admission feasibility.
  /// Relaxed: an approximate estimate is all shedding needs.
  std::atomic<uint64_t> ewma_service_ns_{0};

  // Written once in the constructor, joined under shutdown_mu_'s
  // workers_joined_ latch; never mutated while workers run.
  // nlidb-lint: disable(mutex-coverage)
  std::vector<std::thread> workers_;
};

}  // namespace serving
}  // namespace nlidb

#endif  // NLIDB_SERVING_SERVING_H_

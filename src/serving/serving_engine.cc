#include "serving/serving.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace nlidb {
namespace serving {

namespace {

/// A request is shed at admission when its remaining deadline budget is
/// under this fraction of the EWMA service time.
constexpr double kShedFactor = 0.5;

struct ServingCounters {
  metrics::Counter& submitted;
  metrics::Counter& admitted;
  metrics::Counter& completed;
  metrics::Counter& shed;
  metrics::Counter& cancelled;
  metrics::Counter& rejected_queue_full;
  metrics::Counter& rejected_shutdown;
  metrics::Counter& deadline_misses;
  metrics::Counter& schema_unresolvable;
  metrics::MaxGauge& queue_depth_peak;
  metrics::Histogram& queue_wait;
  metrics::Histogram& e2e_latency;

  static ServingCounters& Get() {
    auto& reg = metrics::MetricsRegistry::Global();
    static ServingCounters c{reg.GetCounter("serving.submitted"),
                             reg.GetCounter("serving.admitted"),
                             reg.GetCounter("serving.completed"),
                             reg.GetCounter("serving.shed"),
                             reg.GetCounter("serving.cancelled"),
                             reg.GetCounter("serving.rejected_queue_full"),
                             reg.GetCounter("serving.rejected_shutdown"),
                             reg.GetCounter("serving.deadline_misses"),
                             reg.GetCounter("serving.schema_unresolvable"),
                             reg.GetGauge("serving.queue_depth_peak"),
                             reg.GetHistogram("serving.queue_wait_ns"),
                             reg.GetHistogram("serving.e2e_latency_ns")};
    return c;
  }
};

}  // namespace

ServedResult ServingEngine::Ticket::Take() {
  MutexLock lock(mu_);
  while (!done_) cv_.Wait(mu_);
  return std::move(result_);
}

void ServingEngine::Resolve(Ticket& ticket, ServedResult result) {
  {
    MutexLock lock(ticket.mu_);
    ticket.result_ = std::move(result);
    ticket.done_ = true;
  }
  ticket.cv_.NotifyAll();
}

ServingEngine::ServingEngine(const core::NlidbPipeline& pipeline,
                             const ServingOptions& options)
    : pipeline_(pipeline), options_(options) {
  workers_.reserve(static_cast<size_t>(std::max(0, options_.num_workers)));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServingEngine::~ServingEngine() { Shutdown(); }

std::shared_ptr<ServingEngine::Ticket> ServingEngine::Submit(
    core::QueryRequest request) {
  ServingCounters& counters = ServingCounters::Get();
  counters.submitted.Increment();
  auto ticket = std::make_shared<Ticket>();
  const uint64_t now = trace::NowNs();

  // Deadline feasibility at admission: a request that already expired,
  // or whose remaining budget is under kShedFactor × the recent service
  // time, cannot be served in time — shed it before it occupies a queue
  // slot and delays feasible requests. Shed requests count as admitted
  // (they entered the system and resolved) to keep the counter invariant
  // admission-path independent.
  if (request.deadline.at_ns() != 0) {
    bool infeasible = now >= request.deadline.at_ns();
    if (!infeasible) {
      const uint64_t est =
          ewma_service_ns_.load(std::memory_order_relaxed);
      const uint64_t remaining = request.deadline.at_ns() - now;
      infeasible = est > 0 && static_cast<double>(remaining) <
                                  static_cast<double>(est) * kShedFactor;
    }
    if (infeasible) {
      counters.admitted.Increment();
      counters.shed.Increment();
      counters.deadline_misses.Increment();
      ServedResult shed;
      shed.status = Status::DeadlineExceeded(
          "request shed at admission: deadline cannot be met");
      shed.e2e_ns = trace::NowNs() - now;
      Resolve(*ticket, std::move(shed));
      return ticket;
    }
  }

  // Schema resolvability at admission: a request naming an unknown
  // table or routing against an empty registry can never succeed, so it
  // resolves here instead of burning a queue slot and a worker pipeline
  // pass. It counts as admitted + completed — it entered the system and
  // resolved with the same error the pipeline would have returned —
  // keeping the counter invariant admission-path independent.
  {
    Status resolvable = pipeline_.registry().CheckResolvable(request.schema_ref);
    if (!resolvable.ok()) {
      counters.admitted.Increment();
      counters.completed.Increment();
      counters.schema_unresolvable.Increment();
      ServedResult failed;
      failed.status = std::move(resolvable);
      failed.e2e_ns = trace::NowNs() - now;
      Resolve(*ticket, std::move(failed));
      return ticket;
    }
  }

  Pending pending;
  pending.request = std::move(request);
  pending.ticket = ticket;
  pending.submit_ns = now;
  pending.parent_span = trace::CurrentSpanId();
  // A rejection is decided under the queue lock but resolved after it is
  // released, so the queue lock is never held around a ticket lock.
  const char* rejection = nullptr;
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      counters.rejected_shutdown.Increment();
      rejection = "serving engine is shut down";
    } else if (static_cast<int>(queue_.size()) >= options_.queue_capacity) {
      counters.rejected_queue_full.Increment();
      rejection = "serving queue is full";
    } else {
      counters.admitted.Increment();
      queue_.push_back(std::move(pending));
      counters.queue_depth_peak.Update(static_cast<int64_t>(queue_.size()));
    }
  }
  if (rejection != nullptr) {
    ServedResult rejected;
    rejected.status = Status::Unavailable(rejection);
    Resolve(*ticket, std::move(rejected));
    return ticket;
  }
  cv_.NotifyOne();
  return ticket;
}

ServedResult ServingEngine::Query(core::QueryRequest request) {
  return Submit(std::move(request))->Take();
}

void ServingEngine::WorkerLoop() {
  while (true) {
    Pending pending;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      // Shutdown drains the queue itself, so a woken worker with
      // shutdown_ set has nothing left to pick up.
      if (shutdown_) return;
      pending = std::move(queue_.front());
      queue_.erase(queue_.begin());
    }
    Process(std::move(pending));
  }
}

void ServingEngine::Process(Pending pending) {
  ServingCounters& counters = ServingCounters::Get();
  const uint64_t start = trace::NowNs();
  const uint64_t queue_wait = start - pending.submit_ns;
  counters.queue_wait.Record(queue_wait);

  ServedResult served;
  served.queue_wait_ns = queue_wait;

  // Dequeue-time checks, cheapest first: an externally cancelled request
  // resolves as cancelled; one whose deadline passed while queued is
  // shed without touching the pipeline.
  if (pending.request.cancel != nullptr &&
      pending.request.cancel->load(std::memory_order_relaxed)) {
    counters.cancelled.Increment();
    served.status =
        Status::DeadlineExceeded("request cancelled while queued");
  } else if (pending.request.deadline.Expired()) {
    counters.shed.Increment();
    counters.deadline_misses.Increment();
    served.status =
        Status::DeadlineExceeded("request shed at dequeue: deadline expired");
  } else {
    // Stitch the worker's spans under the submitter's span, so one
    // request's queue-wait and pipeline phases form one trace tree.
    trace::ScopedParent stitch(pending.parent_span);
    trace::TraceSpan span("serving.request");
    span.Annotate("queue_wait_ns", static_cast<int64_t>(queue_wait));
    StatusOr<core::QueryResult> result = pipeline_.Query(pending.request);
    counters.completed.Increment();
    if (result.ok()) {
      served.result = std::move(result).value();
    } else {
      served.status = result.status();
    }
    if (served.status.code() == StatusCode::kDeadlineExceeded) {
      counters.deadline_misses.Increment();
    }
    const uint64_t service_ns = trace::NowNs() - start;
    const uint64_t old = ewma_service_ns_.load(std::memory_order_relaxed);
    ewma_service_ns_.store(old == 0 ? service_ns : (7 * old + service_ns) / 8,
                           std::memory_order_relaxed);
  }

  served.e2e_ns = trace::NowNs() - pending.submit_ns;
  counters.e2e_latency.Record(served.e2e_ns);
  Resolve(*pending.ticket, std::move(served));
}

void ServingEngine::Shutdown() {
  // shutdown_mu_ serializes concurrent Shutdown calls (including the
  // destructor): exactly one caller flips the flag, drains and joins;
  // later callers see workers_joined_ and return once it is all done.
  MutexLock shutdown_lock(shutdown_mu_);
  if (workers_joined_) return;
  workers_joined_ = true;

  std::vector<Pending> drained;
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    drained.swap(queue_);
  }
  cv_.NotifyAll();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  ServingCounters& counters = ServingCounters::Get();
  for (Pending& pending : drained) {
    counters.cancelled.Increment();
    ServedResult dropped;
    dropped.status =
        Status::Unavailable("serving engine shut down with request queued");
    dropped.queue_wait_ns = trace::NowNs() - pending.submit_ns;
    dropped.e2e_ns = dropped.queue_wait_ns;
    Resolve(*pending.ticket, std::move(dropped));
  }
}

}  // namespace serving
}  // namespace nlidb

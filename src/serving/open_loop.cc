#include "serving/open_loop.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
// The generator paces open-loop arrivals with sleep_for (no clock reads:
// timestamps come from trace::NowNs()); blocking sleeps must never run
// on the shared compute pool.
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"

namespace nlidb {
namespace serving {

namespace {

// Deadline tier mix (fractions of traffic; the remainder is the tight
// tier). The tight tier is infeasible by construction and exercises
// admission shedding; the generous one absorbs queueing and only sheds
// when the queue truly backs up.
constexpr float kFracNoDeadline = 0.35f;
constexpr float kFracGenerous = 0.50f;

}  // namespace

std::string OpenLoopReport::ToString() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "%lld submitted = %lld admitted + %lld queue_full + %lld shutdown; "
      "%lld admitted = %lld completed + %lld shed + %lld cancelled  [%s]\n",
      static_cast<long long>(submitted), static_cast<long long>(admitted),
      static_cast<long long>(rejected_queue_full),
      static_cast<long long>(rejected_shutdown),
      static_cast<long long>(admitted), static_cast<long long>(completed),
      static_cast<long long>(shed), static_cast<long long>(cancelled),
      counters_balanced ? "balanced" : "IMBALANCED");
  return buf;
}

uint64_t CalibrateServiceNs(const core::NlidbPipeline& pipeline,
                            const std::vector<core::QueryRequest>& requests) {
  const size_t n = std::min<size_t>(32, requests.size());
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t t0 = trace::NowNs();
    StatusOr<core::QueryResult> result = pipeline.Query(requests[i]);
    (void)result;
    total += trace::NowNs() - t0;
  }
  return n > 0 ? total / n : 0;
}

OpenLoopReport RunOpenLoop(
    const core::NlidbPipeline& pipeline,
    const std::vector<core::QueryRequest>& requests, uint64_t count,
    const ServingOptions& engine_options, double offered_qps, uint64_t seed,
    uint64_t service_ns,
    const std::function<void(size_t, const ServedResult&)>& on_result) {
  OpenLoopReport report;
  if (requests.empty() || count == 0 || offered_qps <= 0.0) return report;

  metrics::MetricsRegistry::Global().ResetAll();
  ServingEngine engine(pipeline, engine_options);

  // When the window fills, the oldest ticket is drained immediately, so
  // memory stays O(window) regardless of `count`.
  struct InFlight {
    std::shared_ptr<ServingEngine::Ticket> ticket;
    size_t index;
  };
  std::deque<InFlight> window;
  const size_t max_window = static_cast<size_t>(
      std::max(512, 2 * engine_options.queue_capacity));
  auto drain_one = [&] {
    InFlight f = std::move(window.front());
    window.pop_front();
    on_result(f.index, f.ticket->Take());
  };

  Rng rng(seed);
  const uint64_t start_ns = trace::NowNs();
  uint64_t submit_end_ns = start_ns;
  double t_ns = 0.0;
  for (uint64_t i = 0; i < count; ++i) {
    const size_t index = static_cast<size_t>(i % requests.size());
    const double u = static_cast<double>(rng.NextFloat());
    t_ns += -std::log(1.0 - u) / offered_qps * 1e9;
    const uint64_t at = start_ns + static_cast<uint64_t>(t_ns);
    const uint64_t now = trace::NowNs();
    if (at > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
    }
    core::QueryRequest request = requests[index];
    const float tier = rng.NextFloat();
    if (tier >= kFracNoDeadline) {
      request.deadline = Deadline::AfterNanos(
          tier < kFracNoDeadline + kFracGenerous ? 400 * service_ns
                                                 : service_ns / 4);
    }
    window.push_back({engine.Submit(std::move(request)), index});
    submit_end_ns = trace::NowNs();
    while (window.size() > max_window) drain_one();
  }
  while (!window.empty()) drain_one();
  const uint64_t wall_ns = trace::NowNs() - start_ns;
  engine.Shutdown();

  auto counter = [](const char* name) {
    return metrics::MetricsRegistry::Global().GetCounter(name).Value();
  };
  report.submitted = counter("serving.submitted");
  report.admitted = counter("serving.admitted");
  report.rejected_queue_full = counter("serving.rejected_queue_full");
  report.rejected_shutdown = counter("serving.rejected_shutdown");
  report.completed = counter("serving.completed");
  report.shed = counter("serving.shed");
  report.cancelled = counter("serving.cancelled");
  report.deadline_misses = counter("serving.deadline_misses");
  report.counters_balanced =
      report.submitted == report.admitted + report.rejected_queue_full +
                              report.rejected_shutdown &&
      report.admitted == report.completed + report.shed + report.cancelled;
  report.wall_s = static_cast<double>(wall_ns) / 1e9;
  report.submit_s = static_cast<double>(submit_end_ns - start_ns) / 1e9;
  return report;
}

}  // namespace serving
}  // namespace nlidb

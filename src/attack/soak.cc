#include "attack/soak.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
// The submitter paces open-loop arrivals with sleep_for (no clock reads:
// timestamps come from trace::NowNs()); blocking sleeps must never run
// on the shared compute pool.
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/lockdep.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "serving/serving.h"

namespace nlidb {
namespace attack {

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

core::QueryRequest RequestFor(const Mutant& mutant) {
  core::QueryRequest request;
  request.schema_ref = core::SchemaRef::Table(mutant.example.table.get());
  request.tokens = mutant.example.tokens;
  request.collect_timings = false;
  return request;
}

/// Mean sequential service time over a short pilot (also warms caches).
uint64_t CalibrateServiceNs(const core::NlidbPipeline& pipeline,
                            const std::vector<Mutant>& corpus, int limit) {
  uint64_t total = 0;
  int n = 0;
  for (const Mutant& m : corpus) {
    const uint64_t t0 = trace::NowNs();
    StatusOr<core::QueryResult> result = pipeline.Query(RequestFor(m));
    (void)result;
    total += trace::NowNs() - t0;
    if (++n >= limit) break;
  }
  return n > 0 ? total / static_cast<uint64_t>(n) : 0;
}

}  // namespace

SoakOptions SoakOptions::FromEnv() {
  SoakOptions options;
  options.queries = EnvU64("NLIDB_ATTACK_QUERIES", options.queries);
  options.workers = static_cast<int>(
      EnvU64("NLIDB_ATTACK_WORKERS", static_cast<uint64_t>(options.workers)));
  options.queue_capacity = static_cast<int>(EnvU64(
      "NLIDB_ATTACK_QUEUE_CAP", static_cast<uint64_t>(options.queue_capacity)));
  const char* qps = std::getenv("NLIDB_ATTACK_QPS");
  if (qps != nullptr && qps[0] != '\0') options.offered_qps = std::atof(qps);
  options.seed = EnvU64("NLIDB_ATTACK_SEED", options.seed);
  options.random_delay_seed =
      EnvU64("NLIDB_ATTACK_DELAY_SEED", options.random_delay_seed);
  return options;
}

std::string SoakReport::ToString() const {
  char buf[512];
  std::string out = matrix.Render();
  std::snprintf(
      buf, sizeof(buf),
      "soak: %lld submitted = %lld admitted + %lld queue_full + %lld "
      "shutdown; %lld admitted = %lld completed + %lld shed + %lld "
      "cancelled  [%s]\n",
      static_cast<long long>(submitted), static_cast<long long>(admitted),
      static_cast<long long>(rejected_queue_full),
      static_cast<long long>(rejected_shutdown),
      static_cast<long long>(admitted), static_cast<long long>(completed),
      static_cast<long long>(shed), static_cast<long long>(cancelled),
      counters_balanced ? "balanced" : "IMBALANCED");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "soak: %.1f s wall, %.0f qps resolved (offered %.0f), "
                "service %.3f ms, deadline misses %lld, failpoints %lld, "
                "lockdep reports %d\n",
                wall_s, qps, offered_qps,
                static_cast<double>(service_ns) / 1e6,
                static_cast<long long>(deadline_misses),
                static_cast<long long>(failpoints_fired), lockdep_reports);
  out += buf;
  return out;
}

SoakReport RunSoak(const core::NlidbPipeline& pipeline,
                   const std::vector<Mutant>& corpus,
                   const SoakOptions& options) {
  SoakReport report;
  if (corpus.empty() || options.queries == 0) return report;

  metrics::MetricsRegistry::Global().ResetAll();

  // Optional schedule perturbation for this run only. An env-activated
  // schedule (CI's fault leg) takes precedence and is left untouched.
  failpoint::InitFromEnv();
  bool activated_delay = false;
  if (options.random_delay_seed != 0 && !failpoint::RandomDelayActive()) {
    failpoint::ActivateRandomDelay(options.random_delay_seed);
    activated_delay = true;
  }

  report.service_ns = CalibrateServiceNs(
      pipeline, corpus,
      static_cast<int>(std::min<uint64_t>(32, corpus.size())));
  const uint64_t service_ns = std::max<uint64_t>(report.service_ns, 1);
  double offered_qps = options.offered_qps;
  if (offered_qps <= 0.0) {
    offered_qps = 1.1 * static_cast<double>(options.workers) * 1e9 /
                  static_cast<double>(service_ns);
  }
  report.offered_qps = offered_qps;
  const uint64_t generous_ns = 400 * service_ns;
  const uint64_t tight_ns = service_ns / 4;

  serving::ServingOptions serving_options;
  serving_options.num_workers = options.workers;
  serving_options.queue_capacity = options.queue_capacity;
  serving::ServingEngine engine(pipeline, serving_options);

  if (lockdep::Enabled()) lockdep::ClearReports();

  // Open-loop replay with a bounded in-flight window: when the window
  // fills, the oldest ticket is drained and triaged immediately, so
  // memory stays O(window) regardless of `queries`.
  struct InFlight {
    std::shared_ptr<serving::ServingEngine::Ticket> ticket;
    const Mutant* mutant;
  };
  std::deque<InFlight> window;
  const size_t max_window = static_cast<size_t>(
      std::max(512, 2 * options.queue_capacity));

  auto drain_one = [&] {
    InFlight f = std::move(window.front());
    window.pop_front();
    serving::ServedResult served = f.ticket->Take();
    report.matrix.Add(
        f.mutant->kind,
        TriageOutcome(f.mutant->example, served.status, served.result));
  };

  Rng rng(options.seed);
  const uint64_t start_ns = trace::NowNs();
  double t_ns = 0.0;
  for (uint64_t i = 0; i < options.queries; ++i) {
    const Mutant& mutant = corpus[i % corpus.size()];
    const double u = static_cast<double>(rng.NextFloat());
    t_ns += -std::log(1.0 - u) / offered_qps * 1e9;
    const uint64_t at = start_ns + static_cast<uint64_t>(t_ns);
    const uint64_t now = trace::NowNs();
    if (at > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
    }
    core::QueryRequest request = RequestFor(mutant);
    const float tier = rng.NextFloat();
    if (tier < options.frac_no_deadline) {
      // no deadline
    } else if (tier < options.frac_no_deadline + options.frac_generous) {
      request.deadline = Deadline::AfterNanos(generous_ns);
    } else {
      request.deadline = Deadline::AfterNanos(tight_ns);
    }
    window.push_back({engine.Submit(std::move(request)), &mutant});
    while (window.size() > max_window) drain_one();
  }
  while (!window.empty()) drain_one();
  const uint64_t wall_ns = trace::NowNs() - start_ns;
  engine.Shutdown();

  auto& registry = metrics::MetricsRegistry::Global();
  report.submitted = registry.GetCounter("serving.submitted").Value();
  report.admitted = registry.GetCounter("serving.admitted").Value();
  report.rejected_queue_full =
      registry.GetCounter("serving.rejected_queue_full").Value();
  report.rejected_shutdown =
      registry.GetCounter("serving.rejected_shutdown").Value();
  report.completed = registry.GetCounter("serving.completed").Value();
  report.shed = registry.GetCounter("serving.shed").Value();
  report.cancelled = registry.GetCounter("serving.cancelled").Value();
  report.deadline_misses =
      registry.GetCounter("serving.deadline_misses").Value();
  report.failpoints_fired = registry.GetCounter("failpoint.fired").Value();
  report.counters_balanced =
      report.submitted == report.admitted + report.rejected_queue_full +
                              report.rejected_shutdown &&
      report.admitted ==
          report.completed + report.shed + report.cancelled;

  report.lockdep_reports =
      lockdep::Enabled() ? static_cast<int>(lockdep::Reports().size()) : -1;

  report.wall_s = static_cast<double>(wall_ns) / 1e9;
  report.qps = report.wall_s > 0
                   ? static_cast<double>(options.queries) / report.wall_s
                   : 0.0;

  report.matrix.ExportMetrics();

  if (activated_delay) failpoint::DeactivateAll();
  return report;
}

}  // namespace attack
}  // namespace nlidb

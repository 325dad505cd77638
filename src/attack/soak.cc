#include "attack/soak.h"

#include <algorithm>
#include <cstdio>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace nlidb {
namespace attack {

std::string SoakReport::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "soak: %.1f s wall, %.0f qps resolved (offered %.0f), "
                "service %.3f ms, deadline misses %lld, failpoints %lld\n",
                wall_s, qps, offered_qps,
                static_cast<double>(service_ns) / 1e6,
                static_cast<long long>(deadline_misses),
                static_cast<long long>(failpoints_fired));
  return matrix.Render() + "soak: " + OpenLoopReport::ToString() + buf;
}

SoakReport RunSoak(const core::NlidbPipeline& pipeline,
                   const std::vector<Mutant>& corpus,
                   const SoakOptions& options) {
  SoakReport report;
  if (corpus.empty() || options.queries == 0) return report;

  // Optional schedule perturbation for this run only. An env-activated
  // schedule (CI's fault leg) takes precedence and is left untouched.
  failpoint::InitFromEnv();
  bool activated_delay = false;
  if (options.random_delay_seed != 0 && !failpoint::RandomDelayActive()) {
    failpoint::ActivateRandomDelay(options.random_delay_seed);
    activated_delay = true;
  }

  std::vector<core::QueryRequest> requests(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    requests[i].schema_ref =
        core::SchemaRef::Table(corpus[i].example.table.get());
    requests[i].tokens = corpus[i].example.tokens;
    requests[i].collect_timings = false;
  }

  report.service_ns = serving::CalibrateServiceNs(pipeline, requests);
  const uint64_t service_ns = std::max<uint64_t>(report.service_ns, 1);
  // Offer ~1.1x the worker pool's calibrated capacity: enough overload
  // that shedding and queue pressure stay exercised without sheds
  // dominating.
  report.offered_qps = 1.1 * static_cast<double>(options.workers) * 1e9 /
                       static_cast<double>(service_ns);

  serving::ServingOptions serving_options;
  serving_options.num_workers = options.workers;
  serving_options.queue_capacity = options.queue_capacity;

  static_cast<serving::OpenLoopReport&>(report) = serving::RunOpenLoop(
      pipeline, requests, options.queries, serving_options,
      report.offered_qps, options.seed, service_ns,
      [&](size_t i, const serving::ServedResult& served) {
        report.matrix.Add(corpus[i].kind,
                          TriageOutcome(corpus[i].example, served.status,
                                        served.result));
      });

  report.failpoints_fired = metrics::MetricsRegistry::Global()
                                .GetCounter("failpoint.fired")
                                .Value();
  report.qps = report.wall_s > 0
                   ? static_cast<double>(options.queries) / report.wall_s
                   : 0.0;

  report.matrix.ExportMetrics();

  if (activated_delay) failpoint::DeactivateAll();
  return report;
}

}  // namespace attack
}  // namespace nlidb

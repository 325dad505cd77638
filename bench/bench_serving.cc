// Multi-tenant serving benchmark: open-loop synthetic clients against
// the ServingEngine (DESIGN.md §13), at 1, 4 and 8 workers, through the
// shared open-loop driver (serving/open_loop.h).
//
// Reports, and writes to BENCH_serving.json: sustained QPS and e2e
// p50/p99/p999 per worker count (acceptance: >= 500 QPS at 8 workers),
// and shed / reject rates under ~1.15x-capacity overload with mixed
// deadline tiers. Every run must balance the serving counters and
// complete a query, or the bench exits non-zero.
//
//   ./build/bench/bench_serving [--smoke]
//
// --smoke trains a tiny corpus and runs a short load at each worker
// count under that gate without writing the JSON; CI runs it.

#include "bench/bench_util.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "serving/open_loop.h"

namespace nlidb {
namespace bench {
namespace {

/// One replay through the shared driver and the answered queries' e2e
/// latencies.
struct LoadStats {
  serving::OpenLoopReport load;
  std::vector<uint64_t> e2e_ns;

  double Qps() const {
    return load.wall_s > 0 ? static_cast<double>(e2e_ns.size()) / load.wall_s
                           : 0.0;
  }
};

/// Replays the first `count` of `requests` on a fresh `workers`-wide
/// engine; `service_ns` = 0 runs without deadlines.
LoadStats Measure(const core::NlidbPipeline& pipeline,
                  const std::vector<core::QueryRequest>& requests,
                  uint64_t count, int workers, double offered_qps,
                  uint64_t seed, uint64_t service_ns) {
  serving::ServingOptions options;
  options.num_workers = workers;
  options.queue_capacity = 512;
  LoadStats stats;
  stats.load = serving::RunOpenLoop(
      pipeline, requests, count, options, offered_qps, seed, service_ns,
      [&](size_t, const serving::ServedResult& served) {
        if (served.status.ok()) stats.e2e_ns.push_back(served.e2e_ns);
      });
  return stats;
}

/// The run gate: the serving counter decomposition balanced exactly
/// and at least one query completed.
bool Healthy(const std::string& label, const serving::OpenLoopReport& load) {
  if (load.counters_balanced && load.completed > 0) return true;
  std::printf("GATE FAIL: %s: %s", label.c_str(), load.ToString().c_str());
  return false;
}

int Run(bool smoke) {
  PrintHeader("Multi-tenant serving: worker pool under open-loop load");

  BenchEnv env;
  // Tiny, with 24-dim embeddings and greedy decode: this bench stresses
  // the scheduler at the high-QPS serving point, so per-query model cost
  // is kept small enough that throughput reflects harness behavior, not
  // model FLOPs (model latency is measured by bench_decoder and per layer
  // by `perfbench/run.py --trace 1`).
  env.provider = std::make_shared<text::EmbeddingProvider>(24);
  data::RegisterDomainClusters(*env.provider);
  data::GeneratorConfig gc;
  gc.num_tables = smoke ? 6 : EnvTables(24);
  gc.questions_per_table = smoke ? 4 : 8;
  gc.seed = 1;
  env.splits = data::GenerateWikiSqlSplits(gc);
  env.config = core::ModelConfig::Tiny();
  env.config.beam_width = 1;
  env.config.word_dim = env.provider->dim();
  auto pipeline = TrainPipeline(env);

  // Workers are the unit of concurrency under test; the inner compute
  // pool stays at 1 thread so the two parallelism layers do not fight
  // over cores (the kernel contract keeps results identical either way).
  ThreadPool::SetGlobalParallelism(1);

  // The synthetic clients: questions drawn uniformly from the held-out
  // corpus. The pilot replays a prefix of the same draws.
  const int clients = smoke ? 200 : 1600;
  const uint64_t pilot_clients = smoke ? 50 : 300;
  std::vector<core::QueryRequest> requests;
  Rng draw(/*seed=*/7);
  for (int i = 0; i < clients; ++i) {
    const data::Example& ex =
        env.splits.test.examples[draw.NextUint64(env.splits.test.size())];
    core::QueryRequest request;
    request.schema_ref = core::SchemaRef::Table(ex.table.get());
    request.tokens = ex.tokens;
    request.collect_timings = false;
    requests.push_back(std::move(request));
  }

  const uint64_t service_ns = serving::CalibrateServiceNs(*pipeline, requests);
  std::printf("[calibrate] sequential service time %.3f ms/query\n",
              static_cast<double>(service_ns) / 1e6);

  const int hw = ThreadPool::DefaultParallelism();
  // Written fresh, not merged: this bench is the file's only writer, so
  // keys from an older configuration set never linger.
  FlatJson json;
  json.Set("serving_clients", clients);
  json.Set("serving_mean_service_ns", static_cast<double>(service_ns));
  json.Set("serving_hw_parallelism", hw);

  bool healthy = true;
  double qps_w8 = 0.0;
  for (const int workers : {1, 4, 8}) {
    // The sequential calibration misses scheduler overhead (generator
    // pacing, condvar churn, worker interleaving), so a short
    // deadline-free pilot measures what the full serving stack actually
    // sustains at this worker count; the measured run then offers ~1.15x
    // that — enough overload that the queue backs up and the deadline
    // machinery earns its keep, not so much that sheds dominate.
    const double capacity =
        service_ns > 0
            ? std::min(workers, hw) * 1e9 / static_cast<double>(service_ns)
            : 1000.0;
    const std::string sfx = "w" + std::to_string(workers);
    const LoadStats pilot =
        Measure(*pipeline, requests, pilot_clients, workers, capacity,
                /*seed=*/3, /*service_ns=*/0);
    healthy &= Healthy("pilot " + sfx, pilot.load);
    const double sustained = std::max(pilot.Qps(), 50.0);
    const double offered_qps = 1.15 * sustained;
    std::printf("[pilot] %s sustains %.0f qps; offering %.0f qps\n",
                sfx.c_str(), sustained, offered_qps);
    json.Set("serving_pilot_qps_" + sfx, sustained);
    json.Set("serving_offered_qps_" + sfx, offered_qps);

    const LoadStats stats = Measure(*pipeline, requests, requests.size(),
                                    workers, offered_qps, /*seed=*/7,
                                    service_ns);
    healthy &= Healthy(sfx, stats.load);
    const serving::OpenLoopReport& load = stats.load;
    const double shed_rate =
        load.admitted > 0 ? static_cast<double>(load.shed) / load.admitted
                          : 0.0;
    const long long rejected =
        load.rejected_queue_full + load.rejected_shutdown;
    // What the one generator thread achieved against the Poisson plan.
    const double arrival_qps =
        load.submit_s > 0 ? static_cast<double>(load.submitted) / load.submit_s
                          : 0.0;
    const long long ok = static_cast<long long>(stats.e2e_ns.size());
    const double p50 = PercentileNs(stats.e2e_ns, 0.5);
    const double p99 = PercentileNs(stats.e2e_ns, 0.99);
    const double p999 = PercentileNs(stats.e2e_ns, 0.999);
    std::printf(
        "%-3s  %7.0f qps  ok %4lld/%d  p50 %7.2f ms  p99 %7.2f ms  "
        "p999 %7.2f ms  shed %4.1f%%  rejected %lld  arrivals %.0f/s\n",
        sfx.c_str(), stats.Qps(), ok, clients, p50 / 1e6, p99 / 1e6,
        p999 / 1e6, 100.0 * shed_rate, rejected, arrival_qps);
    json.Set("serving_qps_" + sfx, stats.Qps());
    json.Set("serving_ok_" + sfx, ok);
    json.Set("serving_p50_ns_" + sfx, p50);
    json.Set("serving_p99_ns_" + sfx, p99);
    json.Set("serving_p999_ns_" + sfx, p999);
    json.Set("serving_shed_rate_" + sfx, shed_rate);
    json.Set("serving_rejected_" + sfx, rejected);
    json.Set("serving_deadline_misses_" + sfx,
             static_cast<long long>(load.deadline_misses));
    if (workers == 8) qps_w8 = stats.Qps();
  }
  ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());

  if (!healthy) return 1;
  if (smoke) {
    std::printf("\nsmoke: counters balanced and queries completed at 1, 4 "
                "and 8 workers\n");
    return 0;
  }
  std::printf("\nacceptance: 8-worker QPS %.0f (target >= 500) %s\n", qps_w8,
              qps_w8 >= 500.0 ? "PASS" : "FAIL");

  if (!json.Save(ServingJsonPath())) {
    std::printf("cannot write %s\n", ServingJsonPath());
    return 1;
  }
  std::printf("wrote %s (%zu keys)\n", ServingJsonPath(), json.size());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace nlidb

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return nlidb::bench::Run(smoke);
}

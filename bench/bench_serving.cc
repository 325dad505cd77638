// Multi-tenant serving benchmark: open-loop synthetic clients against
// the ServingEngine (DESIGN.md §13), at 1, 4 and 8 workers.
//
// Reports, and writes to BENCH_serving.json:
//   - sustained QPS and e2e p50/p99/p999 per worker count (the
//     acceptance metric: >= 500 QPS sustained at 8 workers);
//   - shed / reject rates under ~1.15x-capacity overload with mixed
//     deadline tiers (none / generous / infeasibly tight).
//
//   ./build/bench/bench_serving [--smoke]
//
// --smoke trains a tiny corpus, submits the smoke queries concurrently
// through the engine and asserts every ServedResult is bitwise
// identical (tokens, float score bits, statuses) to the sequential
// pipeline.Query() answer, then skips the JSON write; CI uses it to
// gate Release builds. The committed BENCH_serving.json comes from a
// full local run.

#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
// Synthetic clients need to sleep until their arrival time and block in
// Ticket::Take(), which the shared compute pool must never do; the
// bench drives the engine the way external clients would.
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "serving/serving.h"

namespace nlidb {
namespace bench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank q-th percentile (0..1] of `samples`: the smallest value
/// with at least q·n samples at or below it. Sorts a copy.
uint64_t PercentileNs(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

/// One synthetic client: a question, a Poisson-process arrival offset
/// and a deadline tier.
struct ClientPlan {
  const data::Example* example = nullptr;
  uint64_t arrival_offset_ns = 0;
  uint64_t deadline_ns = 0;  // 0 = no deadline
};

/// Open-loop arrival schedule: exponential interarrivals at
/// `offered_qps`, questions drawn uniformly from `corpus`, deadlines
/// mixed 35% none / 50% generous / 15% infeasibly tight (tight ones
/// exercise admission shedding; generous ones shed only when the queue
/// backs up).
std::vector<ClientPlan> MakePlan(const data::Dataset& corpus, int clients,
                                 double offered_qps, uint64_t generous_ns,
                                 uint64_t tight_ns, uint64_t seed) {
  Rng rng(seed);
  std::vector<ClientPlan> plan;
  plan.reserve(static_cast<size_t>(clients));
  double t_ns = 0.0;
  for (int i = 0; i < clients; ++i) {
    ClientPlan c;
    c.example =
        &corpus.examples[rng.NextUint64(corpus.examples.size())];
    const double u = static_cast<double>(rng.NextFloat());
    t_ns += -std::log(1.0 - u) / offered_qps * 1e9;
    c.arrival_offset_ns = static_cast<uint64_t>(t_ns);
    const float tier = rng.NextFloat();
    if (tier < 0.35f) {
      c.deadline_ns = 0;
    } else if (tier < 0.85f) {
      c.deadline_ns = generous_ns;
    } else {
      c.deadline_ns = tight_ns;
    }
    plan.push_back(c);
  }
  return plan;
}

struct LoadStats {
  double wall_s = 0.0;
  double qps = 0.0;  // successfully answered queries / wall_s
  long long ok = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  long long admitted = 0;
  long long shed = 0;
  long long rejected = 0;
  long long deadline_misses = 0;
};

/// Drives `plan` through a fresh engine: 16 submitter threads multiplex
/// the synthetic clients, each sleeping until its client's arrival time
/// (open loop: arrivals never wait for responses), then collect every
/// ticket. Counters are read from a clean registry afterwards.
LoadStats RunLoad(const core::NlidbPipeline& pipeline,
                  const std::vector<ClientPlan>& plan, int workers) {
  metrics::MetricsRegistry::Global().ResetAll();
  serving::ServingOptions options;
  options.num_workers = workers;
  options.queue_capacity = 512;
  serving::ServingEngine engine(pipeline, options);

  const int kSubmitters = 8;
  std::vector<std::vector<serving::ServedResult>> results(kSubmitters);
  // nlidb-lint: disable(raw-thread)
  std::vector<std::thread> clients;
  clients.reserve(kSubmitters);
  const uint64_t start = NowNs();
  for (int s = 0; s < kSubmitters; ++s) {
    clients.emplace_back([&, s] {
      std::vector<std::shared_ptr<serving::ServingEngine::Ticket>> tickets;
      for (size_t i = static_cast<size_t>(s); i < plan.size();
           i += kSubmitters) {
        const ClientPlan& c = plan[i];
        const uint64_t at = start + c.arrival_offset_ns;
        const uint64_t now = NowNs();
        if (at > now) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
        }
        core::QueryRequest request;
        request.schema_ref = core::SchemaRef::Table(c.example->table.get());
        request.tokens = c.example->tokens;
        request.collect_timings = false;
        if (c.deadline_ns != 0) {
          request.deadline = Deadline::AfterNanos(c.deadline_ns);
        }
        tickets.push_back(engine.Submit(std::move(request)));
      }
      for (auto& ticket : tickets) {
        results[s].push_back(ticket->Take());
      }
    });
  }
  for (auto& client : clients) client.join();
  const uint64_t wall_ns = NowNs() - start;

  LoadStats stats;
  engine.Shutdown();

  std::vector<uint64_t> e2e;
  for (const auto& shard : results) {
    for (const serving::ServedResult& served : shard) {
      if (!served.status.ok()) continue;
      ++stats.ok;
      e2e.push_back(served.e2e_ns);
    }
  }
  stats.wall_s = static_cast<double>(wall_ns) / 1e9;
  stats.qps = stats.wall_s > 0
                  ? static_cast<double>(stats.ok) / stats.wall_s
                  : 0.0;
  stats.p50_ns = PercentileNs(e2e, 0.5);
  stats.p99_ns = PercentileNs(e2e, 0.99);
  stats.p999_ns = PercentileNs(e2e, 0.999);

  auto& reg = metrics::MetricsRegistry::Global();
  stats.admitted = reg.GetCounter("serving.admitted").Value();
  stats.shed = reg.GetCounter("serving.shed").Value();
  stats.rejected = reg.GetCounter("serving.rejected_queue_full").Value() +
                   reg.GetCounter("serving.rejected_shutdown").Value();
  stats.deadline_misses = reg.GetCounter("serving.deadline_misses").Value();
  return stats;
}

/// Mean service time of a sequential pipeline.Query over `limit`
/// corpus examples; calibrates the offered load (and warms caches).
uint64_t CalibrateServiceNs(const core::NlidbPipeline& pipeline,
                            const data::Dataset& corpus, int limit) {
  uint64_t total = 0;
  int n = 0;
  for (const data::Example& ex : corpus.examples) {
    core::QueryRequest request;
    request.schema_ref = core::SchemaRef::Table(ex.table.get());
    request.tokens = ex.tokens;
    request.collect_timings = false;
    const uint64_t t0 = NowNs();
    StatusOr<core::QueryResult> result = pipeline.Query(request);
    (void)result;
    total += NowNs() - t0;
    if (++n >= limit) break;
  }
  return n > 0 ? total / static_cast<uint64_t>(n) : 0;
}

/// Smoke gate: submit every smoke query through the engine N times
/// concurrently (so workers really interleave) and require each ServedResult
/// to match the sequential pipeline answer bit for bit: same s^a
/// tokens, same translate_score float bits, same statuses.
bool SmokeEquivalence(const core::NlidbPipeline& pipeline,
                      const data::Dataset& corpus, int limit) {
  struct Expected {
    const data::Example* example;
    StatusOr<core::QueryResult> sequential;
  };
  std::vector<Expected> expected;
  int n = 0;
  for (const data::Example& ex : corpus.examples) {
    core::QueryRequest request;
    request.schema_ref = core::SchemaRef::Table(ex.table.get());
    request.tokens = ex.tokens;
    expected.push_back({&ex, pipeline.Query(request)});
    if (++n >= limit) break;
  }

  serving::ServingOptions options;
  options.num_workers = 4;
  serving::ServingEngine engine(pipeline, options);

  const int kRounds = 4;
  std::vector<std::shared_ptr<serving::ServingEngine::Ticket>> tickets;
  std::vector<size_t> which;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < expected.size(); ++i) {
      core::QueryRequest request;
      request.schema_ref = core::SchemaRef::Table(expected[i].example->table.get());
      request.tokens = expected[i].example->tokens;
      tickets.push_back(engine.Submit(std::move(request)));
      which.push_back(i);
    }
  }
  int compared = 0;
  for (size_t t = 0; t < tickets.size(); ++t) {
    serving::ServedResult served = tickets[t]->Take();
    const Expected& exp = expected[which[t]];
    if (served.status.ok() != exp.sequential.ok()) {
      std::printf("SMOKE FAIL: query %zu status diverged (%s vs %s)\n",
                  which[t], served.status.ToString().c_str(),
                  exp.sequential.status().ToString().c_str());
      return false;
    }
    if (!served.status.ok()) continue;
    const core::QueryResult& seq = exp.sequential.value();
    if (served.result.annotated_sql != seq.annotated_sql) {
      std::printf("SMOKE FAIL: query %zu decoded s^a diverged\n", which[t]);
      return false;
    }
    uint32_t served_bits = 0;
    uint32_t seq_bits = 0;
    std::memcpy(&served_bits, &served.result.translate_score,
                sizeof(served_bits));
    std::memcpy(&seq_bits, &seq.translate_score, sizeof(seq_bits));
    if (served_bits != seq_bits) {
      std::printf(
          "SMOKE FAIL: query %zu score bits diverged (%08x vs %08x)\n",
          which[t], served_bits, seq_bits);
      return false;
    }
    ++compared;
  }
  std::printf("smoke: engine matched sequential on %d served queries\n",
              compared);
  return true;
}

int Run(bool smoke) {
  PrintHeader("Multi-tenant serving: worker pool under open-loop load");

  BenchEnv env;
  // Tiny in full mode too, with 24-dim embeddings and greedy decode:
  // this bench stresses the scheduler at the high-QPS serving point, so
  // per-query model cost is kept small enough that throughput reflects
  // harness behavior, not model FLOPs (model latency has its own
  // benches: bench_decoder, bench_stage_breakdown). Smoke keeps the
  // defaults so the equivalence gate covers real beam search.
  env.provider = std::make_shared<text::EmbeddingProvider>(smoke ? 48 : 24);
  data::RegisterDomainClusters(*env.provider);
  data::GeneratorConfig gc;
  gc.num_tables = smoke ? 6 : EnvTables(24);
  gc.questions_per_table = smoke ? 4 : 8;
  gc.seed = 1;
  env.splits = data::GenerateWikiSqlSplits(gc);
  env.config = core::ModelConfig::Tiny();
  if (!smoke) env.config.beam_width = 1;
  env.config.word_dim = env.provider->dim();
  auto pipeline = TrainPipeline(env);

  // Workers are the unit of concurrency under test; the inner compute
  // pool stays at 1 thread so the two parallelism layers do not fight
  // over cores (the kernel contract keeps results identical either way).
  ThreadPool::SetGlobalParallelism(1);

  if (smoke) {
    const bool ok = SmokeEquivalence(*pipeline, env.splits.test, 4);
    ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());
    return ok ? 0 : 1;
  }

  const uint64_t service_ns =
      CalibrateServiceNs(*pipeline, env.splits.test, 32);
  std::printf("[calibrate] sequential service time %.3f ms/query\n",
              static_cast<double>(service_ns) / 1e6);

  // Deadline tiers scale with the calibrated service time: the tight
  // tier is infeasible by construction (it exercises admission
  // shedding), the generous tier absorbs queueing plus the latency
  // stretch of deep worker interleaving and only sheds when the queue
  // truly backs up.
  const int clients = 1600;
  const uint64_t generous_ns = 400 * service_ns;
  const uint64_t tight_ns = service_ns / 4;
  const int hw = ThreadPool::DefaultParallelism();
  // Written fresh, not merged: this bench is the file's only writer, so
  // keys from an older configuration set never linger.
  FlatJson json;
  json.Set("serving_clients", clients);
  json.Set("serving_mean_service_ns", static_cast<double>(service_ns));
  json.Set("serving_hw_parallelism", hw);

  double qps_w8 = 0.0;
  for (const int workers : {1, 4, 8}) {
    // The sequential calibration misses scheduler overhead (submitters,
    // condvar churn, worker interleaving), so a short deadline-free
    // pilot measures what the full serving stack actually sustains at
    // this worker count; the measured run then offers ~1.15x that —
    // enough overload that the queue backs up and the deadline
    // machinery earns its keep, not so much that sheds dominate.
    const double capacity =
        service_ns > 0
            ? std::min(workers, hw) * 1e9 / static_cast<double>(service_ns)
            : 1000.0;
    const std::vector<ClientPlan> pilot_plan =
        MakePlan(env.splits.test, 300, capacity, 0, 0, /*seed=*/3);
    const LoadStats pilot = RunLoad(*pipeline, pilot_plan, workers);
    const double sustained = std::max(pilot.qps, 50.0);
    const double offered_qps = 1.15 * sustained;
    const std::string sfx = "w" + std::to_string(workers);
    std::printf("[pilot] %s sustains %.0f qps; offering %.0f qps\n",
                sfx.c_str(), sustained, offered_qps);
    json.Set("serving_pilot_qps_" + sfx, sustained);
    json.Set("serving_offered_qps_" + sfx, offered_qps);

    const std::vector<ClientPlan> plan =
        MakePlan(env.splits.test, clients, offered_qps, generous_ns,
                 tight_ns, /*seed=*/7);
    const LoadStats stats = RunLoad(*pipeline, plan, workers);
    const double shed_rate =
        stats.admitted > 0 ? static_cast<double>(stats.shed) / stats.admitted
                           : 0.0;
    std::printf(
        "%-3s  %7.0f qps  ok %4lld/%d  p50 %7.2f ms  p99 %7.2f ms  "
        "p999 %7.2f ms  shed %4.1f%%  rejected %lld\n",
        sfx.c_str(), stats.qps, stats.ok, clients, stats.p50_ns / 1e6,
        stats.p99_ns / 1e6, stats.p999_ns / 1e6, 100.0 * shed_rate,
        stats.rejected);
    json.Set("serving_qps_" + sfx, stats.qps);
    json.Set("serving_ok_" + sfx, stats.ok);
    json.Set("serving_p50_ns_" + sfx, static_cast<double>(stats.p50_ns));
    json.Set("serving_p99_ns_" + sfx, static_cast<double>(stats.p99_ns));
    json.Set("serving_p999_ns_" + sfx, static_cast<double>(stats.p999_ns));
    json.Set("serving_shed_rate_" + sfx, shed_rate);
    json.Set("serving_rejected_" + sfx, stats.rejected);
    json.Set("serving_deadline_misses_" + sfx, stats.deadline_misses);
    if (workers == 8) qps_w8 = stats.qps;
  }
  ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());

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

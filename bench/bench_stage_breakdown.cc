// Per-stage latency breakdown of the structured Query() pipeline, from
// the stage timing tree the observability layer attaches to every
// QueryResult. Runs the held-out corpus end to end (annotate ->
// translate -> recover -> execute) at 1 and 8 pool threads, prints the
// mean wall time per stage, dumps the process metrics registry, and
// merges everything into BENCH_observability.json.
//
//   ./build/bench/bench_stage_breakdown [--smoke]
//
// --smoke trains a tiny corpus and runs a handful of queries; CI uses
// it to assert the instrumented pipeline works in Release builds.

#include "bench/bench_util.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace nlidb {
namespace bench {
namespace {

struct StageStats {
  std::string name;
  uint64_t total_ns = 0;
  int count = 0;
};

// Runs every test example through Query() and accumulates the per-stage
// wall time the pipeline reports. Returns the stages in pipeline order
// (as Query() reports them) followed by a "total" entry for the whole
// request.
std::vector<StageStats> RunCorpus(const core::NlidbPipeline& pipeline,
                                  const data::Dataset& dataset, int limit) {
  std::vector<StageStats> stages;
  StageStats total{"total"};
  int done = 0;
  for (const data::Example& ex : dataset.examples) {
    core::QueryRequest request;
    request.schema_ref = core::SchemaRef::Table(ex.table.get());
    request.tokens = ex.tokens;
    StatusOr<core::QueryResult> result = pipeline.Query(request);
    if (!result.ok()) continue;
    total.total_ns += result->stages.wall_ns;
    total.count += 1;
    for (const core::StageTiming& stage : result->stages.children) {
      auto it = std::find_if(
          stages.begin(), stages.end(),
          [&](const StageStats& s) { return s.name == stage.name; });
      if (it == stages.end()) it = stages.insert(it, StageStats{stage.name});
      it->total_ns += stage.wall_ns;
      it->count += 1;
    }
    if (++done >= limit) break;
  }
  stages.push_back(total);
  return stages;
}

int Run(bool smoke) {
  PrintHeader("Pipeline stage breakdown (observability layer)");

  BenchEnv env;
  env.provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*env.provider);
  data::GeneratorConfig gc;
  gc.num_tables = smoke ? 6 : EnvTables(36);
  gc.questions_per_table = smoke ? 4 : 8;
  gc.seed = 1;
  env.splits = data::GenerateWikiSqlSplits(gc);
  env.config = smoke ? core::ModelConfig::Tiny() : core::ModelConfig::Small();
  env.config.word_dim = env.provider->dim();
  auto pipeline = TrainPipeline(env);

  const int limit = smoke ? 4 : 64;
  FlatJson json = FlatJson::Load(ObservabilityJsonPath());

  for (int threads : {1, 8}) {
    ThreadPool::SetGlobalParallelism(threads);
    const auto stats = RunCorpus(*pipeline, env.splits.test, limit);
    ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());

    std::printf("\n--- mean wall time per stage, threads=%d (n=%d) ---\n",
                threads, stats.back().count);
    for (const StageStats& stage : stats) {
      if (stage.count == 0) continue;
      const double mean_ns = static_cast<double>(stage.total_ns) / stage.count;
      std::printf("%-10s %12.0f ns  %8.3f ms\n", stage.name.c_str(), mean_ns,
                  mean_ns / 1e6);
      if (!smoke) {
        json.Set("stage_" + stage.name + "_ns_t" + std::to_string(threads),
                 mean_ns);
      }
    }
  }

  // Process-wide metrics accumulated while the corpus ran: counters from
  // the annotator/seq2seq/executor hot paths plus the request histogram.
  std::printf("\n--- metrics registry ---\n%s",
              metrics::MetricsRegistry::Global().RenderText().c_str());
  metrics::Histogram& latency =
      metrics::MetricsRegistry::Global().GetHistogram("pipeline.latency_ns");
  if (!smoke && latency.Count() > 0) {
    json.Set("query_p50_ns",
             static_cast<double>(latency.ApproxPercentileNs(0.5)));
    json.Set("query_p99_ns",
             static_cast<double>(latency.ApproxPercentileNs(0.99)));
    json.Set("queries_timed", static_cast<long long>(latency.Count()));
    json.Set("bench_threads_swept", 8);
    if (!json.Save(ObservabilityJsonPath())) {
      std::printf("cannot write %s\n", ObservabilityJsonPath());
      return 1;
    }
    std::printf("\nmerged %s (%zu keys)\n", ObservabilityJsonPath(),
                json.size());
  }
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

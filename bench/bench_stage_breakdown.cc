// Per-stage latency breakdown of the structured Query() pipeline, from
// the stage timing tree the stage spans attach to every QueryResult.
// Runs the held-out corpus end to end (annotate -> translate -> recover
// -> execute) at 1 and 4 pool threads, prints the mean, p50 and p99
// wall time of the whole query and of every stage, dumps the process
// metrics registry, and writes everything to BENCH_observability.json.
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

// Raw wall-time samples of one node of the stage tree.
struct StageSamples {
  std::string name;
  std::vector<uint64_t> ns;
};

// Runs every test example through Query() and collects the stage tree's
// wall times: the root ("query") first, then the stages in pipeline
// order, as Query() reports them.
std::vector<StageSamples> RunCorpus(const core::NlidbPipeline& pipeline,
                                    const data::Dataset& dataset,
                                    int limit) {
  std::vector<StageSamples> stages = {{"query", {}}};
  int done = 0;
  for (const data::Example& ex : dataset.examples) {
    core::QueryRequest request;
    request.schema_ref = core::SchemaRef::Table(ex.table.get());
    request.tokens = ex.tokens;
    StatusOr<core::QueryResult> result = pipeline.Query(request);
    if (!result.ok()) continue;
    stages.front().ns.push_back(result->stages.wall_ns);
    for (const core::StageTiming& stage : result->stages.children) {
      auto it = std::find_if(
          stages.begin(), stages.end(),
          [&](const StageSamples& s) { return s.name == stage.name; });
      if (it == stages.end()) {
        it = stages.insert(it, StageSamples{stage.name, {}});
      }
      it->ns.push_back(stage.wall_ns);
    }
    if (++done >= limit) break;
  }
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
  // This bench is the file's only writer: start empty so keys it no
  // longer emits do not linger.
  FlatJson json;
  long long queries_timed = 0;

  for (int threads : {1, 4}) {
    ThreadPool::SetGlobalParallelism(threads);
    const auto stages = RunCorpus(*pipeline, env.splits.test, limit);
    ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());
    queries_timed += static_cast<long long>(stages.front().ns.size());

    std::printf("\n--- wall time per stage, threads=%d (n=%zu) ---\n"
                "%-10s %12s %12s %12s\n",
                threads, stages.front().ns.size(), "stage", "mean_us",
                "p50_us", "p99_us");
    for (const StageSamples& stage : stages) {
      if (stage.ns.empty()) continue;
      uint64_t total_ns = 0;
      for (uint64_t ns : stage.ns) total_ns += ns;
      const double mean = static_cast<double>(total_ns) /
                         static_cast<double>(stage.ns.size());
      const double p50 = PercentileNs(stage.ns, 0.5);
      const double p99 = PercentileNs(stage.ns, 0.99);
      std::printf("%-10s %12.1f %12.1f %12.1f\n", stage.name.c_str(),
                  mean / 1e3, p50 / 1e3, p99 / 1e3);
      const std::string prefix = "stage_" + stage.name;
      const std::string suffix = "_ns_t" + std::to_string(threads);
      json.Set(prefix + suffix, mean);
      json.Set(prefix + "_p50" + suffix, p50);
      json.Set(prefix + "_p99" + suffix, p99);
    }
  }

  // Process-wide metrics accumulated while the corpus ran: counters from
  // the annotator/seq2seq/executor hot paths plus every span's histogram.
  std::printf("\n--- metrics registry ---\n%s",
              metrics::MetricsRegistry::Global().RenderText().c_str());
  if (smoke || queries_timed == 0) return 0;
  json.Set("queries_timed", queries_timed);
  json.Set("bench_threads_swept", 4);
  if (!json.Save(ObservabilityJsonPath())) {
    std::printf("cannot write %s\n", ObservabilityJsonPath());
    return 1;
  }
  std::printf("\nwrote %s (%zu keys)\n", ObservabilityJsonPath(),
              json.size());
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

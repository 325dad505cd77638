// Decoder fast-path benchmark: the graph-free batched-beam inference
// path (DecodeMode::kFast) against the tape-based reference decoder,
// on the same trained model and held-out corpus.
//
// Reports, and merges into BENCH_decoder.json:
//   - translate-stage p50/p99 per query at 1 and 8 pool threads, for
//     the reference and fast decoders (decode latency inside the whole
//     pipeline is `perfbench/run.py --trace 1`'s `core.decode_*`);
//   - per-step decode cost and steps/sec at beam widths 1 and 4, from
//     the seq2seq.decode_steps counter delta around timed decodes;
//   - GEMM dispatch tier counters (gemm.dispatch.{base,avx2}) so a
//     regression in kernel selection is visible next to the latency.
//
//   ./build/bench/bench_decoder [--smoke]
//
// --smoke trains a tiny corpus, checks the fast path produces the same
// s^a as the reference on every smoke query, and skips the JSON merge;
// CI uses it to gate Release builds.

#include "bench/bench_util.h"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/seq2seq.h"

namespace nlidb {
namespace bench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct CorpusRun {
  std::vector<uint64_t> translate_ns;            // per successful query
  std::vector<std::string> decoded_sa;           // joined s^a per query
  std::vector<std::vector<std::string>> sources;  // q^a fed to the decoder
};

/// Runs every test example through Query() under the pipeline's current
/// decode mode and collects the translate-stage wall time plus the
/// decoded s^a (for the smoke-mode agreement check).
CorpusRun RunCorpus(const core::NlidbPipeline& pipeline,
                    const data::Dataset& dataset, int limit) {
  CorpusRun run;
  int done = 0;
  for (const data::Example& ex : dataset.examples) {
    core::QueryRequest request;
    request.schema_ref = core::SchemaRef::Table(ex.table.get());
    request.tokens = ex.tokens;
    StatusOr<core::QueryResult> result = pipeline.Query(request);
    if (!result.ok()) continue;
    const core::StageTiming* translate = result->stages.Child("translate");
    if (translate != nullptr) run.translate_ns.push_back(translate->wall_ns);
    std::string sa;
    for (const std::string& tok : result->annotated_sql) {
      if (!sa.empty()) sa += ' ';
      sa += tok;
    }
    run.decoded_sa.push_back(sa);
    run.sources.push_back(result->annotated_question);
    if (++done >= limit) break;
  }
  return run;
}

int Run(bool smoke) {
  PrintHeader("Decoder fast path vs reference (graph-free batched beam)");

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
  core::Seq2SeqTranslator* translator =
      pipeline->MutableForTraining().translator;

  const int limit = smoke ? 4 : 64;
  FlatJson json = FlatJson::Load(DecoderJsonPath());

  // --- end-to-end translate-stage latency, reference vs fast ---------
  // One pass over the held-out corpus per decode mode.
  std::vector<CorpusRun> smoke_runs;
  for (const core::DecodeMode mode :
       {core::DecodeMode::kReference, core::DecodeMode::kFastUnmasked,
        core::DecodeMode::kFast}) {
    translator->set_decode_mode(mode);
    const std::string name = core::Seq2SeqTranslator::DecodeModeName(mode);
    for (int threads : {1, 8}) {
      ThreadPool::SetGlobalParallelism(threads);
      CorpusRun run = RunCorpus(*pipeline, env.splits.test, limit);
      ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());
      const uint64_t p50 = PercentileNs(run.translate_ns, 0.5);
      const uint64_t p99 = PercentileNs(run.translate_ns, 0.99);
      std::printf(
          "translate %-14s t%d  n=%3zu  p50 %8.3f ms  p99 %8.3f ms\n",
          name.c_str(), threads, run.translate_ns.size(), p50 / 1e6,
          p99 / 1e6);
      if (!smoke) {
        const std::string sfx = name + "_t" + std::to_string(threads);
        json.Set("translate_p50_ns_" + sfx, static_cast<double>(p50));
        json.Set("translate_p99_ns_" + sfx, static_cast<double>(p99));
      }
      if (threads == 1) smoke_runs.push_back(std::move(run));
    }
  }

  // Smoke gate: the unmasked fast path must decode the exact token
  // sequences the reference produced (the bitwise contract, observed
  // through s^a), and every run must cover the smoke corpus.
  if (smoke) {
    const CorpusRun& ref = smoke_runs[0];           // kReference, t1
    const CorpusRun& fast_unmasked = smoke_runs[1];  // kFastUnmasked, t1
    if (ref.decoded_sa.empty() ||
        ref.decoded_sa.size() != fast_unmasked.decoded_sa.size()) {
      std::printf("SMOKE FAIL: corpus coverage mismatch (%zu vs %zu)\n",
                  ref.decoded_sa.size(), fast_unmasked.decoded_sa.size());
      return 1;
    }
    for (size_t i = 0; i < ref.decoded_sa.size(); ++i) {
      if (ref.decoded_sa[i] != fast_unmasked.decoded_sa[i]) {
        std::printf("SMOKE FAIL: query %zu diverged\n  ref:  %s\n  fast: %s\n",
                    i, ref.decoded_sa[i].c_str(),
                    fast_unmasked.decoded_sa[i].c_str());
        return 1;
      }
    }
    std::printf("smoke: fast path matched reference on %zu queries\n",
                ref.decoded_sa.size());
  }

  // --- per-step decode cost at beam widths 1 and 4 --------------------
  // Timed directly on the decoder entry point with the q^a sources the
  // corpus produced; steps come from the seq2seq.decode_steps counter
  // delta, so the cost is per emitted beam-step, not per query.
  metrics::Counter& decode_steps =
      metrics::MetricsRegistry::Global().GetCounter("seq2seq.decode_steps");
  metrics::Counter& gemm_base =
      metrics::MetricsRegistry::Global().GetCounter("gemm.dispatch.base");
  metrics::Counter& gemm_avx2 =
      metrics::MetricsRegistry::Global().GetCounter("gemm.dispatch.avx2");
  const std::vector<std::vector<std::string>>& sources =
      smoke_runs.front().sources;
  const int reps = smoke ? 1 : 4;
  ThreadPool::SetGlobalParallelism(1);
  for (const core::DecodeMode mode :
       {core::DecodeMode::kReference, core::DecodeMode::kFast}) {
    translator->set_decode_mode(mode);
    const std::string name = core::Seq2SeqTranslator::DecodeModeName(mode);
    for (int beam : {1, 4}) {
      const int64_t steps_before = decode_steps.Value();
      const int64_t base_before = gemm_base.Value();
      const int64_t avx2_before = gemm_avx2.Value();
      const uint64_t t0 = NowNs();
      int decoded = 0;
      for (int r = 0; r < reps; ++r) {
        for (const std::vector<std::string>& source : sources) {
          if (translator->DecodeWithBeamWidth(source, beam).ok()) ++decoded;
        }
      }
      const uint64_t elapsed = NowNs() - t0;
      const int64_t steps = decode_steps.Value() - steps_before;
      const double ns_per_step =
          steps > 0 ? static_cast<double>(elapsed) / steps : 0.0;
      const double steps_per_sec =
          elapsed > 0 ? steps * 1e9 / static_cast<double>(elapsed) : 0.0;
      std::printf(
          "decode %-10s beam=%d  %4d decodes  %7lld steps  "
          "%9.0f ns/step  %9.0f steps/s\n",
          name.c_str(), beam, decoded, static_cast<long long>(steps),
          ns_per_step, steps_per_sec);
      if (!smoke) {
        const std::string suffix = name + "_b" + std::to_string(beam);
        json.Set("decode_ns_per_step_" + suffix, ns_per_step);
        json.Set("decode_steps_per_sec_" + suffix, steps_per_sec);
        json.Set("gemm_base_calls_" + suffix,
                 static_cast<long long>(gemm_base.Value() - base_before));
        json.Set("gemm_avx2_calls_" + suffix,
                 static_cast<long long>(gemm_avx2.Value() - avx2_before));
      }
    }
  }
  ThreadPool::SetGlobalParallelism(ThreadPool::DefaultParallelism());

  std::printf("\n--- metrics registry ---\n%s",
              metrics::MetricsRegistry::Global().RenderText().c_str());

  if (!smoke) {
    json.Set("decode_bench_reps", reps);
    json.Set("decode_bench_sources",
             static_cast<long long>(sources.size()));
    if (!json.Save(DecoderJsonPath())) {
      std::printf("cannot write %s\n", DecoderJsonPath());
      return 1;
    }
    std::printf("\nmerged %s (%zu keys)\n", DecoderJsonPath(), json.size());
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

#ifndef NLIDB_BENCH_BENCH_UTIL_H_
#define NLIDB_BENCH_BENCH_UTIL_H_

// Shared setup for the paper-table benchmark binaries. Each binary
// regenerates one table/figure of the paper (see DESIGN.md's
// per-experiment index); they train scaled-down models from scratch on
// the synthetic WikiSQL-style corpus, so absolute numbers differ from
// the paper while orderings and trends are the reproduction target.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_json.h"
#include "core/pipeline.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "tensor/gemm_kernels.h"

namespace nlidb {
namespace bench {

/// Corpus + provider + config shared by the benches. Sizes can be scaled
/// with the NLIDB_BENCH_TABLES environment variable (default 60 tables).
struct BenchEnv {
  std::shared_ptr<text::EmbeddingProvider> provider;
  data::Splits splits;
  core::ModelConfig config;
};

/// The table count in NLIDB_BENCH_TABLES, or `fallback` when it is
/// unset or empty. A typo must not silently shrink a run: anything but
/// a whole positive decimal no larger than INT_MAX prints a message and
/// exits 2.
inline int EnvTables(int fallback = 60) {
  const char* v = std::getenv("NLIDB_BENCH_TABLES");
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' ||
      errno == ERANGE || n == 0 || n > INT_MAX) {
    std::fprintf(stderr, "NLIDB_BENCH_TABLES=\"%s\" is not a positive count\n",
                 v);
    std::exit(2);
  }
  return static_cast<int>(n);
}

/// Nearest-rank q-quantile (0 < q <= 1) of `samples`: the smallest
/// sample with at least q·n samples at or below it, as in
/// perfbench/stats.py's `percentile`. 0 for no samples; sorts a copy.
inline uint64_t PercentileNs(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps q·n from rounding up past a whole rank.
  const double rank = std::clamp(std::ceil(q * n - 1e-9), 1.0, n);
  return samples[static_cast<size_t>(rank) - 1];
}

/// Stamps the machine keys that every BENCH_*.json file carries: the
/// CPU count and the GEMM kernel tier in use. Files regenerated together
/// agree on them, so a file left over from another machine shows up.
inline void SetMachineKeys(FlatJson& json) {
  json.Set("machine_nproc",
           static_cast<long long>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.SetString("machine_gemm_tier",
                 gemm::ActiveTier() == gemm::Tier::kAvx2 ? "avx2" : "base");
}

inline BenchEnv MakeEnv(uint64_t seed = 1) {
  BenchEnv env;
  env.provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*env.provider);
  data::GeneratorConfig gc;
  gc.num_tables = EnvTables();
  gc.questions_per_table = 8;
  gc.seed = seed;
  env.splits = data::GenerateWikiSqlSplits(gc);
  env.config = core::ModelConfig::Small();
  env.config.word_dim = env.provider->dim();
  return env;
}

inline std::unique_ptr<core::NlidbPipeline> TrainPipeline(BenchEnv& env) {
  auto pipeline =
      std::make_unique<core::NlidbPipeline>(env.config, env.provider);
  std::printf("[setup] training on %zu examples (%zu tables)...\n",
              env.splits.train.size(), env.splits.train.tables.size());
  core::TrainReport report = pipeline->Train(env.splits.train);
  std::printf(
      "[setup] losses: classifier %.3f | values %.3f | seq2seq %.3f\n\n",
      report.classifier_loss, report.value_loss, report.seq2seq_loss);
  return pipeline;
}

inline void PrintHeader(const char* title) {
  std::printf("=====================================================\n");
  std::printf("%s\n", title);
  std::printf("=====================================================\n");
}

inline void PrintAccuracyRow(const char* name,
                             const eval::AccuracyReport& dev,
                             const eval::AccuracyReport& test) {
  std::printf("%-28s | %5.1f%% %5.1f%% %5.1f%% | %5.1f%% %5.1f%% %5.1f%%\n",
              name, 100 * dev.acc_lf, 100 * dev.acc_qm, 100 * dev.acc_ex,
              100 * test.acc_lf, 100 * test.acc_qm, 100 * test.acc_ex);
}

/// ASCII bar for influence plots (Figs. 5 and 7).
inline std::string Bar(float value, float max_value, int width = 40) {
  if (max_value <= 0.0f) return "";
  int n = static_cast<int>(value / max_value * width + 0.5f);
  if (n < 0) n = 0;
  if (n > width) n = width;
  return std::string(n, '#');
}

}  // namespace bench
}  // namespace nlidb

#endif  // NLIDB_BENCH_BENCH_UTIL_H_

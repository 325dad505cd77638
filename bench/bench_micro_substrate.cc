// Google-benchmark micro benchmarks for the substrates: tensor math,
// autograd, RNN cells, SQL parsing/execution, statistics, generation and
// the annotation fast paths. Not a paper table — supports the ablation
// discussion in DESIGN.md and guards against performance regressions.
//
// Before the google-benchmark suite runs, main() times the tiled GEMM
// kernels against the seed-equivalent reference loops (gemm_reference.cc,
// compiled with the seed's flags), each tier's RowsAB at the decoder's
// beam heights, and the tanh row kernels of both tiers against a libm
// std::tanh loop, and writes the results to BENCH_substrate.json
// (override the path with NLIDB_BENCH_JSON).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <vector>

#include "bench/bench_util.h"
#include "core/annotation.h"
#include "data/generator.h"
#include "nn/rnn.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/statistics.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"
#include "text/dependency.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::Gaussian({n, n}, 1.0f, rng);
  Tensor b = Tensor::Gaussian({n, n}, 1.0f, rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_AutogradBackward(benchmark::State& state) {
  Rng rng(2);
  Var w = MakeVar(Tensor::Gaussian({64, 64}, 0.1f, rng), true);
  Var x = MakeVar(Tensor::Gaussian({1, 64}, 1.0f, rng));
  for (auto _ : state) {
    Var h = x;
    for (int i = 0; i < 8; ++i) h = ops::Tanh(ops::MatMul(h, w));
    Var loss = ops::SumAll(h);
    Backward(loss);
    w->grad.Fill(0.0f);
  }
}
BENCHMARK(BM_AutogradBackward);

void BM_GruStep(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  Rng rng(3);
  nn::GruCell cell(h, h, rng);
  Var x = MakeVar(Tensor::Gaussian({1, h}, 1.0f, rng));
  Var state_h = cell.InitialState();
  for (auto _ : state) {
    state_h = cell.Step(x, state_h);
    benchmark::DoNotOptimize(state_h->value.data());
    // Keep the graph from growing unboundedly.
    state_h = MakeVar(state_h->value);
  }
}
BENCHMARK(BM_GruStep)->Arg(64)->Arg(128);

void BM_LstmSequence(benchmark::State& state) {
  Rng rng(4);
  nn::StackedLstm lstm(48, 64, 1, rng);
  Var seq = MakeVar(Tensor::Gaussian({20, 48}, 1.0f, rng));
  for (auto _ : state) {
    Var out = lstm.Forward(seq);
    benchmark::DoNotOptimize(out->value.data());
  }
}
BENCHMARK(BM_LstmSequence);

void BM_SqlParse(benchmark::State& state) {
  sql::Schema schema({{"race", sql::DataType::kText},
                      {"winning_driver", sql::DataType::kText},
                      {"points", sql::DataType::kReal}});
  const std::string sql =
      "SELECT winning_driver WHERE race = \"monaco grand prix\" AND "
      "points > 10";
  for (auto _ : state) {
    auto q = sql::ParseSql(sql, schema);
    benchmark::DoNotOptimize(q.ok());
  }
}
BENCHMARK(BM_SqlParse);

void BM_SqlExecute(benchmark::State& state) {
  sql::Schema schema({{"name", sql::DataType::kText},
                      {"points", sql::DataType::kReal}});
  sql::Table table("t", schema);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    (void)table.AddRow({sql::Value::Text("row" + std::to_string(i)),
                        sql::Value::Real(rng.NextInt(0, 100))});
  }
  sql::SelectQuery q;
  q.select_column = 0;
  q.agg = sql::Aggregate::kCount;
  q.conditions.push_back({1, sql::CondOp::kGt, sql::Value::Real(50)});
  for (auto _ : state) {
    auto r = sql::Execute(q, table);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SqlExecute);

void BM_ColumnStatistics(benchmark::State& state) {
  text::EmbeddingProvider provider;
  data::GeneratorConfig gc;
  gc.num_tables = 1;
  gc.rows_per_table = 30;
  data::WikiSqlGenerator gen(gc, data::TrainDomains());
  auto table = gen.GenerateTable(0);
  for (auto _ : state) {
    auto stats = sql::ComputeTableStatistics(*table, provider);
    benchmark::DoNotOptimize(stats.size());
  }
}
BENCHMARK(BM_ColumnStatistics);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    data::GeneratorConfig gc;
    gc.num_tables = 10;
    gc.questions_per_table = 8;
    gc.seed = state.iterations();
    data::WikiSqlGenerator gen(gc, data::TrainDomains());
    data::Dataset ds = gen.Generate();
    benchmark::DoNotOptimize(ds.examples.size());
  }
}
BENCHMARK(BM_CorpusGeneration);

void BM_DependencyParse(benchmark::State& state) {
  const auto tokens = text::Tokenize(
      "which film directed by jerzy antczak did piotr adamczyk star in ?");
  for (auto _ : state) {
    auto tree = text::DependencyTree::Parse(tokens);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_DependencyParse);

void BM_AnnotationRoundTrip(benchmark::State& state) {
  data::GeneratorConfig gc;
  gc.num_tables = 2;
  data::WikiSqlGenerator gen(gc, data::TrainDomains());
  data::Dataset ds = gen.Generate();
  core::AnnotationOptions options;
  for (auto _ : state) {
    for (const auto& ex : ds.examples) {
      core::Annotation gold;  // empty annotation: worst-case literals
      auto sa = core::BuildAnnotatedSql(ex.query, gold, ex.schema(), options);
      auto rec = core::RecoverSql(sa, gold, ex.schema());
      benchmark::DoNotOptimize(rec.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * ds.examples.size());
}
BENCHMARK(BM_AnnotationRoundTrip);

// --- Tiled-vs-reference GEMM report (BENCH_substrate.json) ------------

using GemmFn = void (*)(const Tensor&, const Tensor&, Tensor&);

// Runs `call` until ~80 ms have elapsed (at least 3 iterations) and
// returns ns per call; best of 3 batches, after one warmup call.
template <typename Call>
double BestNsPerCall(const Call& call) {
  using Clock = std::chrono::steady_clock;
  call();  // warmup
  double best = 1e30;
  for (int batch = 0; batch < 3; ++batch) {
    int iters = 0;
    const auto start = Clock::now();
    double elapsed_ns = 0.0;
    do {
      call();
      ++iters;
      elapsed_ns = std::chrono::duration<double, std::nano>(Clock::now() -
                                                            start)
                       .count();
    } while (elapsed_ns < 8e7 || iters < 3);
    best = std::min(best, elapsed_ns / iters);
  }
  return best;
}

// `out` is re-zeroed every call on both sides of a comparison, so the
// Fill cost cancels.
double TimeGemmNs(GemmFn fn, const Tensor& a, const Tensor& b, Tensor& out) {
  return BestNsPerCall([&] {
    out.Fill(0.0f);
    fn(a, b, out);
  });
}

struct GemmCase {
  const char* key;      // JSON key stem, e.g. "gemm_ab"
  GemmFn tiled;
  GemmFn reference;
  bool transpose_a;     // out shape follows the kernel's contraction
};

void RunSubstrateGemmReport(bench::FlatJson& json) {
  const GemmCase cases[] = {
      {"gemm_ab", &MatMulAccumulate, &MatMulAccumulateReference, false},
      {"gemm_abt", &MatMulTransposeBAccumulate,
       &MatMulTransposeBAccumulateReference, false},
      {"gemm_atb", &MatMulTransposeAAccumulate,
       &MatMulTransposeAAccumulateReference, true},
  };
  const int sizes[] = {64, 128, 256, 384};
  std::printf("substrate: tiled GEMM vs seed-equivalent reference\n");
  std::printf("%-10s %6s %12s %12s %9s\n", "kernel", "n", "ref ns/op",
              "tiled ns/op", "speedup");
  for (const GemmCase& c : cases) {
    for (int n : sizes) {
      Rng rng(static_cast<uint64_t>(n) * 7 + 1);
      // Square shapes: every kernel variant accepts [n,n]x[n,n]->[n,n].
      Tensor a = Tensor::Gaussian({n, n}, 1.0f, rng);
      Tensor b = Tensor::Gaussian({n, n}, 1.0f, rng);
      Tensor out = Tensor::Zeros({n, n});
      const double ref_ns = TimeGemmNs(c.reference, a, b, out);
      const double tiled_ns = TimeGemmNs(c.tiled, a, b, out);
      const double speedup = ref_ns / tiled_ns;
      std::printf("%-10s %6d %12.0f %12.0f %8.2fx\n", c.key, n, ref_ns,
                  tiled_ns, speedup);
      const std::string stem = std::string(c.key) + "_" + std::to_string(n);
      json.Set(stem + "_ref_ns", ref_ns);
      json.Set(stem + "_tiled_ns", tiled_ns);
      json.Set(stem + "_speedup", speedup);
    }
  }
}

// --- Beam-height GEMM per tier (BENCH_substrate.json) -------------------

// The decoder's GEMMs have one row per live beam, so m <= 5 at the
// paper's beam width: below the AVX2 6-row tile, on the leftover-row
// tile the square cases above never reach. Times the GRU gate products
// [m,k] x [k,384] (k = 176 input, 128 hidden) on each tier's RowsAB.
void RunSubstrateSmallMReport(bench::FlatJson& json) {
  struct TierCase {
    const char* key;
    gemm::RowsABFn rows_ab;
  };
  std::vector<TierCase> tiers = {{"base", &gemm::base::RowsAB}};
  if (gemm::avx2::Available()) tiers.push_back({"avx2", &gemm::avx2::RowsAB});
  constexpr int kN = 384;
  std::printf("\nsubstrate: beam-height RowsAB, [m,k] x [k,%d]\n", kN);
  std::printf("%-6s %4s %4s %12s %9s\n", "tier", "m", "k", "ns/op", "GMAC/s");
  for (int k : {176, 128}) {
    for (int m : {1, 3, 5, 6}) {
      Rng rng(static_cast<uint64_t>(m) * 1000 + k);
      const Tensor a = Tensor::Gaussian({m, k}, 1.0f, rng);
      const Tensor b = Tensor::Gaussian({k, kN}, 1.0f, rng);
      Tensor out = Tensor::Zeros({m, kN});
      for (const TierCase& t : tiers) {
        const double ns = BestNsPerCall([&] {
          out.Fill(0.0f);
          t.rows_ab(a.data(), b.data(), out.data(), m, k, kN);
          benchmark::DoNotOptimize(out.data());
        });
        const double gmacs = static_cast<double>(m) * k * kN / ns;
        std::printf("%-6s %4d %4d %12.0f %9.2f\n", t.key, m, k, ns, gmacs);
        const std::string stem = "gemm_ab_m" + std::to_string(m) + "_k" +
                                 std::to_string(k) + "_n384_" + t.key;
        json.Set(stem + "_ns", ns);
        json.Set(stem + "_gmacs", gmacs);
      }
    }
  }
}

// --- tanh row kernels vs libm (BENCH_substrate.json) -------------------

using TanhFn = void (*)(const float* in, float* out, int n);

void LibmTanhRows(const float* in, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = std::tanh(in[i]);
}

void RunSubstrateTanhReport(bench::FlatJson& json) {
  // One decoder attention block: n=32 source positions x att=64 units of
  // mem_proj + query sums.
  constexpr int kRows = 32;
  constexpr int kCols = 64;
  Rng rng(11);
  const Tensor block = Tensor::Gaussian({kRows, kCols}, 1.0f, rng);
  const std::vector<float> in(block.data(), block.data() + block.size());
  std::vector<float> out(in.size());
  struct TanhCase {
    const char* key;
    TanhFn fn;
  };
  std::vector<TanhCase> cases = {{"libm", &LibmTanhRows},
                                 {"base", &gemm::base::TanhRows}};
  if (gemm::avx2::Available()) {
    cases.push_back({"avx2", &gemm::avx2::TanhRows});
  }
  std::printf("\nsubstrate: tanh on a %dx%d attention block\n", kRows,
              kCols);
  std::printf("%-6s %12s\n", "tanh", "ns/elem");
  const int n = static_cast<int>(in.size());
  for (const TanhCase& c : cases) {
    const double ns = BestNsPerCall([&] {
                        c.fn(in.data(), out.data(), n);
                        benchmark::DoNotOptimize(out.data());
                      }) /
                      n;
    std::printf("%-6s %12.2f\n", c.key, ns);
    json.Set(std::string("tanh_ns_per_elem_") + c.key, ns);
  }
}

}  // namespace
}  // namespace nlidb

int main(int argc, char** argv) {
  {
    nlidb::bench::FlatJson json;
    nlidb::bench::SetMachineKeys(json);
    nlidb::RunSubstrateGemmReport(json);
    nlidb::RunSubstrateSmallMReport(json);
    nlidb::RunSubstrateTanhReport(json);
    json.Save(nlidb::bench::SubstrateJsonPath());
    std::printf("wrote %s (%zu keys)\n\n", nlidb::bench::SubstrateJsonPath(),
                json.size());
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

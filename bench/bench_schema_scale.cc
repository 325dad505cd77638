// Schema-registry scaling bench (DESIGN.md §15): does per-question cost
// stay flat as the registry grows 10 -> 100 -> 1000 tables?
//
// Two measurements, written into BENCH_schema.json:
//   1. Scale sweep: one fixed question set (over the first 10 tables)
//      run end to end at every registry size. Annotate p50 (the median
//      of five passes' p50s, after one untimed warm-up pass) must not
//      drift with registry growth (the paper's annotator only ever sees
//      one table; the registry keeps it that way), and the resolve stage
//      reports what routing over N tables actually costs.
//   2. Routing quality: recall@1 / recall@3 of Route() against the gold
//      table of generated questions, per registry size.
//
//   ./build/bench/bench_schema_scale [--smoke]
//
// --smoke shrinks the sweep to {10, 50} tables and asserts the
// correctness gates instead of recording timings: `Query` must equal the
// annotator followed by `BuildAnnotatedQuestion` and `Decode`, byte for
// byte, on the generated test split, on all 100 questions of the
// 50-table pool and on 8 wide (24-column) tables x 4 questions, and
// routed queries over registered tables must compute no statistics
// (their entries are bound at Register). CI runs it in the Release legs.

#include "bench/bench_util.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "schema/registry.h"
#include "sql/value.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace bench {
namespace {

/// A 24-column table, four times the generator's widest.
sql::Table WideTable(int id) {
  const char* kWords[] = {"population", "director", "county",  "film",
                          "year",       "price",    "team",    "city",
                          "color",      "author",   "title",   "length",
                          "weight",     "height",   "speed",   "genre",
                          "artist",     "album",    "country", "capital",
                          "river",      "mountain", "animal",  "flower"};
  std::vector<sql::ColumnDef> cols;
  for (const char* w : kWords) cols.push_back({w, sql::DataType::kText});
  sql::Table t("wide_" + std::to_string(id), sql::Schema(cols));
  std::vector<sql::Value> row;
  for (const char* w : kWords) {
    row.push_back(sql::Value::Text(std::string(w) + " " +
                                   std::to_string(id)));
  }
  if (!t.AddRow(std::move(row)).ok()) std::abort();
  return t;
}

struct StageSamples {
  std::vector<uint64_t> annotate_ns;
  std::vector<uint64_t> resolve_ns;
  int routed_hits_at_1 = 0;
  int routed_hits_at_3 = 0;
  int routed_total = 0;
};

/// Runs `examples` through Query() with SchemaRef::Route() and collects
/// per-stage wall times plus routing accuracy against the gold table.
StageSamples RunRouted(const core::NlidbPipeline& pipeline,
                       const std::vector<const data::Example*>& examples) {
  StageSamples out;
  for (const data::Example* ex : examples) {
    core::QueryRequest request;
    request.schema_ref = core::SchemaRef::Route();
    request.tokens = ex->tokens;
    request.execute = false;
    StatusOr<core::QueryResult> result = pipeline.Query(request);
    if (!result.ok()) continue;
    ++out.routed_total;
    if (result->table_name == ex->table->name()) ++out.routed_hits_at_1;
    for (const schema::RouteCandidate& c : result->routing) {
      if (c.name == ex->table->name()) {
        ++out.routed_hits_at_3;
        break;
      }
    }
    if (const core::StageTiming* s = result->stages.Child("annotate")) {
      out.annotate_ns.push_back(s->wall_ns);
    }
    if (const core::StageTiming* s = result->stages.Child("resolve")) {
      out.resolve_ns.push_back(s->wall_ns);
    }
  }
  return out;
}

int Run(bool smoke) {
  PrintHeader("Schema registry at scale (registered snapshots + routing)");

  BenchEnv env;
  env.provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*env.provider);
  data::GeneratorConfig gc;
  gc.num_tables = smoke ? 6 : 20;
  gc.questions_per_table = smoke ? 3 : 6;
  gc.seed = 5;
  env.splits = data::GenerateWikiSqlSplits(gc);
  env.config = smoke ? core::ModelConfig::Tiny() : core::ModelConfig::Small();
  env.config.word_dim = env.provider->dim();
  auto pipeline = TrainPipeline(env);

  const std::vector<int> sizes = smoke ? std::vector<int>{10, 50}
                                       : std::vector<int>{10, 100, 1000};
  const int max_tables = sizes.back();

  // One generated pool of max_tables tables with questions; registry
  // sizes are nested prefixes, so the 10-table question set exists at
  // every size and the sweep measures the same work throughout.
  data::GeneratorConfig pool_gc;
  pool_gc.num_tables = max_tables;
  pool_gc.questions_per_table = 2;
  pool_gc.seed = 17;
  data::WikiSqlGenerator pool_gen(pool_gc, data::TrainDomains());
  data::Dataset pool = pool_gen.Generate();
  std::printf("[setup] table pool: %zu tables, %zu questions\n",
              pool.tables.size(), pool.examples.size());

  // The fixed probe set: every question whose gold table is among the
  // first `sizes.front()` tables.
  std::vector<const data::Example*> probe;
  for (const data::Example& ex : pool.examples) {
    for (int t = 0; t < sizes.front(); ++t) {
      if (ex.table == pool.tables[static_cast<size_t>(t)]) {
        probe.push_back(&ex);
        break;
      }
    }
  }

  FlatJson json;
  SetMachineKeys(json);
  json.Set("schema_tables_max", max_tables);

  double p50_at_min = 0.0;
  double p50_at_max = 0.0;
  int registered = 0;
  metrics::Counter& stats_computed =
      metrics::MetricsRegistry::Global().GetCounter("schema.stats_computed");
  int64_t routed_computes = 0;
  for (int size : sizes) {
    for (; registered < size; ++registered) {
      StatusOr<schema::TableId> id = pipeline->mutable_registry().Register(
          pool.tables[static_cast<size_t>(registered)]);
      if (!id.ok()) {
        std::printf("register failed: %s\n", id.status().ToString().c_str());
        return 1;
      }
    }

    // Routing quality over questions spanning the whole registry.
    std::vector<const data::Example*> recall_set;
    for (const data::Example& ex : pool.examples) {
      bool in_registry = false;
      for (int t = 0; t < size && !in_registry; ++t) {
        in_registry = ex.table == pool.tables[static_cast<size_t>(t)];
      }
      if (in_registry) recall_set.push_back(&ex);
      if (recall_set.size() >= 400) break;
    }
    const int64_t computed_before = stats_computed.Value();
    const StageSamples recall = RunRouted(*pipeline, recall_set);

    // Per-question cost on the fixed probe set: the median of
    // kProbePasses per-pass p50s, since one pass is only 20 questions.
    // One untimed warm-up pass goes first: the first pass over the probe
    // set used to read about 50 % above the rest on identical work.
    constexpr int kProbePasses = 5;
    std::vector<uint64_t> annotate_p50s;
    std::vector<uint64_t> resolve_ns;
    RunRouted(*pipeline, probe);  // untimed warm-up
    for (int pass = 0; pass < kProbePasses; ++pass) {
      StageSamples probe_run = RunRouted(*pipeline, probe);
      annotate_p50s.push_back(
          PercentileNs(std::move(probe_run.annotate_ns), 0.5));
      resolve_ns.insert(resolve_ns.end(), probe_run.resolve_ns.begin(),
                        probe_run.resolve_ns.end());
    }
    routed_computes += stats_computed.Value() - computed_before;
    const double annotate_p50 = PercentileNs(std::move(annotate_p50s), 0.5);
    const double resolve_p50 = PercentileNs(std::move(resolve_ns), 0.5);
    if (size == sizes.front()) p50_at_min = annotate_p50;
    if (size == sizes.back()) p50_at_max = annotate_p50;

    const double r1 = recall.routed_total == 0
                          ? 0.0
                          : static_cast<double>(recall.routed_hits_at_1) /
                                recall.routed_total;
    const double r3 = recall.routed_total == 0
                          ? 0.0
                          : static_cast<double>(recall.routed_hits_at_3) /
                                recall.routed_total;
    std::printf(
        "tables=%5d  annotate p50 %9.0f ns  resolve p50 %9.0f ns  "
        "recall@1 %.3f  recall@3 %.3f  (n=%d)\n",
        size, annotate_p50, resolve_p50, r1, r3, recall.routed_total);
    if (!smoke) {
      const std::string suffix = "_" + std::to_string(size) + "t";
      json.Set("annotate_p50_ns" + suffix, annotate_p50);
      json.Set("resolve_p50_ns" + suffix, resolve_p50);
      json.Set("route_recall1" + suffix, r1);
      json.Set("route_recall3" + suffix, r3);
    }
  }
  const double flat_ratio = p50_at_min > 0 ? p50_at_max / p50_at_min : 0.0;
  std::printf("annotate p50 ratio %d -> %d tables: %.3f\n", sizes.front(),
              sizes.back(), flat_ratio);
  if (!smoke) json.Set("annotate_flat_ratio", flat_ratio);

  if (smoke) {
    // Correctness gate instead of timings: Query's annotated question,
    // SQL and score equal those of the annotator, build_qa and translate
    // steps called one by one, on the generated test split, on every
    // question of the table pool and on wide tables.
    struct Case {
      const sql::Table* table;
      std::vector<std::string> tokens;
    };
    std::vector<Case> corpus;
    for (const data::Example& ex : env.splits.test.examples) {
      corpus.push_back({ex.table.get(), ex.tokens});
    }
    for (const data::Example& ex : pool.examples) {
      corpus.push_back({ex.table.get(), ex.tokens});
    }
    std::vector<sql::Table> wide;
    for (int i = 0; i < 8; ++i) wide.push_back(WideTable(i));
    const std::vector<std::vector<std::string>> wide_questions = {
        {"what", "is", "the", "capital", "of", "france", "?"},
        {"which", "film", "has", "the", "director", "sofia", "garcia", "?"},
        {"what", "is", "the", "population", "of", "mayo", "county", "?"},
        {"how", "tall", "is", "the", "mountain", "?"},
    };
    for (const sql::Table& t : wide) {
      for (const auto& tokens : wide_questions) corpus.push_back({&t, tokens});
    }
    int checked = 0;
    int skipped = 0;  // annotation failed on both sides
    for (const Case& c : corpus) {
      const std::string question = text::Detokenize(c.tokens);
      core::QueryRequest request;
      request.schema_ref = core::SchemaRef::Table(c.table);
      request.tokens = c.tokens;
      StatusOr<core::QueryResult> result = pipeline->Query(request);
      StatusOr<core::Annotation> annotation = pipeline->annotator().Annotate(
          c.tokens, *c.table, pipeline->registry().EntryFor(*c.table));
      if (result.ok() != annotation.ok()) {
        std::printf("SMOKE FAIL: Query and the annotator disagree on "
                    "status for: %s\n",
                    question.c_str());
        return 1;
      }
      if (!annotation.ok()) {
        ++skipped;
        std::printf("[smoke] skipped, annotation failed on both sides (%s): "
                    "%s\n",
                    annotation.status().ToString().c_str(), question.c_str());
        continue;
      }
      const std::vector<std::string> annotated =
          core::BuildAnnotatedQuestion(c.tokens, *annotation,
                                       c.table->schema(),
                                       pipeline->annotation_options());
      StatusOr<core::Seq2SeqTranslator::Decoded> decoded =
          pipeline->translator().Decode(annotated);
      if (!decoded.ok() || result->annotated_question != annotated ||
          result->annotated_sql != decoded->tokens ||
          result->translate_score != decoded->score) {
        std::printf("SMOKE FAIL: Query != annotator + build_qa + decode "
                    "for: %s\n",
                    question.c_str());
        return 1;
      }
      ++checked;
    }
    // The full run records the flatness ratio in BENCH_schema.json;
    // smoke uses a loose bound that still catches an accidental
    // O(registry) term without flaking on a noisy CI box.
    if (checked == 0 || flat_ratio > 2.0 || routed_computes != 0) {
      std::printf("SMOKE FAIL: checked=%d flat_ratio=%.3f "
                  "routed stats computes=%lld\n",
                  checked, flat_ratio,
                  static_cast<long long>(routed_computes));
      return 1;
    }
    std::printf("smoke OK: %d of %zu questions (%zu test split + %zu pool + "
                "%zu wide) Query == annotator + build_qa + decode, "
                "%d skipped, flat ratio %.3f, 0 stats computes on routed "
                "runs\n",
                checked, corpus.size(), env.splits.test.examples.size(),
                pool.examples.size(), wide.size() * wide_questions.size(),
                skipped, flat_ratio);
    return 0;
  }

  if (!json.Save(SchemaJsonPath())) {
    std::printf("cannot write %s\n", SchemaJsonPath());
    return 1;
  }
  std::printf("wrote %s (%zu keys)\n", SchemaJsonPath(), json.size());
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

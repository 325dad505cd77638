// Reproduces the Sec. VII-A1 mention-detection comparison: accuracy of
// canonical ($COND_COL, $COND_VAL) matches between synthesized and gold
// SQL — ours (annotation + resolution + seq2seq) vs the TypeSQL-style
// sketch slot filler. Paper: ours 91.8% vs TypeSQL 87.9%.
//
// Also reports span-level column mention precision/recall of the
// annotator itself.

// In addition to the accuracy table, the binary measures end-to-end
// Annotate latency as the schema widens. Results merge into
// BENCH_substrate.json.

#include "bench/bench_util.h"

#include <chrono>
#include <set>

#include "baselines/sketch_slot_filler.h"
#include "bench/bench_json.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace bench {
namespace {

float CondColValAccuracy(const data::Dataset& dataset,
                         const eval::TranslateFn& translate) {
  if (dataset.examples.empty()) return 0.0f;
  int ok = 0;
  for (const data::Example& ex : dataset.examples) {
    auto predicted = translate(ex);
    if (!predicted.ok()) continue;
    auto key_set = [](const sql::SelectQuery& q) {
      std::set<std::string> keys;
      for (const auto& c : q.conditions) {
        keys.insert(std::to_string(c.column) + "|" +
                    ToLower(c.value.ToString()));
      }
      return keys;
    };
    ok += key_set(*predicted) == key_set(ex.query);
  }
  return static_cast<float>(ok) / dataset.examples.size();
}

// Repeats `fn` until ~300 ms elapsed (at least 5 iterations); ns/call.
template <typename Fn>
double TimeNs(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warmup
  int iters = 0;
  const auto start = Clock::now();
  double elapsed_ns = 0.0;
  do {
    fn();
    ++iters;
    elapsed_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  } while (elapsed_ns < 3e8 || iters < 5);
  return elapsed_ns / iters;
}

sql::Table MakeWideTable(int width) {
  static const char* kNames[] = {
      "race",          "winning_driver", "points",       "season_year",
      "home_team",     "away_team",      "film_name",    "director_name",
      "album_title",   "artist_name",    "release_year", "track_length",
      "city_name",     "country_name",   "population",   "player_name",
      "team_name",     "games_played",   "goal_count",   "match_date"};
  std::vector<sql::ColumnDef> cols;
  for (int i = 0; i < width; ++i) {
    cols.push_back({kNames[i], sql::DataType::kText});
  }
  sql::Table table("bench_wide", sql::Schema(std::move(cols)));
  for (int r = 0; r < 5; ++r) {
    std::vector<sql::Value> row;
    for (int i = 0; i < width; ++i) {
      row.push_back(sql::Value::Text("cell " + std::to_string(r * width + i)));
    }
    (void)table.AddRow(std::move(row));
  }
  return table;
}

// Annotate latency vs schema width.
void SubstrateLatencySection(core::NlidbPipeline& pipeline) {
  std::printf("\n--- annotation substrate latency (threads=%d) ---\n",
              ThreadPool::Global().parallelism());
  bench::FlatJson json = bench::FlatJson::Load(bench::SubstrateJsonPath());
  json.Set("annotate_threads", ThreadPool::Global().parallelism());

  const std::vector<std::vector<std::string>> questions = {
      text::Tokenize("who is the winning driver of the monaco race"),
      text::Tokenize("what is the goal count of the home team this season"),
      text::Tokenize("which film name did the director name release"),
  };
  // Distinct live objects: the pipeline's stats cache keys on table
  // address, so reusing one stack slot across widths would collide.
  std::vector<sql::Table> wide_tables;
  for (int width : {5, 10, 20}) wide_tables.push_back(MakeWideTable(width));
  for (const sql::Table& table : wide_tables) {
    const int width = table.num_columns();
    const double ns = TimeNs([&] {
      for (const auto& q : questions) {
        StatusOr<core::Annotation> a = pipeline.Annotate(q, table);
        Status::IgnoreError(a.status());
      }
    }) / questions.size();
    std::printf("annotate end-to-end, %2d columns: %10.0f ns\n", width, ns);
    json.Set("annotate_ns_cols" + std::to_string(width), ns);
  }

  json.Save(bench::SubstrateJsonPath());
  std::printf("merged %s (%zu keys)\n", bench::SubstrateJsonPath(),
              json.size());
}

int Run() {
  PrintHeader(
      "Sec. VII-A1: $COND_COL/$COND_VAL accuracy, ours vs sketch filler");
  BenchEnv env = MakeEnv();
  auto pipeline = TrainPipeline(env);

  std::printf("[train] sketch slot filler (TypeSQL-style)\n");
  baselines::SketchSlotFiller sketch(env.config, env.provider);
  sketch.Train(env.splits.train);

  const float ours = CondColValAccuracy(
      env.splits.test,
      [&](const data::Example& ex) -> StatusOr<sql::SelectQuery> {
        core::QueryRequest request;
        request.schema_ref = core::SchemaRef::Table(ex.table.get());
        request.tokens = ex.tokens;
        request.execute = false;
        request.collect_timings = false;
        StatusOr<core::QueryResult> result = pipeline->Query(request);
        if (!result.ok()) return result.status();
        core::QueryResult out = std::move(result).value();
        if (!out.recovery_status.ok()) return out.recovery_status;
        return std::move(*out.query);
      });
  const float sketch_acc = CondColValAccuracy(
      env.splits.test, [&](const data::Example& ex) {
        return sketch.Translate(ex.tokens, *ex.table);
      });
  std::printf("ours (adversarial annotation): %5.1f%%\n", 100 * ours);
  std::printf("TypeSQL-style sketch filler:   %5.1f%%\n", 100 * sketch_acc);

  eval::MentionReport mentions =
      eval::EvaluateMentions(*pipeline, env.splits.test);
  std::printf(
      "\nannotator span-level column mention detection: P %.1f%% R %.1f%% "
      "F1 %.1f%%\n",
      100 * mentions.span_precision, 100 * mentions.span_recall,
      100 * mentions.span_f1);
  std::printf(
      "\npaper: ours 91.8%% vs TypeSQL 87.9%% on $COND_COL/$COND_VAL.\n"
      "Reproduction target: ours above the sketch baseline.\n");

  SubstrateLatencySection(*pipeline);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace nlidb

int main() { return nlidb::bench::Run(); }

// Reproduces Table II (ablation rows) and Table III (annotation
// recovery) from one set of trained models. Starting from the full
// annotated seq2seq, each variant removes one component — half hidden
// size, column name appending (replaced by symbol substitution), copy
// mechanism, table header encoding. Table II also swaps the GRU seq2seq
// for a transformer.
//
// The annotation stage (classifier, value detector, resolver) is trained
// once and shared: the variants only differ in the translation model or
// the annotated-sequence representation, exactly as in the paper. Each
// variant is trained once and scored for both tables.
//
// Table II expected shape: every ablation row scores below the full
// model. Table III compares exact query-match accuracy BEFORE annotation
// recovery (decoded s^a must equal the gold query rendered under the
// predicted annotation) with AFTER recovery (canonical query match of
// the recovered SQL). Paper finding: "our automatic annotation will not
// hurt the performance; on the contrary, it increases the accuracy".

#include "bench/bench_util.h"

#include "baselines/transformer.h"
#include "core/trainer.h"

namespace nlidb {
namespace bench {
namespace {

eval::AccuracyReport EvalVariant(const core::NlidbPipeline& pipeline,
                                 const core::TranslatorInterface& translator,
                                 const core::AnnotationOptions& options,
                                 const data::Dataset& dataset) {
  return eval::Evaluate(dataset, [&](const data::Example& ex)
                                     -> StatusOr<sql::SelectQuery> {
    StatusOr<core::Annotation> ann = pipeline.Annotate(ex.tokens, *ex.table);
    if (!ann.ok()) return ann.status();
    const auto qa =
        core::BuildAnnotatedQuestion(ex.tokens, *ann, ex.schema(), options);
    const auto sa = translator.Translate(qa);
    return core::RecoverSql(sa, *ann, ex.schema());
  });
}

eval::RecoveryReport EvalVariantRecovery(
    const core::NlidbPipeline& pipeline,
    const core::Seq2SeqTranslator& translator,
    const core::AnnotationOptions& options, const data::Dataset& dataset) {
  eval::RecoveryReport report;
  report.count = static_cast<int>(dataset.examples.size());
  if (report.count == 0) return report;
  int before = 0, after = 0;
  for (const data::Example& ex : dataset.examples) {
    StatusOr<core::Annotation> annotated =
        pipeline.Annotate(ex.tokens, *ex.table);
    if (!annotated.ok()) continue;  // invalid example: neither side scores
    const core::Annotation& ann = *annotated;
    const auto qa =
        core::BuildAnnotatedQuestion(ex.tokens, ann, ex.schema(), options);
    const auto sa = translator.Translate(qa);
    const auto gold_sa =
        core::BuildAnnotatedSql(ex.query, ann, ex.schema(), options);
    before += sa == gold_sa;
    auto recovered = core::RecoverSql(sa, ann, ex.schema());
    after += recovered.ok() &&
             eval::QueryMatch(*recovered, ex.query, ex.schema());
  }
  report.acc_before = static_cast<float>(before) / report.count;
  report.acc_after = static_cast<float>(after) / report.count;
  return report;
}

void PrintRecoveryRow(const char* name, const eval::RecoveryReport& dev,
                      const eval::RecoveryReport& test) {
  std::printf("%-28s | %6.1f%% %6.1f%% | %6.1f%% %6.1f%%\n", name,
              100 * dev.acc_before, 100 * dev.acc_after,
              100 * test.acc_before, 100 * test.acc_after);
}

/// One trained model's scores for both tables.
struct Row {
  const char* name;
  eval::AccuracyReport dev, test;
  eval::RecoveryReport recovery_dev, recovery_test;
};

int Run() {
  PrintHeader(
      "Tables II and III: seq2seq variants, each trained once\n"
      "(the annotation stage is shared by every variant)");
  BenchEnv env = MakeEnv();
  auto pipeline = TrainPipeline(env);

  std::vector<Row> rows;
  rows.push_back({"Annotated Seq2seq (ours)",
                  eval::EvaluatePipeline(*pipeline, env.splits.dev),
                  eval::EvaluatePipeline(*pipeline, env.splits.test),
                  eval::EvaluateRecovery(*pipeline, env.splits.dev),
                  eval::EvaluateRecovery(*pipeline, env.splits.test)});

  struct Variant {
    const char* name;
    core::ModelConfig config;
  };
  std::vector<Variant> variants(4, Variant{nullptr, env.config});
  variants[0].name = "- Half Hidden Size";
  variants[0].config.seq2seq_hidden = env.config.seq2seq_hidden / 2;
  variants[1].name = "- Column Name Appending";
  variants[1].config.column_name_appending = false;  // symbol substitution
  variants[2].name = "- Copy Mechanism";
  variants[2].config.use_copy_mechanism = false;
  variants[3].name = "- Table Header Encoding";
  variants[3].config.table_header_encoding = false;

  for (const Variant& v : variants) {
    std::printf("[train] %s\n", v.name);
    core::AnnotationOptions options;
    options.column_name_appending = v.config.column_name_appending;
    options.table_header_encoding = v.config.table_header_encoding;
    core::Seq2SeqTranslator variant(v.config);
    core::TrainSeq2Seq(variant, env.splits.train, options, v.config);
    rows.push_back(
        {v.name, EvalVariant(*pipeline, variant, options, env.splits.dev),
         EvalVariant(*pipeline, variant, options, env.splits.test),
         EvalVariantRecovery(*pipeline, variant, options, env.splits.dev),
         EvalVariantRecovery(*pipeline, variant, options, env.splits.test)});
  }

  std::printf("[train] - seq2seq + Transformer\n");
  core::AnnotationOptions transformer_options;
  baselines::TransformerTranslator transformer(env.config);
  core::TrainSeq2Seq(transformer, env.splits.train, transformer_options,
                     env.config);
  const eval::AccuracyReport transformer_dev = EvalVariant(
      *pipeline, transformer, transformer_options, env.splits.dev);
  const eval::AccuracyReport transformer_test = EvalVariant(
      *pipeline, transformer, transformer_options, env.splits.test);

  std::printf("\n");
  PrintHeader(
      "Table II (ablation rows): removing components of the full model\n"
      "columns: dev Acc_lf Acc_qm Acc_ex | test Acc_lf Acc_qm Acc_ex");
  for (const Row& row : rows) PrintAccuracyRow(row.name, row.dev, row.test);
  PrintAccuracyRow("- seq2seq + Transformer", transformer_dev,
                   transformer_test);
  std::printf(
      "\npaper Table II: each ablation drops 0.6-1.2 points below the full\n"
      "model's 75.6%% test Acc_qm; the transformer swap drops ~6 points.\n"
      "Reproduction target: full model on top, transformer lowest.\n\n");

  PrintHeader(
      "Table III: Acc_qm before vs after annotation recovery\n"
      "columns: dev before after | test before after");
  for (const Row& row : rows) {
    PrintRecoveryRow(row.name, row.recovery_dev, row.recovery_test);
  }
  std::printf(
      "\npaper Table III test: 75.0%% before -> 75.6%% after for the full\n"
      "model. Reproduction target: after-recovery accuracy tracks the\n"
      "before-recovery accuracy closely for every variant.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace nlidb

int main() { return nlidb::bench::Run(); }

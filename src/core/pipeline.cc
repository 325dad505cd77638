#include "core/pipeline.h"

#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/annotation.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace core {

NlidbPipeline::NlidbPipeline(const ModelConfig& config,
                             std::shared_ptr<text::EmbeddingProvider> provider)
    : config_(config), provider_(std::move(provider)) {
  NLIDB_CHECK(provider_ != nullptr) << "pipeline needs an embedding provider";
  // Arms NLIDB_FAILPOINTS (once per process), so every binary that builds
  // a pipeline runs under a requested fault schedule, not only the ones
  // that write or load files.
  failpoint::InitFromEnv();
  classifier_ = std::make_unique<ColumnMentionClassifier>(config_, *provider_);
  value_detector_ = std::make_unique<ValueDetector>(config_, *provider_);
  translator_ = std::make_unique<Seq2SeqTranslator>(config_);
  annotator_ = std::make_unique<Annotator>(config_, *provider_,
                                           classifier_.get(),
                                           value_detector_.get());
  registry_ = std::make_unique<schema::SchemaRegistry>(provider_);
}

AnnotationOptions NlidbPipeline::annotation_options() const {
  AnnotationOptions options;
  options.column_name_appending = config_.column_name_appending;
  options.table_header_encoding = config_.table_header_encoding;
  return options;
}

TrainReport NlidbPipeline::Train(const data::Dataset& train) {
  TrainReport report;
  NLIDB_LOG(Info) << "training column mention classifier on "
                  << train.examples.size() << " examples";
  report.classifier_loss = TrainColumnMentionClassifier(
      *classifier_, train, config_, &report.classifier_pairs);
  NLIDB_LOG(Info) << "training value detector";
  report.value_loss = TrainValueDetector(*value_detector_, train,
                                         *registry_, config_,
                                         &report.value_pairs);
  NLIDB_LOG(Info) << "training seq2seq translator";
  report.seq2seq_loss = TrainSeq2Seq(*translator_, train,
                                     annotation_options(), config_,
                                     &report.seq2seq_pairs);
  return report;
}

TrainReport NlidbPipeline::Train(const data::Dataset& train,
                                 const data::Dataset& augmentation) {
  if (augmentation.examples.empty()) return Train(train);
  return Train(AugmentDataset(train, augmentation));
}

NlidbPipeline::TrainableComponents NlidbPipeline::MutableForTraining() {
  return TrainableComponents{classifier_.get(), value_detector_.get(),
                             translator_.get()};
}

StatusOr<Annotation> NlidbPipeline::Annotate(
    const std::vector<std::string>& tokens, const sql::Table& table) const {
  if (tokens.empty()) {
    return Status::InvalidArgument("empty question");
  }
  if (table.num_columns() == 0) {
    return Status::InvalidArgument("table has no columns");
  }
  return AnnotateAgainst(tokens, table, /*ctx=*/nullptr);
}

StatusOr<Annotation> NlidbPipeline::AnnotateAgainst(
    const std::vector<std::string>& tokens, const sql::Table& table,
    const CancelContext* ctx) const {
  return annotator_->Annotate(tokens, table, registry_->EntryFor(table),
                              metadata_, ctx);
}

StatusOr<QueryResult> NlidbPipeline::Query(const QueryRequest& request) const {
  static metrics::Counter& queries =
      metrics::MetricsRegistry::Global().GetCounter("pipeline.queries");
  static metrics::Counter& recovery_failures =
      metrics::MetricsRegistry::Global().GetCounter(
          "pipeline.recovery_failures");
  static metrics::Counter& execution_failures =
      metrics::MetricsRegistry::Global().GetCounter(
          "pipeline.execution_failures");
  static metrics::Counter& deadline_exceeded =
      metrics::MetricsRegistry::Global().GetCounter(
          "pipeline.deadline_exceeded");

  trace::TraceSpan span("pipeline.query");
  queries.Increment();
  const schema::SchemaRef& ref = request.schema_ref;
  if (ref.unset()) {
    return Status::InvalidArgument(
        "QueryRequest has no schema reference: set schema_ref");
  }
  if (ref.kind() == schema::SchemaRef::Kind::kTable &&
      ref.table() == nullptr) {
    return Status::InvalidArgument("SchemaRef::Table is null");
  }

  QueryResult result;
  const CancelContext ctx{request.deadline, request.cancel};
  // Each stage span appends its own timing to the tree when it closes.
  StageTiming* const tree =
      request.collect_timings ? &result.stages : nullptr;
  if (tree != nullptr) tree->name = "query";
  // Mid-flight failure path: the stages completed so far (with the total
  // wall time up to the failure) are handed to the caller through
  // `request.partial_result`, so a timed-out query still shows where
  // its budget went. A stage that fails is still open here, so it is
  // left out of the tree.
  auto fail = [&](const Status& status) {
    if (status.code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded.Increment();
    }
    if (request.partial_result != nullptr) {
      if (tree != nullptr) tree->wall_ns = span.End();
      *request.partial_result = std::move(result);
    }
    return status;
  };

  {
    trace::TraceSpan stage("pipeline.tokenize", tree);
    result.tokens = request.tokens.empty() ? text::Tokenize(request.question)
                                           : request.tokens;
  }
  if (result.tokens.empty()) {
    return fail(Status::InvalidArgument("empty question"));
  }
  span.Annotate("num_tokens", static_cast<int64_t>(result.tokens.size()));
  {
    Status s = ctx.Check("pipeline.tokenize");
    if (!s.ok()) return fail(s);
  }

  // Schema resolution: ref -> concrete table. After tokenize because
  // Route() refs rank registered tables against the question tokens;
  // direct refs resolve in constant time. Always emitted so the stage
  // tree has a fixed shape.
  const sql::Table* resolved = nullptr;
  {
    trace::TraceSpan stage("pipeline.resolve", tree);
    StatusOr<schema::Resolution> resolution =
        registry_->Resolve(ref, result.tokens);
    if (!resolution.ok()) return fail(resolution.status());
    resolved = resolution->table;
    result.table_id = resolution->id;
    result.table_name = resolved->name();
    result.routing = std::move(resolution->candidates);
    stage.Annotate("table", result.table_name);
  }
  const sql::Table& table = *resolved;
  if (table.num_columns() == 0) {
    return fail(Status::InvalidArgument("table has no columns"));
  }
  span.Annotate("num_columns", static_cast<int64_t>(table.num_columns()));

  {
    // The stats lookup (inside AnnotateAgainst) is charged to the
    // annotate stage: it is part of the per-question cost of column
    // scoring, which is exactly what the scale bench's "annotate flat vs
    // registry size" check must observe.
    trace::TraceSpan stage("pipeline.annotate", tree);
    StatusOr<Annotation> annotation =
        AnnotateAgainst(result.tokens, table, &ctx);
    if (!annotation.ok()) return fail(annotation.status());
    result.annotation = std::move(annotation).value();
  }

  {
    trace::TraceSpan stage("pipeline.build_qa", tree);
    result.annotated_question = BuildAnnotatedQuestion(
        result.tokens, result.annotation, table.schema(),
        annotation_options());
  }
  {
    Status s = ctx.Check("pipeline.build_qa");
    if (!s.ok()) return fail(s);
  }

  {
    trace::TraceSpan stage("pipeline.translate", tree);
    StatusOr<Seq2SeqTranslator::Decoded> decoded =
        translator_->Decode(result.annotated_question, &ctx);
    if (!decoded.ok()) return fail(decoded.status());
    result.annotated_sql = std::move(decoded->tokens);
    result.translate_score = decoded->score;
  }

  {
    trace::TraceSpan stage("pipeline.recover", tree);
    StatusOr<sql::SelectQuery> recovered =
        RecoverSql(result.annotated_sql, result.annotation, table.schema());
    if (recovered.ok()) {
      result.query = std::move(recovered).value();
    } else {
      result.recovery_status = recovered.status();
      recovery_failures.Increment();
    }
  }

  if (request.execute && result.query.has_value()) {
    trace::TraceSpan stage("pipeline.execute", tree);
    StatusOr<std::vector<sql::Value>> rows = sql::Execute(*result.query, table);
    if (rows.ok()) {
      result.rows = std::move(rows).value();
    } else {
      result.execution_status = rows.status();
      execution_failures.Increment();
    }
  }

  span.Annotate("recovered", static_cast<int64_t>(result.query.has_value()));
  if (tree != nullptr) tree->wall_ns = span.End();
  return result;
}

}  // namespace core
}  // namespace nlidb

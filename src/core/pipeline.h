#ifndef NLIDB_CORE_PIPELINE_H_
#define NLIDB_CORE_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/annotator.h"
#include "core/trainer.h"
#include "schema/registry.h"
#include "schema/schema_ref.h"
#include "sql/executor.h"

namespace nlidb {
namespace core {

struct QueryResult;

/// Re-exported so callers constructing requests write
/// `core::SchemaRef::Name("films")` without reaching into the schema
/// namespace.
using SchemaRef = ::nlidb::schema::SchemaRef;

/// Input to `NlidbPipeline::Query`. Exactly one of `question` /
/// `tokens` should be set; a non-empty `tokens` wins and skips the
/// tokenizer stage.
struct QueryRequest {
  /// Which table the question runs against, resolved through the
  /// pipeline's schema registry: an ad-hoc `SchemaRef::Table(&t)`, a
  /// registered `SchemaRef::Name("films")` / `SchemaRef::Id(id)`, or
  /// `SchemaRef::Route()` to let the registry's router pick the table
  /// from the question itself.
  schema::SchemaRef schema_ref;

  std::string question;             // raw NL question (tokenized here)
  std::vector<std::string> tokens;  // pre-tokenized question

  /// Run the recovered SQL against the resolved table and fill
  /// `QueryResult::rows`.
  bool execute = true;

  /// Build the `QueryResult::stages` tree. The stage spans time every
  /// request and feed their `pipeline.<stage>_ns` histograms either
  /// way; this only decides whether their timings are also copied into
  /// the result (a few small allocations per request).
  bool collect_timings = true;

  /// Optional deadline. Polled at stage boundaries and inside the
  /// expensive inner loops (decode steps, value-span scan, influence
  /// probes); expiry makes Query return DeadlineExceeded instead of
  /// running to completion — never an abort.
  Deadline deadline;

  /// Optional external cancellation; flip from any thread to stop the
  /// query at its next poll point (same return as an expired deadline).
  const std::atomic<bool>* cancel = nullptr;

  /// When set and Query fails mid-flight (deadline, cancellation, stage
  /// error), receives everything produced so far — in particular the
  /// completed entries of `QueryResult::stages` — so callers can see
  /// where the time went even for a query that did not finish.
  QueryResult* partial_result = nullptr;
};

/// Per-stage wall times of one request, rooted at the "query" node and
/// filled by the stage spans themselves (see trace::TraceSpan).
using StageTiming = trace::StageTiming;

/// Everything one pipeline pass produces. Intermediate artifacts
/// (annotation, q^a, s^a) are first-class: per-stage inspection is how
/// Seq2SQL-class systems are debugged and evaluated, so the API keeps
/// them instead of discarding them on the way to the SQL.
struct QueryResult {
  std::vector<std::string> tokens;              // post-tokenizer question

  /// Which table the request resolved to. `table_id` is the registry
  /// handle (kInvalidTableId for ad-hoc unregistered tables); for
  /// routed requests `routing` carries the ranked candidate list the
  /// winner was drawn from, so callers can surface alternatives.
  std::string table_name;
  schema::TableId table_id = schema::kInvalidTableId;
  std::vector<schema::RouteCandidate> routing;

  Annotation annotation;                        // step 1 output
  std::vector<std::string> annotated_question;  // q^a fed to the seq2seq
  std::vector<std::string> annotated_sql;       // decoded s^a

  /// Length-normalized log-probability of the winning decode hypothesis.
  /// Exposed so differential harnesses can compare serving and
  /// sequential paths bit-for-bit, not just token-for-token.
  float translate_score = 0.0f;

  /// Step 3: recovered SQL. Unset iff `recovery_status` is an error
  /// (the decoder emitted an unrecoverable token stream).
  std::optional<sql::SelectQuery> query;
  Status recovery_status = Status::Ok();

  /// Execution result; unset when `request.execute` was false, recovery
  /// failed, or execution itself failed (see `execution_status`).
  std::optional<std::vector<sql::Value>> rows;
  Status execution_status = Status::Ok();

  /// Graceful-degradation flags (in-band: a degraded answer is still an
  /// answer, but callers can tell it was produced by a fallback path).
  /// Dependency parse failed -> mention resolution used linear token
  /// distance; beam search exhausted -> the greedy decode produced s^a.
  bool degraded_linear_resolution = false;
  bool degraded_greedy_decode = false;

  /// Per-stage wall times ("query" root; children: tokenize, resolve,
  /// annotate, build_qa, translate, recover, execute). Empty when
  /// `request.collect_timings` was false.
  StageTiming stages;
};

/// The end-to-end transfer-learnable NLIDB (the paper's full system):
///
///   question --(1. annotate: classifier + adversarial locator + value
///   detector + dependency resolver)--> q^a --(2. seq2seq with copy)-->
///   s^a --(3. deterministic recovery)--> SQL --(4. executor)--> rows.
///
/// Train once on a corpus; `Query` then works against any table,
/// including tables from domains never seen in training (the
/// transfer-learnability claim evaluated in Table IV).
class NlidbPipeline {
 public:
  NlidbPipeline(const ModelConfig& config,
                std::shared_ptr<text::EmbeddingProvider> provider);

  NlidbPipeline(const NlidbPipeline&) = delete;
  NlidbPipeline& operator=(const NlidbPipeline&) = delete;

  /// Trains all three learned components on `train`.
  TrainReport Train(const data::Dataset& train);

  /// Trains on `train` plus an augmentation corpus (adversarial
  /// mutants, hard buckets from attack triage). Equivalent to Train on
  /// AugmentDataset(train, augmentation); the overload is the hardening
  /// loop's entry point.
  TrainReport Train(const data::Dataset& train,
                    const data::Dataset& augmentation);

  /// The pipeline entry point. Returns an error for an invalid request
  /// (unresolvable schema_ref, empty question, zero-column table) or
  /// when the request's deadline expires / it is cancelled
  /// (DeadlineExceeded; the stages
  /// completed so far land in `request.partial_result` when set).
  /// Downstream model failures (unrecoverable s^a, execution errors)
  /// come back inside the result so callers still see every intermediate
  /// stage, and degraded fallback paths are flagged on the result rather
  /// than erroring.
  StatusOr<QueryResult> Query(const QueryRequest& request) const;

  /// Step 1 only: q -> annotation. Fails on empty input or a
  /// zero-column table instead of annotating garbage.
  StatusOr<Annotation> Annotate(const std::vector<std::string>& tokens,
                                const sql::Table& table) const;

  const ModelConfig& config() const { return config_; }
  AnnotationOptions annotation_options() const;
  const text::EmbeddingProvider& provider() const { return *provider_; }
  const ColumnMentionClassifier& classifier() const { return *classifier_; }
  const ValueDetector& value_detector() const { return *value_detector_; }
  const Seq2SeqTranslator& translator() const { return *translator_; }
  const Annotator& annotator() const { return *annotator_; }

  /// The schema-resolution subsystem: registered tables, the content-
  /// keyed column statistics and routing. The const
  /// accessor is all inference needs; `mutable_registry()` exists for
  /// setup (registering tables).
  const schema::SchemaRegistry& registry() const { return *registry_; }
  schema::SchemaRegistry& mutable_registry() { return *registry_; }

  /// Mutable access to the learned components, for training and
  /// checkpoint loading only. Inference paths use the const accessors;
  /// the loud name makes any other use visible in review.
  struct TrainableComponents {
    ColumnMentionClassifier* classifier;
    ValueDetector* value_detector;
    Seq2SeqTranslator* translator;
  };
  TrainableComponents MutableForTraining();

  /// Optional database-specific NL metadata used at annotation time.
  void set_metadata(const NlMetadata* metadata) { metadata_ = metadata; }

 private:
  /// The one annotate path behind `Annotate` and `Query`: stats lookup,
  /// then the annotator over every column, polling `ctx` and filling
  /// `debug` (both optional).
  StatusOr<Annotation> AnnotateAgainst(const std::vector<std::string>& tokens,
                                       const sql::Table& table,
                                       const CancelContext* ctx,
                                       Annotator::AnnotateDebug* debug) const;

  ModelConfig config_;
  std::shared_ptr<text::EmbeddingProvider> provider_;
  std::unique_ptr<ColumnMentionClassifier> classifier_;
  std::unique_ptr<ValueDetector> value_detector_;
  std::unique_ptr<Seq2SeqTranslator> translator_;
  std::unique_ptr<Annotator> annotator_;
  std::unique_ptr<schema::SchemaRegistry> registry_;
  const NlMetadata* metadata_ = nullptr;
};

}  // namespace core
}  // namespace nlidb

#endif  // NLIDB_CORE_PIPELINE_H_

#ifndef NLIDB_ATTACK_TRIAGE_H_
#define NLIDB_ATTACK_TRIAGE_H_

// Stage-bucketed failure triage for adversarial traffic.
//
// Every (gold example, serving outcome) pair is classified into exactly
// one FailStage using the QueryResult's per-stage artifacts, and the
// buckets accumulate into a per-mutator × per-stage accuracy-under-attack
// matrix — the unit BENCH_attack.json commits and the hardening loop
// consumes.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "data/example.h"
#include "attack/mutator.h"

namespace nlidb {
namespace attack {

/// Where a query died (or kOk when its answer survived the attack).
/// Buckets are mutually exclusive; TriageOutcome assigns exactly one.
enum class FailStage : int {
  kOk = 0,           // query match or execution match against the gold
  kMentionMiss,      // predicted condition (column, value) set is wrong
  kTranslateError,   // conditions right, select/agg decoded wrong
  kRecoveryError,    // decoder emitted an unrecoverable s^a
  kExecutionMismatch,// right conditions, executor failed on the result
  kOtherError,       // the query returned an error status
  kCount,
};

inline constexpr int kNumStages = static_cast<int>(FailStage::kCount);

const char* StageName(FailStage stage);

/// Buckets one outcome. `status` is what pipeline.Query returned;
/// `result` is only consulted when it is ok.
/// The gold example must be the mutant the query was built from — its
/// query/table are the reference the prediction is scored against.
FailStage TriageOutcome(const data::Example& gold, const Status& status,
                        const core::QueryResult& result);

/// Per-mutator × per-stage outcome counts.
struct AttackMatrix {
  /// counts[mutator][stage].
  uint64_t counts[kNumMutators][kNumStages] = {};

  void Add(MutatorKind kind, FailStage stage) {
    ++counts[static_cast<int>(kind)][static_cast<int>(stage)];
  }

  uint64_t RowTotal(int row) const;

  /// Queries that produced an answer: everything except status-level
  /// failures, which say nothing about the models.
  uint64_t RowAnswered(int row) const;

  /// Accuracy under attack: kOk / answered for one mutator row.
  /// Returns -1 when the row has no answered queries.
  double RowAccuracy(int row) const;
  double Accuracy(MutatorKind kind) const {
    return RowAccuracy(static_cast<int>(kind));
  }

  /// The mutator row with the lowest accuracy among rows with at least
  /// `min_samples` answered queries; -1 when none qualifies. This is the
  /// bucket the hardening loop retrains on.
  int WorstRow(uint64_t min_samples = 1) const;

  /// Fixed-width table (rows = mutators, columns = stages).
  std::string Render() const;
};

}  // namespace attack
}  // namespace nlidb

#endif  // NLIDB_ATTACK_TRIAGE_H_

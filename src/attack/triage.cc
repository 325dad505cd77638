#include "attack/triage.h"

#include <algorithm>
#include <cstdio>

#include "common/strings.h"
#include "eval/metrics.h"

namespace nlidb {
namespace attack {

namespace {

/// Order-free comparison key for one condition: the canonical triple the
/// mention-detection stage is responsible for producing.
std::string CondKey(const sql::Condition& cond) {
  return std::to_string(cond.column) + "|" + sql::CondOpName(cond.op) + "|" +
         ToLower(cond.value.ToString());
}

bool ConditionsMatch(const sql::SelectQuery& predicted,
                     const sql::SelectQuery& gold) {
  if (predicted.conditions.size() != gold.conditions.size()) return false;
  std::vector<std::string> a, b;
  for (const auto& c : predicted.conditions) a.push_back(CondKey(c));
  for (const auto& c : gold.conditions) b.push_back(CondKey(c));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

const char* StageName(FailStage stage) {
  switch (stage) {
    case FailStage::kOk:
      return "ok";
    case FailStage::kMentionMiss:
      return "mention_miss";
    case FailStage::kTranslateError:
      return "translate_error";
    case FailStage::kRecoveryError:
      return "recovery_error";
    case FailStage::kExecutionMismatch:
      return "execution_mismatch";
    case FailStage::kOtherError:
      return "other_error";
    case FailStage::kCount:
      break;
  }
  return "?";
}

FailStage TriageOutcome(const data::Example& gold, const Status& status,
                        const core::QueryResult& result) {
  if (!status.ok()) return FailStage::kOtherError;
  if (!result.recovery_status.ok() || !result.query.has_value()) {
    return FailStage::kRecoveryError;
  }
  const sql::SelectQuery& predicted = *result.query;
  if (eval::QueryMatch(predicted, gold.query, gold.schema())) {
    return FailStage::kOk;
  }
  if (!ConditionsMatch(predicted, gold.query)) {
    return FailStage::kMentionMiss;
  }
  if (gold.table != nullptr &&
      eval::ExecutionMatch(predicted, gold.query, *gold.table)) {
    return FailStage::kOk;
  }
  if (!result.execution_status.ok()) {
    return FailStage::kExecutionMismatch;
  }
  return FailStage::kTranslateError;
}

uint64_t AttackMatrix::RowTotal(int row) const {
  uint64_t total = 0;
  for (int s = 0; s < kNumStages; ++s) total += counts[row][s];
  return total;
}

uint64_t AttackMatrix::RowAnswered(int row) const {
  return RowTotal(row) - counts[row][static_cast<int>(FailStage::kOtherError)];
}

double AttackMatrix::RowAccuracy(int row) const {
  const uint64_t answered = RowAnswered(row);
  if (answered == 0) return -1.0;
  return static_cast<double>(counts[row][static_cast<int>(FailStage::kOk)]) /
         static_cast<double>(answered);
}

int AttackMatrix::WorstRow(uint64_t min_samples) const {
  int worst = -1;
  double worst_acc = 2.0;
  for (int r = 0; r < kNumMutators; ++r) {
    if (RowAnswered(r) < min_samples) continue;
    const double acc = RowAccuracy(r);
    if (acc >= 0.0 && acc < worst_acc) {
      worst_acc = acc;
      worst = r;
    }
  }
  return worst;
}

std::string AttackMatrix::Render() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-22s", "mutator");
  out += line;
  for (int s = 0; s < kNumStages; ++s) {
    std::snprintf(line, sizeof(line), " %18s",
                  StageName(static_cast<FailStage>(s)));
    out += line;
  }
  out += "   acc_attack\n";
  for (int r = 0; r < kNumMutators; ++r) {
    if (RowTotal(r) == 0) continue;
    std::snprintf(line, sizeof(line), "%-22s",
                  MutatorName(static_cast<MutatorKind>(r)));
    out += line;
    for (int s = 0; s < kNumStages; ++s) {
      std::snprintf(line, sizeof(line), " %18llu",
                    static_cast<unsigned long long>(counts[r][s]));
      out += line;
    }
    const double acc = RowAccuracy(r);
    if (acc < 0.0) {
      out += "          n/a\n";
    } else {
      std::snprintf(line, sizeof(line), "       %6.2f%%\n", 100.0 * acc);
      out += line;
    }
  }
  return out;
}

}  // namespace attack
}  // namespace nlidb

// Triage-layer tests: TriageOutcome must land every (status, result)
// combination in exactly one FailStage, and the AttackMatrix accounting
// (answered/accuracy/worst-row/render) must be exact — the
// hardening loop and bench_attack both consume these numbers.

#include "attack/triage.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/status.h"
#include "sql/table.h"
#include "sql/value.h"

namespace nlidb {
namespace attack {
namespace {

/// A three-column table where `name` and `alias` hold identical values,
/// so a select-column confusion between them is execution-equivalent.
std::shared_ptr<const sql::Table> MakeTable() {
  sql::Schema schema({{"name", sql::DataType::kText},
                      {"alias", sql::DataType::kText},
                      {"age", sql::DataType::kReal}});
  auto table = std::make_shared<sql::Table>("people", schema);
  auto add = [&](const char* n, double age) {
    EXPECT_TRUE(table
                    ->AddRow({sql::Value::Text(n), sql::Value::Text(n),
                              sql::Value::Real(age)})
                    .ok());
  };
  add("ann", 30);
  add("bob", 30);
  add("cara", 41);
  return table;
}

class TriageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gold_.table = MakeTable();
    // SELECT name WHERE age = 30
    gold_.query.select_column = 0;
    gold_.query.conditions.push_back(
        {2, sql::CondOp::kEq, sql::Value::Real(30)});
  }

  core::QueryResult ResultWith(const sql::SelectQuery& query) const {
    core::QueryResult result;
    result.query = query;
    return result;
  }

  data::Example gold_;
};

TEST_F(TriageTest, StatusLevelFailuresAreOtherError) {
  const core::QueryResult empty;
  EXPECT_EQ(TriageOutcome(gold_,
                          Status(StatusCode::kDeadlineExceeded, "late"),
                          empty),
            FailStage::kOtherError);
  EXPECT_EQ(TriageOutcome(gold_, Status::Internal("boom"), empty),
            FailStage::kOtherError);
}

TEST_F(TriageTest, RecoveryFailureBuckets) {
  core::QueryResult result;
  result.recovery_status = Status::ParseError("unrecoverable s^a");
  EXPECT_EQ(TriageOutcome(gold_, Status::Ok(), result),
            FailStage::kRecoveryError);

  // No recovered query at all (even with an ok status) is the same bucket.
  core::QueryResult no_query;
  EXPECT_EQ(TriageOutcome(gold_, Status::Ok(), no_query),
            FailStage::kRecoveryError);
}

TEST_F(TriageTest, ExactAndCanonicalMatchesAreOk) {
  EXPECT_EQ(TriageOutcome(gold_, Status::Ok(), ResultWith(gold_.query)),
            FailStage::kOk);

  // Query match is canonical: a reordered-but-equal condition list and
  // the same select still counts as kOk.
  sql::SelectQuery reordered = gold_.query;
  reordered.conditions.push_back({0, sql::CondOp::kEq,
                                  sql::Value::Text("ann")});
  sql::SelectQuery gold2 = gold_.query;
  gold2.conditions.insert(gold2.conditions.begin(),
                          {0, sql::CondOp::kEq, sql::Value::Text("ann")});
  data::Example gold = gold_;
  gold.query = gold2;
  EXPECT_EQ(TriageOutcome(gold, Status::Ok(), ResultWith(reordered)),
            FailStage::kOk);
}

TEST_F(TriageTest, WrongConditionsAreMentionMiss) {
  sql::SelectQuery wrong_value = gold_.query;
  wrong_value.conditions[0].value = sql::Value::Real(41);
  EXPECT_EQ(TriageOutcome(gold_, Status::Ok(), ResultWith(wrong_value)),
            FailStage::kMentionMiss);

  sql::SelectQuery wrong_column = gold_.query;
  wrong_column.conditions[0].column = 0;
  wrong_column.conditions[0].value = sql::Value::Text("ann");
  EXPECT_EQ(TriageOutcome(gold_, Status::Ok(), ResultWith(wrong_column)),
            FailStage::kMentionMiss);

  sql::SelectQuery extra = gold_.query;
  extra.conditions.push_back({0, sql::CondOp::kEq, sql::Value::Text("ann")});
  EXPECT_EQ(TriageOutcome(gold_, Status::Ok(), ResultWith(extra)),
            FailStage::kMentionMiss);
}

TEST_F(TriageTest, ExecutionEquivalentSelectIsOk) {
  // Conditions right, select decoded onto the alias column that holds
  // identical values: not a query match, but an execution match.
  sql::SelectQuery alias_select = gold_.query;
  alias_select.select_column = 1;
  EXPECT_EQ(TriageOutcome(gold_, Status::Ok(), ResultWith(alias_select)),
            FailStage::kOk);
}

TEST_F(TriageTest, WrongSelectIsTranslateError) {
  // Conditions right, select decoded onto a value-differing column:
  // neither query match nor execution match, execution itself fine.
  sql::SelectQuery wrong_select = gold_.query;
  wrong_select.select_column = 2;
  EXPECT_EQ(TriageOutcome(gold_, Status::Ok(), ResultWith(wrong_select)),
            FailStage::kTranslateError);
}

TEST_F(TriageTest, ExecutionFailureBucketsAsExecutionMismatch) {
  // Conditions right but the predicted query cannot execute (SUM over a
  // text column): execution cannot vouch for the answer and the result
  // records the executor error.
  sql::SelectQuery broken = gold_.query;
  broken.agg = sql::Aggregate::kSum;
  core::QueryResult result = ResultWith(broken);
  result.execution_status = Status::OutOfRange("bad column");
  EXPECT_EQ(TriageOutcome(gold_, Status::Ok(), result),
            FailStage::kExecutionMismatch);
}

TEST(AttackMatrixTest, AccountingIsExact) {
  AttackMatrix m;
  m.Add(MutatorKind::kSynonymSwap, FailStage::kOk);
  m.Add(MutatorKind::kSynonymSwap, FailStage::kOk);
  m.Add(MutatorKind::kSynonymSwap, FailStage::kMentionMiss);
  m.Add(MutatorKind::kSynonymSwap, FailStage::kOtherError);
  m.Add(MutatorKind::kTokenDrop, FailStage::kOk);
  m.Add(MutatorKind::kTokenDrop, FailStage::kMentionMiss);
  m.Add(MutatorKind::kTokenDrop, FailStage::kMentionMiss);
  m.Add(MutatorKind::kTokenDrop, FailStage::kOtherError);

  const int swap = static_cast<int>(MutatorKind::kSynonymSwap);
  const int drop = static_cast<int>(MutatorKind::kTokenDrop);
  EXPECT_EQ(m.RowTotal(swap), 4u);
  // Status-level failures say nothing about the models: excluded from
  // answered.
  EXPECT_EQ(m.RowAnswered(swap), 3u);
  EXPECT_DOUBLE_EQ(m.RowAccuracy(swap), 2.0 / 3.0);
  EXPECT_EQ(m.RowAnswered(drop), 3u);
  EXPECT_DOUBLE_EQ(m.Accuracy(MutatorKind::kTokenDrop), 1.0 / 3.0);

  // Empty rows have no accuracy.
  EXPECT_LT(m.RowAccuracy(static_cast<int>(MutatorKind::kTypoCasing)), 0.0);

  // token_drop (33%) is worse than synonym_swap (67%).
  EXPECT_EQ(m.WorstRow(), drop);
  // With a floor above both rows' samples nothing qualifies.
  EXPECT_EQ(m.WorstRow(100), -1);
}

TEST(AttackMatrixTest, RenderNamesRowsByMutator) {
  AttackMatrix m;
  m.Add(MutatorKind::kFillerNoise, FailStage::kOk);
  const std::string table = m.Render();
  EXPECT_NE(table.find("filler_noise"), std::string::npos);
  EXPECT_NE(table.find("100.00%"), std::string::npos);
  // Untouched rows are elided.
  EXPECT_EQ(table.find("typo_casing"), std::string::npos);
}

}  // namespace
}  // namespace attack
}  // namespace nlidb

// Mutation-engine contract tests (DESIGN.md "Adversarial robustness
// architecture"): the determinism guarantee (byte-identical mutant
// streams from the same seed, independent of call order), the
// answer-preservation tagging (preserving mutators never touch the gold
// query; the counterfactual one must), and the span consistency that
// makes a mutant a valid training example.

#include "attack/mutator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/strings.h"
#include "data/generator.h"
#include "sql/executor.h"
#include "sql/query.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace attack {
namespace {

data::Dataset SeedCorpus(uint64_t seed = 91, int tables = 4,
                         int questions = 4) {
  data::GeneratorConfig gc;
  gc.num_tables = tables;
  gc.questions_per_table = questions;
  gc.seed = seed;
  return data::GenerateWikiSqlSplits(gc).train;
}

/// Byte-exact serialization of a mutant stream: every field a consumer
/// could observe (tokens, question, spans, gold SQL, flags).
std::string Fingerprint(const std::vector<Mutant>& mutants) {
  std::string out;
  for (const Mutant& m : mutants) {
    const data::Example& ex = m.example;
    out += MutatorName(m.kind);
    out += '|';
    out += std::to_string(m.source_index);
    out += m.applied ? "|1|" : "|0|";
    out += ex.question;
    out += '|';
    out += sql::CanonicalSql(ex.query, ex.schema());
    out += '|';
    out += std::to_string(ex.select_mention.begin) + ":" +
           std::to_string(ex.select_mention.end);
    for (const data::MentionInfo& mm : ex.where_mentions) {
      out += '|';
      out += std::to_string(mm.column) + "," +
             std::to_string(mm.column_span.begin) + ":" +
             std::to_string(mm.column_span.end) + "," +
             std::to_string(mm.value_span.begin) + ":" +
             std::to_string(mm.value_span.end) + "," +
             (mm.column_explicit ? "e" : "i");
    }
    out += '\n';
  }
  return out;
}

void ExpectSpansConsistent(const Mutant& m) {
  const data::Example& ex = m.example;
  const int n = static_cast<int>(ex.tokens.size());
  auto check_span = [&](const text::Span& s, const char* what) {
    ASSERT_GE(s.begin, 0) << what;
    ASSERT_LE(s.end, n) << what;
    if (!s.empty()) {
      EXPECT_FALSE(text::SpanText(ex.tokens, s).empty()) << what;
    }
  };
  check_span(ex.select_mention, "select_mention");
  ASSERT_EQ(ex.where_mentions.size(), ex.query.conditions.size());
  for (const data::MentionInfo& mm : ex.where_mentions) {
    check_span(mm.column_span, "column_span");
    check_span(mm.value_span, "value_span");
    // An implicit mention must have surrendered its column span.
    if (!mm.column_explicit) {
      EXPECT_TRUE(mm.column_span.empty());
    }
  }
  // The question text is always the joined token stream.
  EXPECT_EQ(ex.question, Join(ex.tokens, " "));
}

TEST(MutatorTest, Names) {
  EXPECT_EQ(static_cast<int>(AllMutators().size()), kNumMutators);
  for (MutatorKind kind : AllMutators()) {
    EXPECT_STRNE(MutatorName(kind), "?");
  }
}

TEST(MutatorTest, MutateCorpusIsDeterministicAcrossCallsAndEngines) {
  const data::Dataset corpus = SeedCorpus();
  const MutationEngine engine(MutationConfig{17});

  const std::string first =
      Fingerprint(engine.MutateCorpus(corpus, AllMutators(), /*salt=*/3));

  // Same engine, repeated call: identical stream (no hidden state).
  EXPECT_EQ(first,
            Fingerprint(engine.MutateCorpus(corpus, AllMutators(), 3)));

  // A fresh engine with the same seed: identical stream.
  const MutationEngine twin(MutationConfig{17});
  EXPECT_EQ(first, Fingerprint(twin.MutateCorpus(corpus, AllMutators(), 3)));
}

TEST(MutatorTest, SeedAndSaltChangeTheStream) {
  const data::Dataset corpus = SeedCorpus();
  const MutationEngine engine(MutationConfig{17});
  const std::string base =
      Fingerprint(engine.MutateCorpus(corpus, AllMutators(), 0));
  // Independent streams: another salt and another seed must both diverge
  // somewhere in a full all-mutator expansion (filler choice alone has
  // 5 x 2 outcomes per example).
  EXPECT_NE(base, Fingerprint(engine.MutateCorpus(corpus, AllMutators(), 1)));
  const MutationEngine other(MutationConfig{18});
  EXPECT_NE(base, Fingerprint(other.MutateCorpus(corpus, AllMutators(), 0)));
}

TEST(MutatorTest, AnswerPreservingMutatorsKeepTheGoldAnswer) {
  const data::Dataset corpus = SeedCorpus();
  const MutationEngine engine(MutationConfig{5});
  const std::vector<Mutant> mutants =
      engine.MutateCorpus(corpus, AllMutators(), /*salt=*/0);
  ASSERT_EQ(mutants.size(), corpus.size() * AllMutators().size());

  int counterfactuals_applied = 0;
  for (const Mutant& m : mutants) {
    const data::Example& original = corpus.examples[m.source_index];
    if (m.kind != MutatorKind::kCounterfactualValue) {
      // The gold query is untouched, so its executed rows are too.
      EXPECT_EQ(m.example.query, original.query) << MutatorName(m.kind);
      StatusOr<std::vector<sql::Value>> before =
          sql::Execute(original.query, *original.table);
      StatusOr<std::vector<sql::Value>> after =
          sql::Execute(m.example.query, *m.example.table);
      ASSERT_TRUE(before.ok());
      ASSERT_TRUE(after.ok());
      EXPECT_TRUE(sql::ResultsEqual(before.value(), after.value()))
          << MutatorName(m.kind);
    } else if (m.applied) {
      // The counterfactual mutator must have rewritten a condition.
      EXPECT_FALSE(m.example.query == original.query);
      ++counterfactuals_applied;
      // The new value still executes against the same table.
      EXPECT_TRUE(sql::Execute(m.example.query, *m.example.table).ok());
    }
  }
  // The generated corpus always offers alternative cell values.
  EXPECT_GT(counterfactuals_applied, 0);
}

TEST(MutatorTest, MutantsKeepSpansConsistent) {
  const data::Dataset corpus = SeedCorpus();
  const MutationEngine engine(MutationConfig{23});
  int applied = 0;
  for (const Mutant& m : engine.MutateCorpus(corpus, AllMutators(), 0)) {
    ExpectSpansConsistent(m);
    if (m.applied) {
      ++applied;
      EXPECT_NE(m.example.question,
                corpus.examples[m.source_index].question)
          << MutatorName(m.kind);
    } else {
      EXPECT_EQ(m.example.question,
                corpus.examples[m.source_index].question);
    }
  }
  // The bulk of the expansion must actually perturb something.
  EXPECT_GT(applied,
            static_cast<int>(corpus.size() * AllMutators().size()) / 2);
}

TEST(MutatorTest, FillerNoiseAlwaysAppliesAndKeepsTrailingQuestionMark) {
  const data::Dataset corpus = SeedCorpus();
  const MutationEngine engine(MutationConfig{7});
  for (const Mutant& m :
       engine.MutateCorpus(corpus, {MutatorKind::kFillerNoise}, 0)) {
    EXPECT_TRUE(m.applied);
    const data::Example& original = corpus.examples[m.source_index];
    EXPECT_GT(m.example.tokens.size(), original.tokens.size());
    if (!original.tokens.empty() && original.tokens.back() == "?") {
      ASSERT_FALSE(m.example.tokens.empty());
      EXPECT_EQ(m.example.tokens.back(), "?");
    }
  }
}

TEST(MutatorTest, MutateDatasetPreservesShapeAndTables) {
  const data::Dataset corpus = SeedCorpus();
  const MutationEngine engine(MutationConfig{11});
  for (MutatorKind kind : AllMutators()) {
    const data::Dataset out = MutateDataset(engine, corpus, kind, /*salt=*/2);
    ASSERT_EQ(out.size(), corpus.size()) << MutatorName(kind);
    ASSERT_EQ(out.tables.size(), corpus.tables.size());
    for (size_t i = 0; i < out.examples.size(); ++i) {
      // Tables are shared, never copied: hardening augmentation must not
      // duplicate table storage.
      EXPECT_EQ(out.examples[i].table.get(), corpus.examples[i].table.get());
    }
  }
}

TEST(MutatorTest, ImplicitColumnMutantsDropExplicitWording) {
  const data::Dataset corpus = SeedCorpus();
  const MutationEngine engine(MutationConfig{13});
  int applied = 0;
  for (const Mutant& m :
       engine.MutateCorpus(corpus, {MutatorKind::kImplicitColumn}, 0)) {
    if (!m.applied) continue;
    ++applied;
    const data::Example& original = corpus.examples[m.source_index];
    EXPECT_LT(m.example.tokens.size(), original.tokens.size());
    bool has_implicit = false;
    for (const data::MentionInfo& mm : m.example.where_mentions) {
      if (!mm.column_explicit) has_implicit = true;
    }
    EXPECT_TRUE(has_implicit);
  }
  EXPECT_GT(applied, 0);
}

}  // namespace
}  // namespace attack
}  // namespace nlidb

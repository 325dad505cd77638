#include "schema/registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/lockdep.h"
#include "common/metrics.h"
#include "testing/threads.h"
#include "core/annotator.h"
#include "sql/value.h"

namespace nlidb {
namespace schema {
namespace {

std::shared_ptr<text::EmbeddingProvider> Provider() {
  return std::make_shared<text::EmbeddingProvider>(32);
}

sql::Table FilmTable(const std::string& name = "films") {
  sql::Schema schema({{"film_name", sql::DataType::kText},
                      {"director", sql::DataType::kText}});
  sql::Table t(name, schema);
  EXPECT_TRUE(t.AddRow({sql::Value::Text("winter echo"),
                        sql::Value::Text("sofia garcia")})
                  .ok());
  return t;
}

sql::Table CountyTable() {
  sql::Schema schema({{"county", sql::DataType::kText},
                      {"population", sql::DataType::kReal}});
  sql::Table t("counties", schema);
  EXPECT_TRUE(
      t.AddRow({sql::Value::Text("mayo"), sql::Value::Real(130507)}).ok());
  return t;
}

TEST(SchemaRegistryTest, StatsAreContentKeyed) {
  SchemaRegistry registry(Provider());
  sql::Table t = FilmTable();
  const TableStatsEntry& e1 = registry.EntryFor(t);
  EXPECT_EQ(&e1, &registry.EntryFor(t));
  // An identical table elsewhere in memory — even under another name —
  // shares the entry; different content does not.
  sql::Table copy = FilmTable("films_mirror");
  EXPECT_EQ(&registry.EntryFor(copy), &e1);
  sql::Table other = CountyTable();
  EXPECT_NE(&registry.EntryFor(other), &e1);
}

TEST(SchemaRegistryTest, MutatedTableGetsFreshStats) {
  // Regression for the address-keyed TableStatsCache bug: statistics
  // must never silently diverge from the table content they describe.
  SchemaRegistry registry(Provider());
  sql::Table t = FilmTable();
  const TableStatsEntry& before = registry.EntryFor(t);
  EXPECT_EQ(before.stats[1].distinct_count, 1);
  ASSERT_TRUE(t.AddRow({sql::Value::Text("silent river"),
                        sql::Value::Text("liam murphy")})
                  .ok());
  const TableStatsEntry& after = registry.EntryFor(t);
  EXPECT_NE(&after, &before);
  EXPECT_EQ(after.stats[1].distinct_count, 2);
  // The pre-mutation entry is retained, not overwritten: references
  // handed out earlier stay valid and correct for the old content.
  EXPECT_EQ(before.stats[1].distinct_count, 1);
}

TEST(SchemaRegistryTest, RealCellChangeBelowDisplayPrecisionGetsFreshStats) {
  // 1.0000001 and 1.0000002 both display as "1" (FormatNumber keeps six
  // significant digits), so a fingerprint over display strings would
  // serve the old entry with a stale max/mean. It hashes the double.
  auto readings = [](double reading) {
    sql::Table t("readings", sql::Schema({{"sensor", sql::DataType::kText},
                                          {"reading", sql::DataType::kReal}}));
    EXPECT_TRUE(
        t.AddRow({sql::Value::Text("alpha"), sql::Value::Real(reading)}).ok());
    return t;
  };
  SchemaRegistry registry(Provider());
  sql::Table t = readings(1.0000001);
  const TableStatsEntry& before = registry.EntryFor(t);
  t = readings(1.0000002);  // same object, one real cell changed
  const TableStatsEntry& after = registry.EntryFor(t);
  EXPECT_NE(&after, &before);
  EXPECT_EQ(after.stats[1].max_value, 1.0000002);
  EXPECT_EQ(after.stats[1].mean_value, 1.0000002);
  EXPECT_EQ(before.stats[1].max_value, 1.0000001);
}

TEST(SchemaRegistryTest, CellIndexIsContentKeyed) {
  SchemaRegistry registry(Provider());
  sql::Table t = FilmTable();
  const TableStatsEntry& before = registry.EntryFor(t);
  ASSERT_TRUE(t.AddRow({sql::Value::Text("silent river"),
                        sql::Value::Text("liam murphy")})
                  .ok());
  const std::vector<std::string> tokens = {"who", "directed", "silent",
                                           "river", "?"};
  const auto fresh =
      core::ExactCellValueMatches(tokens, t, registry.EntryFor(t).cells);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].span, (text::Span{2, 4}));
  ASSERT_EQ(fresh[0].column_scores.size(), 1u);
  EXPECT_EQ(fresh[0].column_scores[0].first, 0);
  // The pre-mutation entry indexes the old content only.
  EXPECT_TRUE(core::ExactCellValueMatches(tokens, t, before.cells).empty());
}

TEST(SchemaRegistryTest, EntriesCarryDerivedEmbeddings) {
  auto provider = Provider();
  SchemaRegistry registry(provider);
  sql::Table t = FilmTable();
  const TableStatsEntry& entry = registry.EntryFor(t);
  ASSERT_EQ(entry.name_embeddings.size(), 2u);
  for (const auto& vec : entry.name_embeddings) {
    EXPECT_EQ(static_cast<int>(vec.size()), provider->dim());
  }
  EXPECT_EQ(static_cast<int>(entry.centroid.size()), provider->dim());
}

TEST(SchemaRegistryTest, RegisterAssignsDenseIdsAndRejectsDuplicates) {
  SchemaRegistry registry(Provider());
  EXPECT_EQ(registry.num_tables(), 0);
  auto films = std::make_shared<sql::Table>(FilmTable());
  auto counties = std::make_shared<sql::Table>(CountyTable());
  StatusOr<TableId> id1 = registry.Register(films);
  StatusOr<TableId> id2 = registry.Register(counties);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(id1.value(), 0);
  EXPECT_EQ(id2.value(), 1);
  EXPECT_EQ(registry.num_tables(), 2);
  EXPECT_EQ(registry.Find("films"), id1.value());
  EXPECT_EQ(registry.Find("nowhere"), kInvalidTableId);
  EXPECT_EQ(registry.table(id2.value()), counties.get());
  EXPECT_EQ(registry.table(99), nullptr);

  auto duplicate = std::make_shared<sql::Table>(FilmTable());
  EXPECT_EQ(registry.Register(duplicate).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Register(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaRegistryTest, DuplicateRegisterComputesNoEntry) {
  auto& computed =
      metrics::MetricsRegistry::Global().GetCounter("schema.stats_computed");
  SchemaRegistry registry(Provider());
  ASSERT_TRUE(
      registry.Register(std::make_shared<sql::Table>(FilmTable())).ok());
  // Same name, content never seen before: rejected before an entry is
  // computed for it, so the registry retains nothing of it.
  auto duplicate = std::make_shared<sql::Table>(FilmTable());
  ASSERT_TRUE(duplicate
                  ->AddRow({sql::Value::Text("north wind"),
                            sql::Value::Text("ana silva")})
                  .ok());
  const int64_t computed_before = computed.Value();
  EXPECT_EQ(registry.Register(duplicate).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(computed.Value() - computed_before, 0);
  EXPECT_EQ(registry.num_tables(), 1);
}

TEST(SchemaRegistryTest, ResolveCoversEveryRefKind) {
  SchemaRegistry registry(Provider());
  auto films = std::make_shared<sql::Table>(FilmTable());
  const std::vector<std::string> tokens = {"which", "film", "?"};
  // Admission agrees with Resolve on every ref built below.
  auto resolve = [&](const SchemaRef& ref,
                     const std::vector<std::string>& question) {
    StatusOr<Resolution> resolved = registry.Resolve(ref, question);
    if (!question.empty()) {
      EXPECT_EQ(registry.CheckResolvable(ref).code(),
                resolved.status().code());
    }
    return resolved;
  };

  // Empty registry: routed refs cannot resolve, named refs are absent.
  EXPECT_EQ(resolve(SchemaRef::Route(), tokens).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(resolve(SchemaRef(), tokens).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(resolve(SchemaRef::Table(nullptr), tokens).status().code(),
            StatusCode::kInvalidArgument);

  const TableId id = registry.Register(films).value();

  // Ad-hoc table ref: resolves to the pointer; picks up the handle
  // because this exact table happens to be registered.
  auto by_table = resolve(SchemaRef::Table(films.get()), tokens);
  ASSERT_TRUE(by_table.ok());
  EXPECT_EQ(by_table->table, films.get());
  EXPECT_EQ(by_table->id, id);
  // An unregistered ad-hoc table resolves with no handle.
  sql::Table adhoc = CountyTable();
  auto by_adhoc = resolve(SchemaRef::Table(&adhoc), tokens);
  ASSERT_TRUE(by_adhoc.ok());
  EXPECT_EQ(by_adhoc->id, kInvalidTableId);

  auto by_name = resolve(SchemaRef::Name("films"), tokens);
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name->table, films.get());
  EXPECT_EQ(resolve(SchemaRef::Name("nope"), tokens).status().code(),
            StatusCode::kNotFound);

  auto by_id = resolve(SchemaRef::Id(id), tokens);
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(by_id->table, films.get());
  EXPECT_EQ(resolve(SchemaRef::Id(7), tokens).status().code(),
            StatusCode::kNotFound);

  auto routed = resolve(SchemaRef::Route(), tokens);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->table, films.get());
  ASSERT_FALSE(routed->candidates.empty());
  EXPECT_EQ(routed->candidates.front().id, id);
  // Admission does not see the question, so it cannot reject an empty
  // one; only Resolve does.
  EXPECT_EQ(resolve(SchemaRef::Route(), {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(registry.CheckResolvable(SchemaRef::Route()).ok());
}

TEST(SchemaRegistryTest, RegisteredTableIsReadAsRegistered) {
  auto& hits =
      metrics::MetricsRegistry::Global().GetCounter("schema.stats_hits");
  auto& computed =
      metrics::MetricsRegistry::Global().GetCounter("schema.stats_computed");
  SchemaRegistry registry(Provider());
  auto films = std::make_shared<sql::Table>(FilmTable());
  const int64_t computed_before_register = computed.Value();
  ASSERT_TRUE(registry.Register(films).ok());
  EXPECT_EQ(computed.Value() - computed_before_register, 1);
  // (a) Reading the registered object returns the entry Register
  // bound, counted as one hit and no compute.
  const int64_t hits_before_read = hits.Value();
  const int64_t computed_before_read = computed.Value();
  const TableStatsEntry* bound = &registry.EntryFor(*films);
  EXPECT_EQ(hits.Value() - hits_before_read, 1);
  EXPECT_EQ(computed.Value() - computed_before_read, 0);
  sql::Table as_registered = FilmTable("films_as_registered");
  EXPECT_EQ(&registry.EntryFor(as_registered), bound);
  EXPECT_EQ(bound->stats[1].distinct_count, 1);

  // (b) Mutating the registered object through the caller's handle
  // changes nothing the registry serves for it.
  ASSERT_TRUE(films->AddRow({sql::Value::Text("silent river"),
                             sql::Value::Text("liam murphy")})
                  .ok());
  const int64_t computed_after_mutation = computed.Value();
  EXPECT_EQ(&registry.EntryFor(*films), bound);
  EXPECT_EQ(computed.Value() - computed_after_mutation, 0);
  EXPECT_EQ(bound->stats[1].distinct_count, 1);

  // (c) Another table named "films" at another address, with other
  // content, is ad hoc: content-keyed, never the bound entry.
  sql::Table impostor = FilmTable();
  ASSERT_TRUE(impostor.AddRow({sql::Value::Text("north wind"),
                               sql::Value::Text("ana silva")})
                  .ok());
  const TableStatsEntry& adhoc = registry.EntryFor(impostor);
  EXPECT_NE(&adhoc, bound);
  EXPECT_EQ(adhoc.fingerprint, TableFingerprint(impostor));
  EXPECT_EQ(adhoc.stats[1].distinct_count, 2);
}

TEST(SchemaRegistryTest, EveryEntryForEitherHitsOrComputes) {
  auto& hits =
      metrics::MetricsRegistry::Global().GetCounter("schema.stats_hits");
  auto& computed =
      metrics::MetricsRegistry::Global().GetCounter("schema.stats_computed");
  SchemaRegistry registry(Provider());
  auto expect_call = [&](const char* step, const sql::Table& table,
                         int64_t hit, int64_t compute) {
    const int64_t hits_before = hits.Value();
    const int64_t computed_before = computed.Value();
    (void)registry.EntryFor(table);
    EXPECT_EQ(hits.Value() - hits_before, hit) << step;
    EXPECT_EQ(computed.Value() - computed_before, compute) << step;
  };
  const std::vector<sql::Value> extra = {sql::Value::Text("silent river"),
                                         sql::Value::Text("liam murphy")};
  sql::Table films = FilmTable();
  expect_call("first sight", films, 0, 1);
  expect_call("repeat", films, 1, 0);
  ASSERT_TRUE(films.AddRow(extra).ok());
  expect_call("after in-place mutation", films, 0, 1);
  // Identical content under another name shares the entry.
  sql::Table twin = FilmTable("films_twin");
  ASSERT_TRUE(twin.AddRow(extra).ok());
  expect_call("identical twin", twin, 1, 0);
}

TEST(SchemaRegistryTest, ConcurrentReadsShareOneEntryPerContent) {
  auto provider = Provider();
  SchemaRegistry registry(provider);
  auto films = std::make_shared<sql::Table>(FilmTable());
  ASSERT_TRUE(registry.Register(films).ok());
  sql::Table adhoc = CountyTable();
  const std::vector<std::string> question = {"what", "is",   "the",
                                             "population", "of", "mayo"};

  auto& hits =
      metrics::MetricsRegistry::Global().GetCounter("schema.stats_hits");
  auto& computed =
      metrics::MetricsRegistry::Global().GetCounter("schema.stats_computed");
  const int64_t calls_before = hits.Value() + computed.Value();

  constexpr int kIters = 64;
  std::vector<const TableStatsEntry*> seen(kIters, nullptr);
  std::vector<int> route_winner(kIters, -1);
  constexpr int kThreads = 8;
  constexpr int kPerThread = kIters / kThreads;
  testing::RunOnThreads(kThreads, [&](int thread) {
    for (int i = thread * kPerThread; i < (thread + 1) * kPerThread; ++i) {
      const sql::Table& t = (i % 2 == 0) ? *films : adhoc;
      seen[i] = &registry.EntryFor(t);
      auto ranked = registry.Route(question, 3);
      route_winner[i] = ranked.empty() ? -1 : ranked.front().id;
      EXPECT_EQ(registry.ShortlistColumns(question, t, *seen[i]).size(), 2u);
    }
  });
  // Racing first-touch computes converge on one resident entry per
  // distinct content, and every routed read saw a consistent index.
  for (int i = 0; i < kIters; ++i) {
    EXPECT_EQ(seen[i], seen[i % 2]) << i;
    EXPECT_EQ(route_winner[i], 0) << i;
  }
  EXPECT_NE(seen[0], seen[1]);
  // Every racing EntryFor counted exactly once, as a hit or a compute.
  EXPECT_EQ(hits.Value() + computed.Value() - calls_before, kIters);
}

// Runs last: under the schema_registry_lockdep ctest entry
// (NLIDB_DEADLOCK=on) every test above fed the lock-order graph —
// schema.registry, text.embedding_cache, metrics.registry —
// and none of it may have produced an order-inversion report.
TEST(SchemaRegistryLockDiscipline, NoInversionReportsAcrossSuite) {
  if (!lockdep::Enabled()) {
    GTEST_SKIP() << "lock-discipline analyzer disabled";
  }
  for (const lockdep::Report& r : lockdep::Reports()) {
    EXPECT_NE(r.kind, lockdep::Report::Kind::kOrderInversion)
        << r.message << "\n" << r.cycle << "\n" << r.first_stack << "\n"
        << r.second_stack;
  }
}

}  // namespace
}  // namespace schema
}  // namespace nlidb

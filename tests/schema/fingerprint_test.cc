#include "schema/fingerprint.h"

#include <gtest/gtest.h>

#include "sql/value.h"

namespace nlidb {
namespace schema {
namespace {

sql::Table FilmTable(const std::string& name, const std::string& director) {
  sql::Schema schema({{"film_name", sql::DataType::kText},
                      {"director", sql::DataType::kText}});
  sql::Table t(name, schema);
  EXPECT_TRUE(t.AddRow({sql::Value::Text("winter echo"),
                        sql::Value::Text(director)})
                  .ok());
  return t;
}

TEST(FingerprintTest, DeterministicAndAddressIndependent) {
  sql::Table a = FilmTable("films", "sofia garcia");
  sql::Table b = FilmTable("films", "sofia garcia");
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(a));
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(b));
}

TEST(FingerprintTest, TableNameDoesNotAffectFingerprint) {
  // Content-keyed means *content*: the same schema and cells under a
  // different table name share precomputed statistics.
  sql::Table a = FilmTable("films", "sofia garcia");
  sql::Table b = FilmTable("movies", "sofia garcia");
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(b));
}

TEST(FingerprintTest, CellChangeChangesOnlyTheCellWord) {
  sql::Table a = FilmTable("films", "sofia garcia");
  sql::Table b = FilmTable("films", "liam murphy");
  EXPECT_NE(TableFingerprint(a), TableFingerprint(b));
  // Same schema: the high (schema) word agrees, the low (cell) word is
  // what moved.
  EXPECT_EQ(TableFingerprint(a) >> 32, TableFingerprint(b) >> 32);
  EXPECT_EQ(TableFingerprint(a) >> 32, SchemaFingerprint(a.schema()));
}

TEST(FingerprintTest, SchemaChangeChangesTheSchemaWord) {
  sql::Schema named({{"film_name", sql::DataType::kText}});
  sql::Schema renamed({{"movie_title", sql::DataType::kText}});
  sql::Schema retyped({{"film_name", sql::DataType::kReal}});
  EXPECT_NE(SchemaFingerprint(named), SchemaFingerprint(renamed));
  EXPECT_NE(SchemaFingerprint(named), SchemaFingerprint(retyped));
}

TEST(FingerprintTest, AppendedRowChangesFingerprint) {
  // The stale-stats regression this subsystem exists to prevent: a
  // table mutated after its statistics were cached must present a new
  // fingerprint.
  sql::Table t = FilmTable("films", "sofia garcia");
  const uint64_t before = TableFingerprint(t);
  ASSERT_TRUE(t.AddRow({sql::Value::Text("silent river"),
                        sql::Value::Text("liam murphy")})
                  .ok());
  EXPECT_NE(before, TableFingerprint(t));
}

TEST(FingerprintTest, MiddleRowChangeChangesFingerprint) {
  // Every cell is hashed: a change deep inside a larger table, away
  // from its first and last rows, still presents a new fingerprint.
  sql::Schema schema({{"n", sql::DataType::kReal}});
  sql::Table a("big", schema);
  sql::Table b("big", schema);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(a.AddRow({sql::Value::Real(i)}).ok());
    // b differs from a only in a middle row.
    ASSERT_TRUE(b.AddRow({sql::Value::Real(i == 101 ? -1 : i)}).ok());
  }
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(a));
  EXPECT_NE(TableFingerprint(a), TableFingerprint(b));
}

}  // namespace
}  // namespace schema
}  // namespace nlidb

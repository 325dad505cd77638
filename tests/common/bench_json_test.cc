// Unit coverage for bench/bench_json.h, the flat JSON store every
// BENCH_*.json writer saves its machine-readable report through. The
// load-bearing behaviors: a save rewrites the whole file (each file has
// one writer, so no key outlives the run that set it), string escaping,
// compact number formatting, and the env-overridable output paths. Also
// covers bench/bench_util.h's strict NLIDB_BENCH_TABLES reader.

#include "bench/bench_json.h"
#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace nlidb {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FlatJsonTest, SaveOverAnExistingFileKeepsNoOldKey) {
  const std::string path = TempPath("overwrite.json");
  {
    bench::FlatJson old;
    old.Set("retired_key", 1);
    old.Set("shared_key", 2);
    ASSERT_TRUE(old.Save(path));
  }
  bench::FlatJson fresh;
  fresh.Set("shared_key", 3);
  fresh.SetString("new_key", "x");
  ASSERT_TRUE(fresh.Save(path));
  EXPECT_EQ(ReadAll(path),
            "{\n  \"new_key\": \"x\",\n  \"shared_key\": 3\n}\n");
}

TEST(FlatJsonTest, StringValuesEscapeQuotesAndBackslashes) {
  const std::string path = TempPath("escape.json");
  bench::FlatJson json;
  json.SetString("label", "a \"quoted\" \\ thing");
  ASSERT_TRUE(json.Save(path));
  EXPECT_EQ(ReadAll(path),
            "{\n  \"label\": \"a \\\"quoted\\\" \\\\ thing\"\n}\n");
}

TEST(FlatJsonTest, NumberFormattingUsesCompactPrecision) {
  const std::string path = TempPath("numbers.json");
  bench::FlatJson json;
  json.Set("small", 0.18125);
  json.Set("large", 4.70421e+08);
  json.Set("integral", 42);
  ASSERT_TRUE(json.Save(path));
  const std::string text = ReadAll(path);
  EXPECT_NE(text.find("\"small\": 0.18125"), std::string::npos);
  EXPECT_NE(text.find("\"large\": 4.70421e+08"), std::string::npos);
  EXPECT_NE(text.find("\"integral\": 42"), std::string::npos);
}

TEST(BenchJsonPathsTest, EveryBenchPathHonorsItsEnvOverride) {
  struct Case {
    const char* env;
    const char* (*path)();
    const char* fallback;
  };
  const Case cases[] = {
      {"NLIDB_BENCH_JSON", &bench::SubstrateJsonPath,
       "BENCH_substrate.json"},
      {"NLIDB_BENCH_SCHEMA_JSON", &bench::SchemaJsonPath,
       "BENCH_schema.json"},
      {"NLIDB_BENCH_ATTACK_JSON", &bench::AttackJsonPath,
       "BENCH_attack.json"},
  };
  for (const Case& c : cases) {
    ASSERT_EQ(unsetenv(c.env), 0);
    EXPECT_STREQ(c.path(), c.fallback) << c.env;
    ASSERT_EQ(setenv(c.env, "/tmp/override.json", 1), 0);
    EXPECT_STREQ(c.path(), "/tmp/override.json") << c.env;
    ASSERT_EQ(unsetenv(c.env), 0);
  }
}

TEST(BenchEnvCountTest, AcceptsOnlyWholePositiveDecimals) {
  constexpr const char* kVar = "NLIDB_BENCH_TABLES";
  ASSERT_EQ(unsetenv(kVar), 0);
  EXPECT_EQ(bench::EnvTables(36), 36);
  ASSERT_EQ(setenv(kVar, "", 1), 0);
  EXPECT_EQ(bench::EnvTables(36), 36);
  ASSERT_EQ(setenv(kVar, "12", 1), 0);
  EXPECT_EQ(bench::EnvTables(36), 12);
  // A typo must never silently become a count of zero or garbage.
  for (const char* bad : {"abc", "0", "-3", "+3", " 3", "3x", "2.5",
                          "3000000000", "99999999999999999999999"}) {
    ASSERT_EQ(setenv(kVar, bad, 1), 0);
    EXPECT_EXIT(bench::EnvTables(36), ::testing::ExitedWithCode(2),
                "is not a positive count")
        << bad;
  }
  ASSERT_EQ(unsetenv(kVar), 0);
}

}  // namespace
}  // namespace nlidb

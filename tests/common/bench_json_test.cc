// Unit coverage for bench/bench_json.h, the flat JSON store every bench
// binary (substrate, observability, decoder, serving) writes its
// machine-readable report through. The load-bearing behaviors: merge
// semantics (several benches contribute to one file), round-tripping of
// raw value tokens, tolerance of missing/malformed input, string
// escaping, and the env-overridable output paths. Also covers
// bench/bench_util.h's strict reader for the count variables
// (NLIDB_BENCH_TABLES, NLIDB_ATTACK_QUERIES).

#include "bench/bench_json.h"
#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstdio>
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

TEST(FlatJsonTest, MissingFileLoadsEmpty) {
  bench::FlatJson json =
      bench::FlatJson::Load(TempPath("does_not_exist.json"));
  EXPECT_EQ(json.size(), 0u);
}

TEST(FlatJsonTest, SaveThenLoadRoundTripsExactly) {
  const std::string path = TempPath("roundtrip.json");
  bench::FlatJson json;
  json.Set("qps", 533.735);
  json.Set("clients", 1600);
  json.Set("wall_ns", 123456789LL);
  json.SetString("mode", "batch");
  ASSERT_TRUE(json.Save(path));

  const std::string first = ReadAll(path);
  bench::FlatJson reloaded = bench::FlatJson::Load(path);
  EXPECT_EQ(reloaded.size(), 4u);
  ASSERT_TRUE(reloaded.Save(path));
  // Raw value tokens are preserved verbatim, so a load/save cycle is
  // byte-identical — the property the multi-bench merge relies on.
  EXPECT_EQ(ReadAll(path), first);
}

TEST(FlatJsonTest, LoadMergeSetPreservesOtherBenchesKeys) {
  const std::string path = TempPath("merge.json");
  {
    bench::FlatJson first;
    first.Set("decoder_qps", 100.0);
    ASSERT_TRUE(first.Save(path));
  }
  {
    // A second bench contributes to the same file: existing keys
    // survive, same-named keys are overwritten.
    bench::FlatJson second = bench::FlatJson::Load(path);
    second.Set("serving_qps", 500.0);
    second.Set("decoder_qps", 250.0);
    ASSERT_TRUE(second.Save(path));
  }
  const std::string text = ReadAll(path);
  EXPECT_NE(text.find("\"decoder_qps\": 250"), std::string::npos);
  EXPECT_NE(text.find("\"serving_qps\": 500"), std::string::npos);
  EXPECT_EQ(bench::FlatJson::Load(path).size(), 2u);
}

TEST(FlatJsonTest, MalformedInputYieldsWhatCanBeScavenged) {
  const std::string path = TempPath("malformed.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{ \"ok_key\": 1, garbage without structure \"dangling";
  }
  // Tolerant scan: the well-formed pair parses, the trailing junk does
  // not abort the load.
  bench::FlatJson json = bench::FlatJson::Load(path);
  EXPECT_GE(json.size(), 1u);
  EXPECT_TRUE(json.Save(path));
}

TEST(FlatJsonTest, StringValuesEscapeQuotesAndBackslashes) {
  const std::string path = TempPath("escape.json");
  bench::FlatJson json;
  json.SetString("label", "a \"quoted\" \\ thing");
  ASSERT_TRUE(json.Save(path));
  const std::string text = ReadAll(path);
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(text.find("\\\\"), std::string::npos);
  // And the escaped form survives a reload unmangled.
  bench::FlatJson reloaded = bench::FlatJson::Load(path);
  ASSERT_EQ(reloaded.size(), 1u);
  ASSERT_TRUE(reloaded.Save(path));
  EXPECT_EQ(ReadAll(path), text);
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
      {"NLIDB_BENCH_DECODER_JSON", &bench::DecoderJsonPath,
       "BENCH_decoder.json"},
      {"NLIDB_BENCH_SERVING_JSON", &bench::ServingJsonPath,
       "BENCH_serving.json"},
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

#include "core/persistence.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/file_io.h"
#include "data/generator.h"
#include "eval/metrics.h"

namespace nlidb {
namespace core {
namespace {

std::string TempDirFor(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(VocabPersistenceTest, SaveLoadRoundTrip) {
  text::Vocab vocab;
  vocab.AddToken("which");
  vocab.AddToken("film");
  vocab.AddToken("c1");
  const std::string path = TempDirFor("vocab.txt");
  ASSERT_TRUE(SaveVocab(vocab, path).ok());
  auto tokens = LoadVocabTokens(path);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(*tokens, (std::vector<std::string>{"which", "film", "c1"}));
  std::remove(path.c_str());
}

TEST(VocabPersistenceTest, HeaderlessTokenListIsParseError) {
  // A bare token list (no `NLIDB-VOCAB v2` header, so no CRC or count)
  // is rejected rather than trusted.
  const std::string path = TempDirFor("headerless.vocab");
  ASSERT_TRUE(io::WriteFileAtomic(path, "which\nfilm\nc1\n").ok());
  auto tokens = LoadVocabTokens(path);
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
  EXPECT_NE(tokens.status().message().find("missing vocab header"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(PipelinePersistenceTest, SaveLoadPreservesBehavior) {
  auto provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*provider);
  data::GeneratorConfig gc;
  gc.num_tables = 10;
  gc.questions_per_table = 5;
  gc.seed = 55;
  data::Splits splits = data::GenerateWikiSqlSplits(gc);
  ModelConfig config = ModelConfig::Tiny();
  config.word_dim = provider->dim();

  NlidbPipeline trained(config, provider);
  trained.Train(splits.train);
  const std::string dir = TempDirFor("pipeline_save");
  ASSERT_TRUE(SavePipeline(trained, dir).ok());

  // A fresh, untrained pipeline restored from disk must reproduce the
  // trained pipeline's predictions exactly.
  NlidbPipeline restored(config, provider);
  ASSERT_TRUE(LoadPipeline(restored, dir).ok());
  auto translate = [](const NlidbPipeline& pipeline, const data::Example& ex)
      -> StatusOr<sql::SelectQuery> {
    QueryRequest request;
    request.schema_ref = SchemaRef::Table(ex.table.get());
    request.tokens = ex.tokens;
    request.execute = false;
    request.collect_timings = false;
    StatusOr<QueryResult> result = pipeline.Query(request);
    if (!result.ok()) return result.status();
    QueryResult out = std::move(result).value();
    if (!out.recovery_status.ok()) return out.recovery_status;
    return std::move(*out.query);
  };
  int compared = 0;
  for (const auto& ex : splits.dev.examples) {
    auto a = translate(trained, ex);
    auto b = translate(restored, ex);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_TRUE(*a == *b) << ex.question;
    }
    if (++compared >= 8) break;
  }
  std::filesystem::remove_all(dir);
}

TEST(PipelinePersistenceTest, LoadIntoMismatchedConfigFails) {
  auto provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*provider);
  data::GeneratorConfig gc;
  gc.num_tables = 4;
  gc.seed = 56;
  data::Splits splits = data::GenerateWikiSqlSplits(gc);
  ModelConfig config = ModelConfig::Tiny();
  config.word_dim = provider->dim();
  NlidbPipeline trained(config, provider);
  trained.Train(splits.train);
  const std::string dir = TempDirFor("pipeline_mismatch");
  ASSERT_TRUE(SavePipeline(trained, dir).ok());

  ModelConfig bigger = config;
  bigger.seq2seq_hidden *= 2;
  NlidbPipeline other(bigger, provider);
  Status s = LoadPipeline(other, dir);
  EXPECT_FALSE(s.ok());
  std::filesystem::remove_all(dir);
}

TEST(PipelinePersistenceTest, MissingDirectoryFails) {
  auto provider = std::make_shared<text::EmbeddingProvider>();
  ModelConfig config = ModelConfig::Tiny();
  config.word_dim = provider->dim();
  NlidbPipeline pipeline(config, provider);
  EXPECT_FALSE(LoadPipeline(pipeline, TempDirFor("does_not_exist_xyz")).ok());
}

TEST(PipelinePersistenceTest, FlatArtifactsWithoutManifestFail) {
  auto provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*provider);
  data::GeneratorConfig gc;
  gc.num_tables = 4;
  gc.seed = 57;
  data::Splits splits = data::GenerateWikiSqlSplits(gc);
  ModelConfig config = ModelConfig::Tiny();
  config.word_dim = provider->dim();
  NlidbPipeline trained(config, provider);
  trained.Train(splits.train);
  const std::string saved = TempDirFor("pipeline_flat_src");
  ASSERT_TRUE(SavePipeline(trained, saved).ok());

  // The five artifacts of the one snapshot, copied directly into a
  // directory that has no MANIFEST: only SavePipeline's layout loads.
  const std::filesystem::path flat = TempDirFor("pipeline_flat");
  std::filesystem::remove_all(flat);
  std::filesystem::create_directories(flat);
  int copied = 0;
  for (const auto& snap : std::filesystem::directory_iterator(saved)) {
    if (!snap.is_directory()) continue;
    for (const auto& file : std::filesystem::directory_iterator(snap)) {
      std::filesystem::copy_file(file.path(), flat / file.path().filename());
      ++copied;
    }
  }
  ASSERT_EQ(copied, 5);

  NlidbPipeline restored(config, provider);
  const Status s = LoadPipeline(restored, flat.string());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("MANIFEST"), std::string::npos) << s.message();
  std::filesystem::remove_all(saved);
  std::filesystem::remove_all(flat);
}

}  // namespace
}  // namespace core
}  // namespace nlidb

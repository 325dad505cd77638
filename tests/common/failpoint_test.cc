// Fault-injection acceptance suite (DESIGN.md "Fault-tolerance
// architecture"). Demonstrates, under the same sanitizer matrix as every
// other test:
//   (a) a crash injected between temp-file write and rename leaves the
//       previous snapshot loadable,
//   (b) a disk-full/write error during checkpoint save surfaces as a
//       Status instead of Ok,
//   (c) a query under an expired deadline returns DeadlineExceeded with
//       partial stage timings — and never aborts.

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/file_io.h"
#include "common/metrics.h"
#include "core/persistence.h"
#include "core/pipeline.h"
#include "data/generator.h"
#include "nn/checkpoint.h"
#include "tensor/autograd.h"

namespace nlidb {
namespace {

namespace fs = std::filesystem;

int64_t CounterValue(const std::string& name) {
  return metrics::MetricsRegistry::Global().GetCounter(name).Value();
}

std::string TempDirFor(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// This suite manages failpoints explicitly; start from a clean registry
// even when the binary runs under an NLIDB_FAILPOINTS schedule (the
// randomized-delay CI leg), so the exact-count assertions below hold
// under any seed and any test filter.
class CleanFailpointEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    // Consume the env parse first so a later library-entry-point call
    // to InitFromEnv (a once-only no-op afterwards) cannot re-arm it.
    failpoint::InitFromEnv();
    failpoint::DeactivateAll();
  }
};
const auto* const kCleanEnv =
    ::testing::AddGlobalTestEnvironment(new CleanFailpointEnv);

std::string ReadAll(const std::string& path) {
  return io::ReadFileToString(path).value();
}

// Direct byte surgery on committed files; tests are outside the
// raw-file-write rule's src/ scope on purpose.
void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void FlipByte(const std::string& path, size_t offset) {
  std::string bytes = ReadAll(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
  WriteRaw(path, bytes);
}

std::vector<Var> MakeParams() {
  std::vector<Var> params;
  params.push_back(MakeVar(Tensor::Ones({2, 3})));
  params.push_back(MakeVar(Tensor::Zeros({4})));
  return params;
}

// ---------------------------------------------------------------------------
// Framework semantics.

TEST(FailpointTest, InactiveSiteCostsNothingAndReturnsOk) {
  failpoint::DeactivateAll();
  EXPECT_FALSE(failpoint::AnyActive());
  EXPECT_TRUE(NLIDB_FAILPOINT("nonexistent/site").ok());
  EXPECT_EQ(failpoint::Fire("nonexistent/site").kind,
            failpoint::ActionKind::kNone);
}

TEST(FailpointTest, ErrorActionInjectsIoErrorAndCounts) {
  const int64_t fired_before = CounterValue("failpoint.fired");
  failpoint::ScopedFailpoint fp("test/site", "error");
  Status s = NLIDB_FAILPOINT("test/site");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("test/site"), std::string::npos);
  EXPECT_EQ(CounterValue("failpoint.fired"), fired_before + 1);
  EXPECT_GE(CounterValue("failpoint.test/site"), 1);
  // Unrelated sites stay inert while another is active.
  EXPECT_TRUE(NLIDB_FAILPOINT("test/other_site").ok());
}

TEST(FailpointTest, ScopedFailpointDeactivatesOnExit) {
  {
    failpoint::ScopedFailpoint fp("test/scoped", "error");
    EXPECT_FALSE(NLIDB_FAILPOINT("test/scoped").ok());
  }
  EXPECT_TRUE(NLIDB_FAILPOINT("test/scoped").ok());
  EXPECT_FALSE(failpoint::AnyActive());
}

TEST(FailpointTest, DelayActionProceedsOk) {
  failpoint::ScopedFailpoint fp("test/delay", "delay:1");
  EXPECT_TRUE(NLIDB_FAILPOINT("test/delay").ok());
}

// The random-delay schedule: which hits of a site fire is a pure
// function of (seed, site, hit count), so a seed replays exactly.
TEST(FailpointTest, RandomDelayScheduleIsSeededAndCounted) {
  constexpr int kHits = 400;
  const char* site = "test/random_delay";
  auto fire_pattern = [&](uint64_t seed) {
    failpoint::ActivateRandomDelay(seed);
    const int64_t fired_before = CounterValue("failpoint.fired");
    const int64_t site_before =
        CounterValue(std::string("failpoint.") + site);
    std::vector<bool> pattern;
    int fires = 0;
    for (int i = 0; i < kHits; ++i) {
      const bool fired =
          failpoint::Fire(site).kind == failpoint::ActionKind::kDelay;
      pattern.push_back(fired);
      fires += fired;
    }
    failpoint::DeactivateAll();
    EXPECT_EQ(CounterValue("failpoint.fired"), fired_before + fires);
    EXPECT_EQ(CounterValue(std::string("failpoint.") + site),
              site_before + fires);
    return pattern;
  };

  const std::vector<bool> first = fire_pattern(11);
  EXPECT_EQ(fire_pattern(11), first);
  EXPECT_NE(fire_pattern(12), first);
  // Each hit fires with probability 1/8: 50 expected of 400.
  const int fires = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GE(fires, 25);
  EXPECT_LE(fires, 75);
  EXPECT_FALSE(failpoint::AnyActive());
}

TEST(FailpointTest, MalformedSpecsRejected) {
  EXPECT_EQ(failpoint::Activate("s", "explode").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::Activate("s", "delay:-5").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(failpoint::AnyActive());
}

// ---------------------------------------------------------------------------
// Crash-safe checkpoint writes.

TEST(FailpointTest, WriteErrorDuringSaveIsStatusAndKeepsOldFile) {
  // Acceptance (b): a failed write (disk full, injected here at the
  // commit site) surfaces as a Status and never tears the previous file.
  const std::string path = TempDirFor("ckpt_diskfull.ckpt");
  std::vector<Var> params = MakeParams();
  ASSERT_TRUE(nn::Checkpoint::Save(path, params).ok());
  const std::string before = ReadAll(path);

  failpoint::ScopedFailpoint fp("checkpoint/commit", "error");
  Status s = nn::Checkpoint::Save(path, params);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(ReadAll(path), before);
  EXPECT_TRUE(nn::Checkpoint::Verify(path).ok());
  fs::remove(path);
}

TEST(FailpointTest, ErrorAfterHeaderKeepsPreviousCheckpointLoadable) {
  // An error raised mid-save, after the header went to the temp file,
  // abandons the write: the previous checkpoint stays byte for byte and
  // still loads.
  const std::string path = TempDirFor("ckpt_after_header.ckpt");
  std::vector<Var> params = MakeParams();
  ASSERT_TRUE(nn::Checkpoint::Save(path, params).ok());
  const std::string before = ReadAll(path);

  std::vector<Var> changed = MakeParams();
  changed[0]->value(0, 0) = 42.0f;
  {
    failpoint::ScopedFailpoint fp("checkpoint/after_header", "error");
    EXPECT_EQ(nn::Checkpoint::Save(path, changed).code(),
              StatusCode::kIoError);
  }
  EXPECT_EQ(ReadAll(path), before);
  std::vector<Var> loaded = MakeParams();
  loaded[0]->value(0, 0) = -1.0f;
  ASSERT_TRUE(nn::Checkpoint::Load(path, loaded).ok());
  EXPECT_EQ(loaded[0]->value.vec(), params[0]->value.vec());
  fs::remove(path);
  fs::remove(path + ".tmp");
}

TEST(FailpointTest, DeathBeforeRenameLeavesPreviousFileLoadable) {
  // Acceptance (a), file level: dying between temp-write and rename
  // leaves the destination exactly as it was. `error` at before_rename
  // reproduces the post-crash disk state (durable temp, no rename)
  // without killing the process.
  const std::string path = TempDirFor("ckpt_prerename.ckpt");
  std::vector<Var> params = MakeParams();
  ASSERT_TRUE(nn::Checkpoint::Save(path, params).ok());
  const std::string before = ReadAll(path);

  {
    failpoint::ScopedFailpoint fp("checkpoint/before_rename", "error");
    EXPECT_FALSE(nn::Checkpoint::Save(path, params).ok());
  }
  EXPECT_EQ(ReadAll(path), before);
  ASSERT_TRUE(nn::Checkpoint::Load(path, params).ok());
  fs::remove(path);
  fs::remove(path + ".tmp");
}

TEST(FailpointDeathTest, CrashBeforeRenameIsAHardDeath) {
  // The genuine kCrash action: the process dies at the site with no
  // destructors. The destination file must survive untouched.
  // Threadsafe style re-executes the binary so the dying statement runs
  // in a fresh process; a plain fork is unsafe if an earlier test left a
  // thread running.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = TempDirFor("ckpt_crash.ckpt");
  std::vector<Var> params = MakeParams();
  ASSERT_TRUE(nn::Checkpoint::Save(path, params).ok());
  const std::string before = ReadAll(path);

  EXPECT_EXIT(
      {
        Status s = failpoint::Activate("checkpoint/before_rename", "crash");
        Status::IgnoreError(s);
        s = nn::Checkpoint::Save(path, MakeParams());
        Status::IgnoreError(s);
      },
      ::testing::ExitedWithCode(134), "failpoint crash");
  EXPECT_EQ(ReadAll(path), before);
  EXPECT_TRUE(nn::Checkpoint::Verify(path).ok());
  fs::remove(path);
  fs::remove(path + ".tmp");
}

TEST(FailpointTest, TornWriteIsDetectedOnLoad) {
  // A torn write that survived rename (power loss after an unsynced
  // rename) commits a truncated file; the CRC footer catches it and the
  // staged parse leaves the receiving model untouched.
  const std::string path = TempDirFor("ckpt_torn.ckpt");
  std::vector<Var> params = MakeParams();
  {
    failpoint::ScopedFailpoint fp("checkpoint/commit", "torn_write");
    Status s = nn::Checkpoint::Save(path, params);
    Status::IgnoreError(s);  // a real torn write reports nothing
  }
  ASSERT_TRUE(fs::exists(path));
  EXPECT_FALSE(nn::Checkpoint::Verify(path).ok());
  const Tensor before = params[0]->value;
  EXPECT_FALSE(nn::Checkpoint::Load(path, params).ok());
  EXPECT_EQ(params[0]->value.vec(), before.vec());
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Snapshot-directory fallback (MANIFEST layer).

class SnapshotFixture : public ::testing::Test {
 protected:
  SnapshotFixture() {
    provider_ = std::make_shared<text::EmbeddingProvider>();
    data::RegisterDomainClusters(*provider_);
    config_ = core::ModelConfig::Tiny();
    config_.word_dim = provider_->dim();
  }

  std::shared_ptr<text::EmbeddingProvider> provider_;
  core::ModelConfig config_;
};

TEST_F(SnapshotFixture, FailedSaveBeforeManifestKeepsPreviousLoadable) {
  // Acceptance (a), snapshot level: dying after the new snapshot's
  // artifacts are on disk but before the MANIFEST points at them must
  // leave the previous snapshot the active one.
  const std::string dir = TempDirFor("snap_premanifest");
  fs::remove_all(dir);
  core::NlidbPipeline pipeline(config_, provider_);
  ASSERT_TRUE(core::SavePipeline(pipeline, dir).ok());

  {
    failpoint::ScopedFailpoint fp("persistence/before_manifest", "error");
    EXPECT_FALSE(core::SavePipeline(pipeline, dir).ok());
  }
  core::NlidbPipeline restored(config_, provider_);
  EXPECT_TRUE(core::LoadPipeline(restored, dir).ok());
  fs::remove_all(dir);
}

TEST_F(SnapshotFixture, CorruptNewestSnapshotFallsBackToPrevious) {
  const std::string dir = TempDirFor("snap_fallback");
  fs::remove_all(dir);
  core::NlidbPipeline pipeline(config_, provider_);
  ASSERT_TRUE(core::SavePipeline(pipeline, dir).ok());
  ASSERT_TRUE(core::SavePipeline(pipeline, dir).ok());
  // Bit-flip inside the newest snapshot's translator weights.
  const std::string newest = dir + "/snapshot-000002/translator.ckpt";
  ASSERT_TRUE(fs::exists(newest));
  FlipByte(newest, fs::file_size(newest) / 2);

  const int64_t fallbacks_before = CounterValue("persistence.fallback_loads");
  core::NlidbPipeline restored(config_, provider_);
  EXPECT_TRUE(core::LoadPipeline(restored, dir).ok());
  EXPECT_EQ(CounterValue("persistence.fallback_loads"), fallbacks_before + 1);
  fs::remove_all(dir);
}

TEST_F(SnapshotFixture, AllSnapshotsCorruptFailsWithIoError) {
  const std::string dir = TempDirFor("snap_all_corrupt");
  fs::remove_all(dir);
  core::NlidbPipeline pipeline(config_, provider_);
  ASSERT_TRUE(core::SavePipeline(pipeline, dir).ok());
  ASSERT_TRUE(core::SavePipeline(pipeline, dir).ok());
  for (const char* snap : {"snapshot-000001", "snapshot-000002"}) {
    const std::string ckpt = dir + "/" + snap + "/classifier.ckpt";
    ASSERT_TRUE(fs::exists(ckpt)) << ckpt;
    FlipByte(ckpt, fs::file_size(ckpt) / 2);
  }
  core::NlidbPipeline restored(config_, provider_);
  Status s = core::LoadPipeline(restored, dir);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("no complete snapshot"), std::string::npos);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Abort-free, deadline-aware queries.

class DeadlineFixture : public SnapshotFixture {
 protected:
  sql::Table FilmTable() {
    sql::Schema schema({{"film_name", sql::DataType::kText},
                        {"director", sql::DataType::kText}});
    sql::Table t("films", schema);
    EXPECT_TRUE(t.AddRow({sql::Value::Text("winter echo"),
                          sql::Value::Text("sofia garcia")})
                    .ok());
    return t;
  }
};

TEST_F(DeadlineFixture, ExpiredDeadlineReturnsDeadlineExceededWithPartial) {
  // Acceptance (c): the deadline surfaces as a Status — no abort, no
  // exception — and the partial result shows where the time went.
  core::NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  core::QueryRequest request;
  request.schema_ref = core::SchemaRef::Table(&table);
  request.question = "which film was directed by sofia garcia ?";
  request.deadline = Deadline::AfterNanos(1);  // expired at first poll
  core::QueryResult partial;
  request.partial_result = &partial;

  const int64_t exceeded_before = CounterValue("pipeline.deadline_exceeded");
  auto result = pipeline.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue("pipeline.deadline_exceeded"), exceeded_before + 1);
  // Tokenize completed before the first poll point; its timing is in
  // the partial result along with the tokens themselves.
  EXPECT_FALSE(partial.tokens.empty());
  ASSERT_FALSE(partial.stages.children.empty());
  EXPECT_EQ(partial.stages.children[0].name, "tokenize");
  EXPECT_GT(partial.stages.wall_ns, 0u);
}

TEST_F(DeadlineFixture, MillisecondDeadlineNeverAborts) {
  // A 1ms budget on a real question either finishes or comes back as
  // DeadlineExceeded — never a crash or NLIDB_CHECK abort.
  core::NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  for (int i = 0; i < 8; ++i) {
    core::QueryRequest request;
    request.schema_ref = core::SchemaRef::Table(&table);
    request.question = "which film was directed by sofia garcia ?";
    request.deadline = Deadline::AfterMillis(1);
    auto result = pipeline.Query(request);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
}

TEST_F(DeadlineFixture, ExternalCancellationStopsTheQuery) {
  core::NlidbPipeline pipeline(config_, provider_);
  sql::Table table = FilmTable();
  std::atomic<bool> cancelled{true};  // cancelled before it starts
  core::QueryRequest request;
  request.schema_ref = core::SchemaRef::Table(&table);
  request.question = "which film was directed by sofia garcia ?";
  request.cancel = &cancelled;
  auto result = pipeline.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace nlidb

#include "nn/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/file_io.h"
#include "nn/layers.h"
#include "tensor/autograd.h"

namespace nlidb {
namespace nn {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Committed corruption corpus: hand-built v1/v2 images plus truncated,
// bit-flipped, and torn variants (tests/corpus/checkpoints/README-free
// binary fixtures; shapes are one [2,3] and one [4] tensor). Version 1
// (no CRC footer) is not accepted: valid_v1.ckpt is the rejection case.
std::string CorpusPath(const char* name) {
  return std::string(NLIDB_TEST_SOURCE_DIR) + "/corpus/checkpoints/" + name;
}

std::vector<Var> CorpusShapedParams() {
  std::vector<Var> params;
  params.push_back(MakeVar(Tensor::Zeros({2, 3})));
  params.push_back(MakeVar(Tensor::Zeros({4})));
  return params;
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  Rng rng(1);
  Linear a(4, 3, rng);
  Linear b(4, 3, rng);  // different init
  const std::string path = TempPath("ckpt_roundtrip.bin");
  ASSERT_TRUE(Checkpoint::Save(path, a.Parameters()).ok());
  ASSERT_TRUE(Checkpoint::Load(path, b.Parameters()).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value.AllClose(pb[i]->value, 0.0f));
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsCountMismatch) {
  Rng rng(2);
  Linear a(4, 3, rng);
  Mlp b({4, 3, 2}, rng);
  const std::string path = TempPath("ckpt_count.bin");
  ASSERT_TRUE(Checkpoint::Save(path, a.Parameters()).ok());
  Status s = Checkpoint::Load(path, b.Parameters());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsShapeMismatch) {
  Rng rng(3);
  Linear a(4, 3, rng);
  Linear b(3, 4, rng);  // same tensor count, different shapes
  const std::string path = TempPath("ckpt_shape.bin");
  ASSERT_TRUE(Checkpoint::Save(path, a.Parameters()).ok());
  Status s = Checkpoint::Load(path, b.Parameters());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsIoError) {
  Rng rng(4);
  Linear a(2, 2, rng);
  Status s = Checkpoint::Load(TempPath("does_not_exist.bin"), a.Parameters());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(CheckpointTest, RejectsGarbageMagic) {
  const std::string path = TempPath("ckpt_garbage.bin");
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("not a checkpoint at all", f);
    fclose(f);
  }
  Rng rng(5);
  Linear a(2, 2, rng);
  Status s = Checkpoint::Load(path, a.Parameters());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(CheckpointCorpusTest, ValidV2VerifiesAndLoads) {
  EXPECT_TRUE(Checkpoint::Verify(CorpusPath("valid_v2.ckpt")).ok());
  std::vector<Var> params = CorpusShapedParams();
  ASSERT_TRUE(Checkpoint::Load(CorpusPath("valid_v2.ckpt"), params).ok());
  EXPECT_EQ(params[0]->value.vec(), std::vector<float>(6, 1.0f));
  EXPECT_EQ(params[1]->value.vec(), std::vector<float>(4, 0.0f));
}

TEST(CheckpointCorpusTest, V1IsParseErrorAndLeavesModelUntouched) {
  Status verified = Checkpoint::Verify(CorpusPath("valid_v1.ckpt"));
  EXPECT_EQ(verified.code(), StatusCode::kParseError);
  EXPECT_NE(verified.message().find("version"), std::string::npos);
  std::vector<Var> params = CorpusShapedParams();
  params[0]->value.vec().assign(6, 7.5f);
  EXPECT_EQ(Checkpoint::Load(CorpusPath("valid_v1.ckpt"), params).code(),
            StatusCode::kParseError);
  EXPECT_EQ(params[0]->value.vec(), std::vector<float>(6, 7.5f));
  EXPECT_EQ(params[1]->value.vec(), std::vector<float>(4, 0.0f));
}

TEST(CheckpointCorpusTest, TruncatedIsParseError) {
  Status s = Checkpoint::Verify(CorpusPath("truncated.ckpt"));
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST(CheckpointCorpusTest, BitFlipFailsCrc) {
  Status s = Checkpoint::Verify(CorpusPath("bitflip.ckpt"));
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("CRC"), std::string::npos);
}

TEST(CheckpointCorpusTest, TornWriteIsParseError) {
  EXPECT_EQ(Checkpoint::Verify(CorpusPath("torn.ckpt")).code(),
            StatusCode::kParseError);
}

TEST(CheckpointCorpusTest, TrailingBytesRejected) {
  // Junk between the last tensor and the footer, with a CRC that covers
  // it: the checksum passes, so the exact-end-of-payload check must be
  // what catches it.
  StatusOr<std::string> image =
      io::ReadFileToString(CorpusPath("valid_v2.ckpt"));
  ASSERT_TRUE(image.ok());
  std::string trailing = image->substr(0, image->size() - sizeof(uint32_t));
  trailing += "JUNKJUNK";
  const uint32_t crc = Crc32c(trailing.data(), trailing.size());
  trailing.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  const std::string path = TempPath("ckpt_trailing.bin");
  ASSERT_TRUE(io::WriteFileAtomic(path, trailing).ok());
  Status s = Checkpoint::Verify(path);
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("trailing bytes"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointCorpusTest, CorruptLoadNeverHalfWritesTheModel) {
  // The staged parse promises all-or-nothing: after a failed load the
  // receiving parameters are bitwise what they were before.
  std::vector<Var> params = CorpusShapedParams();
  params[0]->value.vec().assign(6, 7.5f);
  for (const char* bad : {"truncated.ckpt", "bitflip.ckpt", "torn.ckpt"}) {
    EXPECT_FALSE(Checkpoint::Load(CorpusPath(bad), params).ok()) << bad;
    EXPECT_EQ(params[0]->value.vec(), std::vector<float>(6, 7.5f)) << bad;
  }
}

}  // namespace
}  // namespace nn
}  // namespace nlidb

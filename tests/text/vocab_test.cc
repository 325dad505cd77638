#include "text/vocab.h"

#include <gtest/gtest.h>

namespace nlidb {
namespace text {
namespace {

TEST(VocabTest, SpecialTokensPreRegistered) {
  Vocab v;
  EXPECT_EQ(v.size(), 4);
  EXPECT_EQ(v.GetId("<pad>"), Vocab::kPad);
  EXPECT_EQ(v.GetId("<unk>"), Vocab::kUnk);
  EXPECT_EQ(v.GetId("<s>"), Vocab::kBos);
  EXPECT_EQ(v.GetId("</s>"), Vocab::kEos);
}

TEST(VocabTest, AddAndLookup) {
  Vocab v;
  const int id = v.AddToken("director");
  EXPECT_EQ(v.GetId("director"), id);
  EXPECT_EQ(v.GetToken(id), "director");
  EXPECT_EQ(v.AddToken("director"), id);  // idempotent
  EXPECT_TRUE(v.Contains("director"));
  EXPECT_FALSE(v.Contains("actor"));
}

TEST(VocabTest, UnknownMapsToUnk) {
  Vocab v;
  EXPECT_EQ(v.GetId("never-seen"), Vocab::kUnk);
}

TEST(VocabTest, EncodeDecodeRoundTrip) {
  Vocab v;
  for (const char* t : {"who", "won", "the", "race"}) v.AddToken(t);
  const std::vector<std::string> tokens = {"who", "won", "the", "race"};
  EXPECT_EQ(v.Decode(v.Encode(tokens)), tokens);
}

TEST(VocabTest, EncodeUnknownsAsUnk) {
  Vocab v;
  v.AddToken("known");
  auto ids = v.Encode({"known", "unknown"});
  EXPECT_EQ(ids[1], Vocab::kUnk);
}

TEST(CharVocabTest, StableIdsForAlphabet) {
  CharVocab v;
  EXPECT_EQ(v.GetId('a'), 1);
  EXPECT_EQ(v.GetId('z'), 26);
  EXPECT_EQ(v.GetId('0'), 27);
  EXPECT_EQ(v.GetId('9'), 36);
  EXPECT_GT(v.size(), 36);
}

TEST(CharVocabTest, UnknownCharsShareBucketZero) {
  CharVocab v;
  EXPECT_EQ(v.GetId('!'), 0);
  EXPECT_EQ(v.GetId('%'), 0);
}

TEST(CharVocabTest, EncodeNeverEmpty) {
  CharVocab v;
  EXPECT_EQ(v.Encode("").size(), 1u);
  EXPECT_EQ(v.Encode("ab"), (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace text
}  // namespace nlidb

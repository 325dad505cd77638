#include "text/distance.h"

#include <gtest/gtest.h>

#include "text/stopwords.h"

namespace nlidb {
namespace text {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("", "ab"), 2);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("actor", "actress"), 4);
  EXPECT_EQ(EditDistance("same", "same"), 0);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("director", "directed"),
            EditDistance("directed", "director"));
}

TEST(EditSimilarityTest, Range) {
  EXPECT_FLOAT_EQ(EditSimilarity("abc", "abc"), 1.0f);
  EXPECT_FLOAT_EQ(EditSimilarity("", ""), 1.0f);
  EXPECT_FLOAT_EQ(EditSimilarity("abc", "xyz"), 0.0f);
  // "best actor 2011" vs "best actress of year 2011" style fuzziness.
  EXPECT_GT(EditSimilarity("best actor 2011", "best actor in 2011"), 0.7f);
}

TEST(PhraseCosineTest, ParaphraseCloserThanUnrelated) {
  EmbeddingProvider p(48);
  p.AddCluster("population",
               {"population", "people", "live", "inhabitants"});
  const std::vector<std::string> column = {"population"};
  const std::vector<std::string> paraphrase = {"people", "live"};
  const std::vector<std::string> unrelated = {"banana", "bread"};
  EXPECT_GT(PhraseCosine(p, column, paraphrase),
            PhraseCosine(p, column, unrelated));
}

TEST(StopWordsTest, FunctionWordsAreStops) {
  for (const char* w : {"the", "a", "of", "in", "did", "who", "how", "many",
                        "?", "more", "than", "fewer"}) {
    EXPECT_TRUE(IsStopWord(w)) << w;
  }
}

TEST(StopWordsTest, ContentWordsAreNot) {
  for (const char* w : {"film", "director", "mayo", "1225", "population",
                        "total", "gold"}) {
    EXPECT_FALSE(IsStopWord(w)) << w;
  }
}

}  // namespace
}  // namespace text
}  // namespace nlidb

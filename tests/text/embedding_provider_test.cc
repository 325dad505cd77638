#include "text/embedding_provider.h"

#include <gtest/gtest.h>

#include "data/domain.h"

namespace nlidb {
namespace text {
namespace {

TEST(EmbeddingProviderTest, DeterministicAcrossInstances) {
  EmbeddingProvider a(32, 7), b(32, 7);
  EXPECT_EQ(a.Vector("director"), b.Vector("director"));
}

TEST(EmbeddingProviderTest, DifferentSeedsGiveDifferentSpaces) {
  EmbeddingProvider a(32, 7), b(32, 8);
  EXPECT_NE(a.Vector("director"), b.Vector("director"));
}

TEST(EmbeddingProviderTest, UnitNormVectors) {
  EmbeddingProvider p(48);
  float n = 0.0f;
  for (float x : p.Vector("anything")) n += x * x;
  EXPECT_NEAR(n, 1.0f, 1e-4f);
}

TEST(EmbeddingProviderTest, ClusterMembersAreClose) {
  EmbeddingProvider p(48);
  p.AddCluster("film", {"film", "movie", "picture"});
  const float related = p.WordSimilarity("film", "movie");
  const float unrelated = p.WordSimilarity("film", "penguin");
  EXPECT_GT(related, 0.75f);
  EXPECT_LT(unrelated, 0.4f);
  EXPECT_GT(related, unrelated + 0.3f);
}

TEST(EmbeddingProviderTest, MultiClusterMembership) {
  EmbeddingProvider p(48);
  p.AddCluster("a", {"shared", "aa"});
  p.AddCluster("b", {"shared", "bb"});
  // "shared" sits between both clusters: similar to members of each.
  EXPECT_GT(p.WordSimilarity("shared", "aa"), 0.4f);
  EXPECT_GT(p.WordSimilarity("shared", "bb"), 0.4f);
}

TEST(EmbeddingProviderTest, NumbersClusterTogether) {
  EmbeddingProvider p(48);
  const float close_mag = p.WordSimilarity("1225", "4100");  // same magnitude
  const float far_mag = p.WordSimilarity("1225", "3");
  const float num_vs_word = p.WordSimilarity("1225", "giraffe");
  EXPECT_GT(close_mag, far_mag);
  EXPECT_GT(far_mag, num_vs_word);
  EXPECT_GT(close_mag, 0.7f);
}

TEST(EmbeddingProviderTest, PhraseVectorIsMeanOfWords) {
  EmbeddingProvider p(8);
  auto a = p.Vector("alpha");
  auto b = p.Vector("beta");
  auto phrase = p.PhraseVector({"alpha", "beta"});
  for (int j = 0; j < 8; ++j) {
    EXPECT_NEAR(phrase[j], 0.5f * (a[j] + b[j]), 1e-5f);
  }
  EXPECT_EQ(p.PhraseVector({}), std::vector<float>(8, 0.0f));
}

TEST(EmbeddingProviderTest, CosineBasics) {
  std::vector<float> x = {1, 0}, y = {0, 1}, z = {2, 0};
  EXPECT_NEAR(EmbeddingProvider::Cosine(x, y), 0.0f, 1e-6f);
  EXPECT_NEAR(EmbeddingProvider::Cosine(x, z), 1.0f, 1e-6f);
  std::vector<float> zero = {0, 0};
  EXPECT_EQ(EmbeddingProvider::Cosine(x, zero), 0.0f);
}

TEST(DefaultLexiconTest, CoversQuestionWordBridges) {
  EmbeddingProvider p(48);
  p.AddClusters(DefaultLexicon());
  // "when" should be close to "date"; "population" close to "live".
  EXPECT_GT(p.WordSimilarity("when", "date"), 0.6f);
  EXPECT_GT(p.WordSimilarity("population", "live"), 0.6f);
  EXPECT_GT(p.WordSimilarity("directed", "director"), 0.6f);
  EXPECT_GT(p.WordSimilarity("golfer", "athlete"), 0.6f);
  // Medal colors must stay separable.
  EXPECT_LT(p.WordSimilarity("gold", "bronze"), 0.75f);
}

TEST(DomainClustersTest, ValuePoolsBecomeClusters) {
  EmbeddingProvider p(48);
  data::RegisterDomainClusters(p);
  // Two first names should be close; a first name and a cuisine far.
  EXPECT_GT(p.WordSimilarity("piotr", "sofia"), 0.6f);
  EXPECT_LT(p.WordSimilarity("piotr", "thai"), 0.5f);
}

}  // namespace
}  // namespace text
}  // namespace nlidb

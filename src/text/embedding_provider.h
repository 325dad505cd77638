#ifndef NLIDB_TEXT_EMBEDDING_PROVIDER_H_
#define NLIDB_TEXT_EMBEDDING_PROVIDER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace nlidb {
namespace text {

/// A named cluster of semantically related words ("concept_name").
struct LexiconCluster {
  std::string concept_name;
  std::vector<std::string> members;
};

/// Deterministic pre-trained-style word embeddings.
///
/// The paper initializes its models with GloVe-300 and relies on the
/// property that semantically related words are close in embedding space
/// (its "semantic distance" and the column-statistics vectors both consume
/// this). No embedding files exist offline, so this provider synthesizes
/// the same property deterministically: every word gets a unit-norm
/// hash-seeded vector, and words registered in a concept_name cluster are pulled
/// toward the cluster centroid, making synonyms/co-hyponyms close while
/// unrelated words stay near-orthogonal. Numeric tokens share a "<number>"
/// concept_name with a magnitude-bucket component so that numbers resemble each
/// other more than they resemble words.
class EmbeddingProvider {
 public:
  explicit EmbeddingProvider(int dim = 48, uint64_t seed = 0xA11CE5EEDULL);

  /// Registers `members` as belonging to `concept_name`. A word may belong to
  /// several concepts; its vector is pulled toward the mean of their
  /// centroids. Setup only: it clears the vector cache, which frees every
  /// reference `Vector` has returned, so call it before any lookup whose
  /// result is kept, and never while other threads use the provider.
  void AddCluster(const std::string& concept_name,
                  const std::vector<std::string>& members);

  /// Registers every cluster in `clusters`.
  void AddClusters(const std::vector<LexiconCluster>& clusters);

  /// The embedding of `word` (lowercased by the caller). Cached; the
  /// reference stays valid until the next `AddCluster`.
  const std::vector<float>& Vector(const std::string& word) const;

  /// Mean of the word vectors of `words` (empty -> zero vector).
  std::vector<float> PhraseVector(const std::vector<std::string>& words) const;

  /// Cosine similarity in [-1, 1]; 0 when either vector is zero.
  static float Cosine(const std::vector<float>& a, const std::vector<float>& b);

  /// Cosine similarity between two single words.
  float WordSimilarity(const std::string& a, const std::string& b) const;

  int dim() const { return dim_; }

 private:
  std::vector<float> HashVector(const std::string& key) const;
  /// Pure function of (word, concepts, dim_, seed_): the caller snapshots
  /// the word's concept list under mu_ and computes outside the lock, so
  /// cache misses of different words do not serialize across workers.
  std::vector<float> ComputeVector(const std::string& word,
                                   std::vector<std::string> concepts) const;

  const int dim_;
  const uint64_t seed_;
  // Vector() lazily fills cache_ from const call sites, so concurrent
  // lookups (serving workers sharing one pipeline) race without a lock.
  // mu_ guards the cache map and the concept registry; the expensive
  // vector computation runs outside the critical section on a snapshot.
  // Returned references stay valid across later cache insertions because
  // unordered_map never moves its nodes; AddCluster's clear frees them.
  mutable Mutex mu_;
  // word -> list of concepts it belongs to. Written by AddCluster
  // (setup/training time; it also clears cache_ under mu_), snapshotted
  // under mu_ by Vector() on a cache miss.
  std::unordered_map<std::string, std::vector<std::string>> word_concepts_
      NLIDB_GUARDED_BY(mu_);
  mutable std::unordered_map<std::string, std::vector<float>> cache_
      NLIDB_GUARDED_BY(mu_);
};

/// Built-in linguistic lexicon: question words, copular/aggregate phrases,
/// and domain-neutral concept_name clusters used by both the embedding provider
/// and the synthetic data generators. Value-word pools (names, cities, ...)
/// are registered separately by the data module.
const std::vector<LexiconCluster>& DefaultLexicon();

}  // namespace text
}  // namespace nlidb

#endif  // NLIDB_TEXT_EMBEDDING_PROVIDER_H_

#include "text/embedding_provider.h"

#include <cmath>
#include <cstdlib>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"

namespace nlidb {
namespace text {

namespace {

void Normalize(std::vector<float>& v) {
  float n = 0.0f;
  for (float x : v) n += x * x;
  n = std::sqrt(n);
  if (n > 1e-8f) {
    for (float& x : v) x /= n;
  }
}

/// Buckets a numeric token by order of magnitude so "1225" and "4100" are
/// closer to each other than to "64%"-scale numbers.
std::string MagnitudeBucket(const std::string& word) {
  char* end = nullptr;
  double value = std::strtod(word.c_str(), &end);
  if (end == word.c_str()) return "<number>";
  value = std::fabs(value);
  int bucket = 0;
  while (value >= 10.0 && bucket < 9) {
    value /= 10.0;
    ++bucket;
  }
  return "<number-e" + std::to_string(bucket) + ">";
}

}  // namespace

EmbeddingProvider::EmbeddingProvider(int dim, uint64_t seed)
    : dim_(dim), seed_(seed) {
  NLIDB_CHECK(dim_ > 0) << "EmbeddingProvider dim";
}

void EmbeddingProvider::AddCluster(const std::string& concept_name,
                                   const std::vector<std::string>& members) {
  MutexLock lock(mu_);
  for (const auto& raw : members) {
    const std::string word = ToLower(raw);
    auto& concepts = word_concepts_[word];
    bool present = false;
    for (const auto& c : concepts) present = present || c == concept_name;
    if (!present) concepts.push_back(concept_name);
  }
  cache_.clear();
}

void EmbeddingProvider::AddClusters(const std::vector<LexiconCluster>& clusters) {
  for (const auto& c : clusters) AddCluster(c.concept_name, c.members);
}

std::vector<float> EmbeddingProvider::HashVector(const std::string& key) const {
  Rng rng(Fnv1aHash(key) ^ seed_);
  std::vector<float> v(dim_);
  for (float& x : v) x = rng.NextGaussian();
  Normalize(v);
  return v;
}

std::vector<float> EmbeddingProvider::ComputeVector(
    const std::string& word, std::vector<std::string> concepts) const {
  std::vector<float> base = HashVector(word);
  if (LooksNumeric(word)) {
    concepts.push_back("<number>");
    concepts.push_back(MagnitudeBucket(word));
  }
  if (concepts.empty()) return base;
  std::vector<float> centroid(dim_, 0.0f);
  for (const auto& c : concepts) {
    std::vector<float> cv = HashVector("<concept_name>:" + c);
    for (int j = 0; j < dim_; ++j) centroid[j] += cv[j];
  }
  Normalize(centroid);
  // 0.75 cluster pull / 0.25 word identity keeps cluster members at cosine
  // ~0.8+ with each other while staying distinguishable.
  std::vector<float> out(dim_);
  for (int j = 0; j < dim_; ++j) out[j] = 0.75f * centroid[j] + 0.25f * base[j];
  Normalize(out);
  return out;
}

const std::vector<float>& EmbeddingProvider::Vector(
    const std::string& word) const {
  std::vector<std::string> concepts;
  {
    MutexLock lock(mu_);
    auto it = cache_.find(word);
    if (it != cache_.end()) return it->second;
    // Miss: snapshot the word's concept list under the same lock as the
    // cache probe, so the vector we compute is consistent with the
    // registry state the miss was observed against.
    auto wc = word_concepts_.find(word);
    if (wc != word_concepts_.end()) concepts = wc->second;
  }
  // Compute outside the lock (ComputeVector is pure given the snapshot),
  // then publish. Two threads may compute the same word; the loser's
  // identical copy is discarded by try_emplace.
  std::vector<float> v = ComputeVector(word, std::move(concepts));
  MutexLock lock(mu_);
  return cache_.try_emplace(word, std::move(v)).first->second;
}

std::vector<float> EmbeddingProvider::PhraseVector(
    const std::vector<std::string>& words) const {
  std::vector<float> out(dim_, 0.0f);
  if (words.empty()) return out;
  for (const auto& w : words) {
    const auto& v = Vector(w);
    for (int j = 0; j < dim_; ++j) out[j] += v[j];
  }
  const float inv = 1.0f / static_cast<float>(words.size());
  for (float& x : out) x *= inv;
  return out;
}

float EmbeddingProvider::Cosine(const std::vector<float>& a,
                                const std::vector<float>& b) {
  NLIDB_CHECK(a.size() == b.size()) << "Cosine dim mismatch";
  float dot = 0.0f, na = 0.0f, nb = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na < 1e-12f || nb < 1e-12f) return 0.0f;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

float EmbeddingProvider::WordSimilarity(const std::string& a,
                                        const std::string& b) const {
  return Cosine(Vector(ToLower(a)), Vector(ToLower(b)));
}

}  // namespace text
}  // namespace nlidb

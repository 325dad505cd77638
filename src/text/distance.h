#ifndef NLIDB_TEXT_DISTANCE_H_
#define NLIDB_TEXT_DISTANCE_H_

#include <string>
#include <string_view>
#include <vector>

#include "text/embedding_provider.h"

namespace nlidb {
namespace text {

/// Levenshtein edit distance (substitution/insertion/deletion, unit cost).
int EditDistance(std::string_view a, std::string_view b);

/// 1 - EditDistance / max(len): 1 for identical strings, 0 for disjoint.
float EditSimilarity(std::string_view a, std::string_view b);

/// Cosine similarity between phrase embeddings; the context-free mention
/// matching in Sec. VII-A1 uses this alongside edit distance.
float PhraseCosine(const EmbeddingProvider& provider,
                   const std::vector<std::string>& a,
                   const std::vector<std::string>& b);

}  // namespace text
}  // namespace nlidb

#endif  // NLIDB_TEXT_DISTANCE_H_

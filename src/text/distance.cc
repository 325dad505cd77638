#include "text/distance.h"

#include <algorithm>
#include <cmath>

#include "common/workspace.h"

namespace nlidb {
namespace text {

int EditDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);
  std::vector<int> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({sub, prev[j] + 1, cur[j - 1] + 1});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

float EditSimilarity(std::string_view a, std::string_view b) {
  const size_t mx = std::max(a.size(), b.size());
  if (mx == 0) return 1.0f;
  return 1.0f - static_cast<float>(EditDistance(a, b)) /
                    static_cast<float>(mx);
}

float PhraseCosine(const EmbeddingProvider& provider,
                   const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  // The annotator's context-free pass evaluates this for every
  // (window, column) pair of a request, so the phrase means are staged in
  // the thread-local arena: after the first request no call allocates.
  // Accumulation order matches PhraseVector + Cosine exactly.
  Workspace& ws = Workspace::ThreadLocal();
  Workspace::Scope scope(ws);
  const int dim = provider.dim();
  float* va = ws.Floats(static_cast<size_t>(dim));
  float* vb = ws.Floats(static_cast<size_t>(dim));
  auto mean_into = [&](const std::vector<std::string>& words, float* out) {
    if (words.empty()) return;
    for (const auto& w : words) {
      const std::vector<float>& v = provider.Vector(w);
      for (int j = 0; j < dim; ++j) out[j] += v[j];
    }
    const float inv = 1.0f / static_cast<float>(words.size());
    for (int j = 0; j < dim; ++j) out[j] *= inv;
  };
  mean_into(a, va);
  mean_into(b, vb);
  float dot = 0.0f, na = 0.0f, nb = 0.0f;
  for (int j = 0; j < dim; ++j) {
    dot += va[j] * vb[j];
    na += va[j] * va[j];
    nb += vb[j] * vb[j];
  }
  if (na < 1e-12f || nb < 1e-12f) return 0.0f;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace text
}  // namespace nlidb

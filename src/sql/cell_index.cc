#include "sql/cell_index.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/strings.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace sql {

CellIndex CellIndex::Build(const Table& table) {
  CellIndex index(table.num_columns());
  for (int c = 0; c < table.num_columns(); ++c) {
    std::unordered_set<std::string> distinct;
    for (int r = 0; r < table.num_rows(); ++r) {
      const std::string display = table.Cell(r, c).ToString();
      if (distinct.insert(ToLower(display)).second) {
        index.Add(r, c, text::Tokenize(display));
      }
    }
  }
  index.Seal();
  return index;
}

uint32_t CellIndex::HashToken(uint32_t hash, std::string_view token) {
  // FNV-1a over " t1 t2 ...": the separator before each token keeps
  // {"ab", "c"} and {"a", "bc"} apart (tokens never contain spaces).
  constexpr uint32_t kPrime = 16777619u;
  hash = (hash ^ static_cast<uint8_t>(' ')) * kPrime;
  for (char ch : token) hash = (hash ^ static_cast<uint8_t>(ch)) * kPrime;
  return hash;
}

void CellIndex::Add(int row, int col,
                    const std::vector<std::string>& tokens) {
  if (tokens.empty() || tokens.size() > static_cast<size_t>(kMaxTokens)) {
    return;
  }
  const uint64_t cell = static_cast<uint64_t>(row) *
                            static_cast<uint64_t>(num_columns_) +
                        static_cast<uint64_t>(col);
  NLIDB_CHECK(col >= 0 && col < num_columns_ && cell <= UINT32_MAX)
      << "cell (" << row << ", " << col << ") out of index range";
  uint32_t hash = kHashSeed;
  for (const std::string& t : tokens) hash = HashToken(hash, t);
  entries_.push_back({hash, static_cast<uint32_t>(cell)});
}

void CellIndex::Seal() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.cell < b.cell;
            });
  entries_.shrink_to_fit();
}

std::span<const CellIndex::Entry> CellIndex::Find(uint32_t hash) const {
  const auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), hash,
      [](const Entry& e, uint32_t h) { return e.hash < h; });
  auto hi = lo;
  while (hi != entries_.end() && hi->hash == hash) ++hi;
  return {lo, hi};
}

}  // namespace sql
}  // namespace nlidb

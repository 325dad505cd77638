#ifndef NLIDB_SQL_CELL_INDEX_H_
#define NLIDB_SQL_CELL_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sql/table.h"

namespace nlidb {
namespace sql {

/// Exact-value index of one table's cells: the lookup side of the
/// annotator's exact cell-value matching (core::ExactCellValueMatches).
///
/// Holds one 8-byte entry per distinct (column, lower-cased display)
/// whose display tokenizes to 1..kMaxTokens tokens: a 32-bit hash of
/// those tokens and the position of the first row showing that display.
/// A lookup returns hash candidates only; callers check each candidate
/// against the table's actual cell, so a hash collision never yields a
/// match. Built once per table content, next to the column statistics
/// (sql/statistics.h), and immutable afterwards.
class CellIndex {
 public:
  /// Longest cell, in tokens, that exact matching considers.
  static constexpr int kMaxTokens = 5;
  /// Hash of the empty token sequence.
  static constexpr uint32_t kHashSeed = 2166136261u;

  struct Entry {
    uint32_t hash;
    uint32_t cell;  // row * num_columns + column
  };

  CellIndex() = default;
  explicit CellIndex(int num_columns) : num_columns_(num_columns) {}

  /// The index of every cell of `table`.
  static CellIndex Build(const Table& table);

  /// Extends the hash of a token sequence by one token:
  /// HashToken(HashToken(kHashSeed, "july"), "17") hashes {"july", "17"}.
  static uint32_t HashToken(uint32_t hash, std::string_view token);

  /// Records cell (row, col), whose display tokenizes to `tokens`.
  /// Builders call it once per distinct (column, lower-cased display),
  /// at the display's first row; cells of 0 or more than kMaxTokens
  /// tokens are skipped. Call Seal() after the last Add.
  void Add(int row, int col, const std::vector<std::string>& tokens);

  /// Sorts the entries for lookup and releases spare capacity.
  void Seal();

  /// Entries whose hash equals `hash`, in (row, column) order.
  std::span<const Entry> Find(uint32_t hash) const;

  int row(const Entry& e) const {
    return static_cast<int>(e.cell / static_cast<uint32_t>(num_columns_));
  }
  int column(const Entry& e) const {
    return static_cast<int>(e.cell % static_cast<uint32_t>(num_columns_));
  }
  size_t size() const { return entries_.size(); }

 private:
  int num_columns_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace sql
}  // namespace nlidb

#endif  // NLIDB_SQL_CELL_INDEX_H_

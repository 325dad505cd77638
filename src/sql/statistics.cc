#include "sql/statistics.h"

#include <algorithm>
#include <unordered_set>

#include "common/strings.h"
#include "text/tokenizer.h"

namespace nlidb {
namespace sql {

ColumnStatistics ComputeColumnStatistics(
    const Table& table, int col, const text::EmbeddingProvider& provider,
    CellIndex* cells) {
  ColumnStatistics stats;
  const ColumnDef& def = table.schema().column(col);
  stats.column_name = def.name;
  stats.type = def.type;
  stats.embedding.assign(provider.dim(), 0.0f);

  std::unordered_set<std::string> distinct;
  double sum = 0.0;
  double mn = 0.0, mx = 0.0;
  bool first_number = true;
  int total_tokens = 0;
  const int rows = table.num_rows();
  for (int r = 0; r < rows; ++r) {
    const Value& cell = table.Cell(r, col);
    const std::string display = cell.ToString();
    const bool first_seen = distinct.insert(ToLower(display)).second;
    const std::vector<std::string> words = text::Tokenize(display);
    if (cells != nullptr && first_seen) cells->Add(r, col, words);
    total_tokens += static_cast<int>(words.size());
    const std::vector<float> cell_vec = provider.PhraseVector(words);
    for (int j = 0; j < provider.dim(); ++j) stats.embedding[j] += cell_vec[j];
    if (cell.is_real()) {
      const double x = cell.number();
      sum += x;
      if (first_number) {
        mn = mx = x;
        first_number = false;
      } else {
        mn = std::min(mn, x);
        mx = std::max(mx, x);
      }
    }
  }
  if (rows > 0) {
    const float inv = 1.0f / static_cast<float>(rows);
    for (float& x : stats.embedding) x *= inv;
    stats.avg_tokens_per_cell = static_cast<float>(total_tokens) / rows;
  }
  stats.distinct_count = static_cast<int>(distinct.size());
  if (stats.type == DataType::kReal && rows > 0) {
    stats.min_value = mn;
    stats.max_value = mx;
    stats.mean_value = sum / rows;
  }
  return stats;
}

std::vector<ColumnStatistics> ComputeTableStatistics(
    const Table& table, const text::EmbeddingProvider& provider,
    CellIndex* cells) {
  if (cells != nullptr) *cells = CellIndex(table.num_columns());
  std::vector<ColumnStatistics> out;
  out.reserve(table.num_columns());
  for (int c = 0; c < table.num_columns(); ++c) {
    out.push_back(ComputeColumnStatistics(table, c, provider, cells));
  }
  if (cells != nullptr) cells->Seal();
  return out;
}

}  // namespace sql
}  // namespace nlidb

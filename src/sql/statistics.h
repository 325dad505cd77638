#ifndef NLIDB_SQL_STATISTICS_H_
#define NLIDB_SQL_STATISTICS_H_

#include <string>
#include <vector>

#include "sql/cell_index.h"
#include "sql/table.h"
#include "text/embedding_provider.h"

namespace nlidb {
namespace sql {

/// Aggregate statistics of one column — the paper's "database statistics"
/// metadata (Sec. II) used by the value detector (Sec. IV-D).
///
/// `embedding` is s_c: the dimension-wise mean over cells of the
/// dimension-wise mean over each cell's word embeddings. By construction
/// it carries O(1) information regardless of column size, so detection
/// works for counterfactual values that never occur in the table.
struct ColumnStatistics {
  std::string column_name;
  DataType type = DataType::kText;
  std::vector<float> embedding;  // s_c
  int distinct_count = 0;
  float avg_tokens_per_cell = 0.0f;
  // Numeric profile (zeroed for text columns).
  double min_value = 0.0;
  double max_value = 0.0;
  double mean_value = 0.0;
};

/// Computes statistics for column `col` of `table` using `provider` for
/// word embeddings. Empty columns produce a zero embedding. When `cells`
/// is non-null, each distinct cell of the column is also added to it,
/// from the tokens the statistics already computed (the caller seals it).
ColumnStatistics ComputeColumnStatistics(
    const Table& table, int col, const text::EmbeddingProvider& provider,
    CellIndex* cells = nullptr);

/// Statistics for every column of `table`. When `cells` is non-null it
/// receives the table's sealed exact-value index, built in the same pass.
std::vector<ColumnStatistics> ComputeTableStatistics(
    const Table& table, const text::EmbeddingProvider& provider,
    CellIndex* cells = nullptr);

}  // namespace sql
}  // namespace nlidb

#endif  // NLIDB_SQL_STATISTICS_H_

#include "schema/fingerprint.h"

#include <string>

#include "common/crc32c.h"

namespace nlidb {
namespace schema {

namespace {

/// Length-prefixed append: framing keeps ("ab","c") and ("a","bc") from
/// colliding, and a zero-length field from vanishing.
uint32_t CrcString(uint32_t crc, const std::string& s) {
  const uint32_t len = static_cast<uint32_t>(s.size());
  crc = Crc32c(&len, sizeof(len), crc);
  return Crc32c(s.data(), s.size(), crc);
}

uint32_t CrcU32(uint32_t crc, uint32_t v) {
  return Crc32c(&v, sizeof(v), crc);
}

}  // namespace

uint32_t SchemaFingerprint(const sql::Schema& schema) {
  uint32_t crc = CrcU32(0, static_cast<uint32_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    const sql::ColumnDef& def = schema.column(c);
    crc = CrcString(crc, def.name);
    crc = CrcU32(crc, static_cast<uint32_t>(def.type));
  }
  return crc;
}

uint64_t TableFingerprint(const sql::Table& table,
                          const FingerprintOptions& options) {
  const uint32_t schema_crc = SchemaFingerprint(table.schema());

  const int rows = table.num_rows();
  const int cols = table.num_columns();
  const size_t total_cells =
      static_cast<size_t>(rows) * static_cast<size_t>(cols);
  // Stride sampling only past max_cells; stride 1 (every row) otherwise.
  size_t row_stride = 1;
  if (cols > 0 && total_cells > options.max_cells) {
    const size_t max_rows = options.max_cells / static_cast<size_t>(cols);
    row_stride = max_rows > 0 ? (static_cast<size_t>(rows) + max_rows - 1) /
                                    max_rows
                              : static_cast<size_t>(rows);
  }

  uint32_t cell_crc = CrcU32(0, static_cast<uint32_t>(rows));
  for (int r = 0; r < rows; r = static_cast<int>(r + row_stride)) {
    cell_crc = CrcU32(cell_crc, static_cast<uint32_t>(r));
    for (int c = 0; c < cols; ++c) {
      cell_crc = CrcString(cell_crc, table.Cell(r, c).ToString());
    }
  }
  // The last row is the likeliest to change under append-style mutation;
  // make sure sampling never skips it.
  if (rows > 0 && row_stride > 1 && (rows - 1) % row_stride != 0) {
    const int r = rows - 1;
    cell_crc = CrcU32(cell_crc, static_cast<uint32_t>(r));
    for (int c = 0; c < cols; ++c) {
      cell_crc = CrcString(cell_crc, table.Cell(r, c).ToString());
    }
  }
  return (static_cast<uint64_t>(schema_crc) << 32) |
         static_cast<uint64_t>(cell_crc);
}

}  // namespace schema
}  // namespace nlidb

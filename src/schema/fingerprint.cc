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

uint64_t TableFingerprint(const sql::Table& table) {
  const uint32_t schema_crc = SchemaFingerprint(table.schema());
  const int rows = table.num_rows();
  const int cols = table.num_columns();
  uint32_t cell_crc = CrcU32(0, static_cast<uint32_t>(rows));
  for (int r = 0; r < rows; ++r) {
    cell_crc = CrcU32(cell_crc, static_cast<uint32_t>(r));
    for (int c = 0; c < cols; ++c) {
      // The typed value, not its display: Text("3") and Real(3) differ,
      // and so do reals that print alike under %g.
      const sql::Value& cell = table.Cell(r, c);
      cell_crc = CrcU32(cell_crc, static_cast<uint32_t>(cell.type()));
      if (cell.is_text()) {
        cell_crc = CrcString(cell_crc, cell.text());
      } else {
        const double number = cell.number();
        cell_crc = Crc32c(&number, sizeof(number), cell_crc);
      }
    }
  }
  return (static_cast<uint64_t>(schema_crc) << 32) |
         static_cast<uint64_t>(cell_crc);
}

}  // namespace schema
}  // namespace nlidb

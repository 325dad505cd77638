#ifndef NLIDB_SCHEMA_FINGERPRINT_H_
#define NLIDB_SCHEMA_FINGERPRINT_H_

#include <cstdint>

#include "sql/table.h"

namespace nlidb {
namespace schema {

/// Content fingerprint of a table: CRC32C over the schema (column names
/// and types) in the high 32 bits, CRC32C over every cell's typed value
/// (a type tag, then the length-prefixed text or the double's 8 bytes;
/// rows framed) in the low 32 bits. Deterministic
/// across processes and runs; independent of the table's address and
/// name, so two tables with identical content share a fingerprint (and
/// may share precomputed statistics — statistics are a pure function of
/// content). Every cell is hashed, so a changed cell anywhere changes
/// the fingerprint and stale statistics are never served.
uint64_t TableFingerprint(const sql::Table& table);

/// Schema-only CRC32C (the high word of TableFingerprint).
uint32_t SchemaFingerprint(const sql::Schema& schema);

}  // namespace schema
}  // namespace nlidb

#endif  // NLIDB_SCHEMA_FINGERPRINT_H_

#ifndef NLIDB_COMMON_CRC32C_H_
#define NLIDB_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace nlidb {

/// CRC32C (Castagnoli) of `n` bytes, chainable via `crc` for streaming.
/// Checksums every persisted artifact (common/file_io.h) and keys the
/// schema registry's content fingerprints (schema/fingerprint.h).
uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0);

}  // namespace nlidb

#endif  // NLIDB_COMMON_CRC32C_H_

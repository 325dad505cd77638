#ifndef NLIDB_COMMON_FILE_IO_H_
#define NLIDB_COMMON_FILE_IO_H_

// Checked, crash-safe file writing (DESIGN.md "Fault-tolerance
// architecture"). Every persistent artifact in src/ goes through this
// layer — the raw-file-write lint rule bans std::ofstream elsewhere —
// so disk-full surfaces as a Status and a crash mid-write can never
// tear a previously-good file: content lands in "<path>.tmp", is
// fsync'd, and only then renamed over the destination.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace nlidb {
namespace io {

/// Buffered atomic file writer: Append accumulates bytes (and a running
/// CRC32C); Commit writes "<path>.tmp", fsyncs, and renames it over
/// `path`. Nothing touches `path` before Commit, so a crash or error at
/// any point leaves the previous file intact. Failpoint sites
/// "<failpoint_prefix>/commit" (fired before the write; `torn_write`
/// commits a half-truncated, unsynced file to model a torn write that
/// survived rename) and "<failpoint_prefix>/before_rename" (fired after
/// the temp file is durable; `error`/`crash` here model dying between
/// temp-write and rename, leaving only the temp file behind).
class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(std::string path,
                            std::string failpoint_prefix = "io");
  ~AtomicFileWriter();  // removes the temp file if not committed

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  Status Append(const void* data, size_t n);
  Status Append(std::string_view s) { return Append(s.data(), s.size()); }

  /// CRC32C of everything appended so far. Lets formats embed a footer
  /// checksum over their own header+payload.
  uint32_t crc() const { return crc_; }

  /// Write + fsync + rename. After an error the destination is
  /// untouched (a temp file may remain when the failure was injected
  /// between write and rename, exactly as a real crash would leave it).
  Status Commit();

 private:
  std::string path_;
  std::string temp_path_;
  std::string failpoint_prefix_;
  std::string buffer_;
  uint32_t crc_ = 0;
  bool committed_ = false;
  bool keep_temp_ = false;  // injected pre-rename death: leave the temp
};

/// One-shot convenience over AtomicFileWriter.
Status WriteFileAtomic(const std::string& path, std::string_view contents,
                       const std::string& failpoint_prefix = "io");

/// Reads a whole file; IoError when it cannot be opened or read.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace io
}  // namespace nlidb

#endif  // NLIDB_COMMON_FILE_IO_H_

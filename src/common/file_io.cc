#include "common/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace nlidb {
namespace io {

namespace {

metrics::Counter& AtomicWrites() {
  static metrics::Counter& c =
      metrics::MetricsRegistry::Global().GetCounter("io.atomic_writes");
  return c;
}

metrics::Counter& AtomicWriteFailures() {
  static metrics::Counter& c =
      metrics::MetricsRegistry::Global().GetCounter("io.atomic_write_failures");
  return c;
}

std::string Errno() { return std::strerror(errno); }

// Best-effort directory durability: the rename itself is only durable
// once the parent directory entry is synced. Failure here (e.g. a
// filesystem that refuses O_DIRECTORY fsync) degrades durability, not
// correctness, so it is not surfaced as an error.
void FsyncParentDir(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(std::string path,
                                   std::string failpoint_prefix)
    : path_(std::move(path)),
      temp_path_(path_ + ".tmp"),
      failpoint_prefix_(std::move(failpoint_prefix)) {
  failpoint::InitFromEnv();
}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_ && !keep_temp_) std::remove(temp_path_.c_str());
}

Status AtomicFileWriter::Append(const void* data, size_t n) {
  if (committed_) {
    return Status::FailedPrecondition("Append after Commit: " + path_);
  }
  crc_ = Crc32c(data, n, crc_);
  buffer_.append(static_cast<const char*>(data), n);
  return Status::Ok();
}

Status AtomicFileWriter::Commit() {
  if (committed_) {
    return Status::FailedPrecondition("Commit called twice: " + path_);
  }
  bool torn = false;
  {
    const failpoint::Action a =
        failpoint::Fire((failpoint_prefix_ + "/commit").c_str());
    switch (a.kind) {
      case failpoint::ActionKind::kError:
        AtomicWriteFailures().Increment();
        return Status::IoError("injected failpoint error at " +
                               failpoint_prefix_ + "/commit");
      case failpoint::ActionKind::kCrash:
        NLIDB_LOG(Error) << "failpoint crash at " << failpoint_prefix_
                         << "/commit";
        std::_Exit(134);
      case failpoint::ActionKind::kTornWrite:
        torn = true;
        break;
      default:
        break;
    }
  }
  // A torn write models a crash after rename but before the data blocks
  // hit disk: half the payload, no fsync, rename proceeds. Readers must
  // catch it by checksum, never by trusting the file's presence.
  std::string_view payload(buffer_);
  if (torn) payload = payload.substr(0, payload.size() / 2);

  const int fd = ::open(temp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    AtomicWriteFailures().Increment();
    return Status::IoError("cannot open for write (" + Errno() +
                           "): " + temp_path_);
  }
  size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + off, payload.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = Errno();
      ::close(fd);
      std::remove(temp_path_.c_str());
      AtomicWriteFailures().Increment();
      return Status::IoError("write failed (" + err + "): " + temp_path_);
    }
    off += static_cast<size_t>(n);
  }
  if (!torn && ::fsync(fd) != 0) {
    const std::string err = Errno();
    ::close(fd);
    std::remove(temp_path_.c_str());
    AtomicWriteFailures().Increment();
    return Status::IoError("fsync failed (" + err + "): " + temp_path_);
  }
  if (::close(fd) != 0) {
    std::remove(temp_path_.c_str());
    AtomicWriteFailures().Increment();
    return Status::IoError("close failed (" + Errno() + "): " + temp_path_);
  }
  {
    const failpoint::Action a =
        failpoint::Fire((failpoint_prefix_ + "/before_rename").c_str());
    switch (a.kind) {
      case failpoint::ActionKind::kError:
      case failpoint::ActionKind::kTornWrite:
        // Modeled death between temp-write and rename: the durable temp
        // file stays behind, the destination is untouched.
        keep_temp_ = true;
        AtomicWriteFailures().Increment();
        return Status::IoError("injected failpoint error at " +
                               failpoint_prefix_ + "/before_rename");
      case failpoint::ActionKind::kCrash:
        NLIDB_LOG(Error) << "failpoint crash at " << failpoint_prefix_
                         << "/before_rename";
        std::_Exit(134);
      default:
        break;
    }
  }
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    const std::string err = Errno();
    std::remove(temp_path_.c_str());
    AtomicWriteFailures().Increment();
    return Status::IoError("rename failed (" + err + "): " + path_);
  }
  committed_ = true;
  FsyncParentDir(path_);
  AtomicWrites().Increment();
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, std::string_view contents,
                       const std::string& failpoint_prefix) {
  AtomicFileWriter writer(path, failpoint_prefix);
  NLIDB_RETURN_IF_ERROR(writer.Append(contents));
  return writer.Commit();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failed: " + path);
  return contents;
}

}  // namespace io
}  // namespace nlidb

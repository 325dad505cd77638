#ifndef NLIDB_COMMON_STATUS_H_
#define NLIDB_COMMON_STATUS_H_

#include <cstdlib>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace nlidb {

/// Error categories used across the library. Mirrors the small set of
/// conditions a database-facing library actually distinguishes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIoError,
  kParseError,
  kDeadlineExceeded,
  kUnavailable,
};

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error result, modeled after absl::Status.
///
/// The library does not throw exceptions across public API boundaries;
/// fallible operations return `Status` or `StatusOr<T>`.
///
/// The class-level [[nodiscard]] makes silently dropping a returned
/// Status a compile error under -Werror: every call site must propagate
/// it (NLIDB_RETURN_IF_ERROR), branch on it, or log it. Intentionally
/// fire-and-forget calls spell that out by assigning to a named
/// variable and passing it to `Status::IgnoreError()`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Explicitly discards `status`. The only sanctioned way to drop a
  /// Status on the floor; exists so the rare intentional cases are
  /// greppable instead of invisible.
  static void IgnoreError(const Status& status) { (void)status; }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// A value of type T or an error Status. Minimal StatusOr: access to
/// `value()` on an error status aborts (programming error), matching the
/// crash-on-misuse convention of absl::StatusOr.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit conversions from both T and Status keep call sites terse,
  /// mirroring absl::StatusOr.
  StatusOr(T value) : value_(std::move(value)) {}
  StatusOr(Status status) : status_(std::move(status)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!status_.ok()) {
      std::abort();
    }
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace nlidb

/// Propagates a non-OK Status to the caller. Usage:
///   NLIDB_RETURN_IF_ERROR(DoThing());
#define NLIDB_RETURN_IF_ERROR(expr)             \
  do {                                          \
    ::nlidb::Status _status = (expr);           \
    if (!_status.ok()) return _status;          \
  } while (false)

#endif  // NLIDB_COMMON_STATUS_H_

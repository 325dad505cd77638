#ifndef NLIDB_COMMON_LOGGING_H_
#define NLIDB_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace nlidb {

/// Log severities. kFatal aborts after emitting the message.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Global minimum severity; messages below it are dropped.
/// Defaults to kInfo; tests lower it to kDebug when diagnosing.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal_logging {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the message is disabled.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal_logging
}  // namespace nlidb

#define NLIDB_LOG(level)                                                   \
  if (static_cast<int>(::nlidb::LogLevel::k##level) <                      \
      static_cast<int>(::nlidb::GetLogLevel())) {                          \
  } else                                                                   \
    ::nlidb::internal_logging::LogMessage(::nlidb::LogLevel::k##level,     \
                                          __FILE__, __LINE__)              \
        .stream()

/// Process-fatal invariant check: active in all build modes.
#define NLIDB_CHECK(cond)                                                  \
  if (!(cond))                                                             \
  ::nlidb::internal_logging::LogMessage(::nlidb::LogLevel::kFatal,         \
                                        __FILE__, __LINE__)                \
          .stream()                                                        \
      << "Check failed: " #cond " "

#endif  // NLIDB_COMMON_LOGGING_H_

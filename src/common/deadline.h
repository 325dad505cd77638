#ifndef NLIDB_COMMON_DEADLINE_H_
#define NLIDB_COMMON_DEADLINE_H_

// Deadline / cancellation plumbing for the query path (DESIGN.md
// "Fault-tolerance architecture"). A CancelContext rides along a
// request and is polled at stage boundaries and inside the expensive
// inner loops (beam-search decode steps, influence probes, value-span
// scoring); an expired context surfaces as StatusCode::kDeadlineExceeded
// instead of an unbounded computation.

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/trace.h"

namespace nlidb {

/// An absolute point in the trace::NowNs() clock domain. Default: unset
/// (never expires). Value type, freely copyable.
class Deadline {
 public:
  Deadline() = default;

  static Deadline AfterNanos(uint64_t ns) {
    Deadline d;
    d.at_ns_ = trace::NowNs() + ns;
    return d;
  }
  static Deadline AfterMillis(uint64_t ms) {
    return AfterNanos(ms * 1000000ull);
  }

  bool has_deadline() const { return at_ns_ != 0; }
  bool Expired() const { return has_deadline() && trace::NowNs() >= at_ns_; }
  uint64_t at_ns() const { return at_ns_; }

 private:
  uint64_t at_ns_ = 0;  // 0 = unset
};

/// Why work should stop: a deadline, an external cancel flag, or both.
/// Polling is cheap (one clock read + one relaxed load), so loops check
/// once per iteration rather than batching.
struct CancelContext {
  Deadline deadline;
  /// Optional external cancellation; the owner flips it from any thread.
  const std::atomic<bool>* cancel = nullptr;

  bool Expired() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    return deadline.Expired();
  }

  /// Ok, or DeadlineExceeded naming the place work was abandoned.
  Status Check(const char* where) const {
    if (!Expired()) return Status::Ok();
    return Status::DeadlineExceeded(std::string("deadline exceeded at ") +
                                    where);
  }
};

/// Null-tolerant Check for the common optional-context parameter.
inline Status CheckCancel(const CancelContext* ctx, const char* where) {
  return ctx == nullptr ? Status::Ok() : ctx->Check(where);
}

/// Null-tolerant Expired.
inline bool CancelExpired(const CancelContext* ctx) {
  return ctx != nullptr && ctx->Expired();
}

}  // namespace nlidb

#endif  // NLIDB_COMMON_DEADLINE_H_

#ifndef NLIDB_COMMON_MUTEX_H_
#define NLIDB_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/lockdep.h"
#include "common/thread_annotations.h"

namespace nlidb {

/// An annotated, optionally instrumented wrapper over std::mutex.
///
/// Clang's thread-safety analysis (common/thread_annotations.h) only
/// tracks lock types that carry capability attributes; std::mutex does
/// not, so locking it through std::lock_guard is invisible to the
/// analyzer. All mutable shared state in the library locks through this
/// wrapper instead, which makes `NLIDB_GUARDED_BY(mu_)` declarations
/// compiler-enforced under the NLIDB_ANALYZE preset.
///
/// The wrapper is also the hook point for the lock-discipline analyzer
/// (common/lockdep.h): construct with a name —
///
///   Mutex mu_{"serving.queue"};
///
/// — and under NLIDB_DEADLOCK=on every acquisition feeds the global
/// lock-order graph (ABBA detection). When the detector is off, each
/// operation pays exactly one relaxed atomic load over the plain
/// std::mutex call. Name every long-lived mutex; unnamed ones collapse
/// into one shared "<unnamed>" lock class, which weakens cycle
/// detection.
///
/// The std-style lowercase lock()/unlock() aliases make Mutex satisfy
/// BasicLockable, so `CondVar` (std::condition_variable_any underneath)
/// can wait on it directly — and because those aliases are instrumented
/// too, the detector's held-lock sets stay correct across the
/// release/reacquire inside a condition wait.
class NLIDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Registers this mutex under `name` (its lock class — instances
  /// sharing a name share ordering history) at the declaration site.
  explicit Mutex(const char* name, const char* file = __builtin_FILE(),
                 int line = __builtin_LINE())
      : name_(name), file_(file), line_(line) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NLIDB_ACQUIRE() {
    if (lockdep::Enabled()) {
      lockdep::internal::LockSlow(this);
      return;
    }
    mu_.lock();
  }

  void Unlock() NLIDB_RELEASE() {
    if (lockdep::Enabled()) {
      lockdep::internal::UnlockSlow(this);
      return;
    }
    mu_.unlock();
  }

  /// BasicLockable aliases for std::condition_variable_any::wait.
  void lock() NLIDB_ACQUIRE() { Lock(); }
  void unlock() NLIDB_RELEASE() { Unlock(); }

  /// The registered lock-class name ("<unnamed>" when default-built).
  const char* name() const { return name_ != nullptr ? name_ : "<unnamed>"; }

 private:
  friend struct lockdep::internal::MutexAccess;

  // The wrapped lock IS the capability; there is no guarded state here.
  std::mutex mu_;  // nlidb-lint: disable(mutex-unguarded)
  const char* name_ = nullptr;
  const char* file_ = nullptr;
  int line_ = 0;
};

/// RAII lock for `Mutex`, the annotated equivalent of std::lock_guard.
class NLIDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NLIDB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() NLIDB_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Reverse RAII: releases an already-held `Mutex` for the enclosing
/// scope and reacquires it on exit. The structured replacement for
/// naked Unlock()/Lock() pairs around a compute section that must not
/// run under the lock (the naked-lock lint rule bans the raw pairs):
///
///   MutexLock lock(mu_);
///   ...
///   {
///     MutexUnlock unlock(mu_);
///     ExpensiveComputeWithoutLock();
///   }
///   // mu_ held again; guarded state re-readable.
class NLIDB_SCOPED_CAPABILITY MutexUnlock {
 public:
  explicit MutexUnlock(Mutex& mu) NLIDB_RELEASE(mu) : mu_(mu) { mu_.Unlock(); }
  ~MutexUnlock() NLIDB_ACQUIRE() { mu_.Lock(); }
  MutexUnlock(const MutexUnlock&) = delete;
  MutexUnlock& operator=(const MutexUnlock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with `Mutex`.
///
/// std::condition_variable_any releases/reacquires the mutex inside
/// Wait, which the (intra-procedural) analysis cannot see; the
/// NLIDB_EXCLUSIVE_LOCKS_REQUIRED contract on Wait encodes the part it
/// can check: callers must already hold the lock.
///
/// Under the lock-discipline analyzer, Wait carries a stuck-wait
/// watchdog (lockdep::WatchdogTimeoutMs, default 30s): a wait that
/// exceeds the timeout files an informational report — a lost notify
/// shows up in CI logs instead of as a silent ctest timeout — and then
/// behaves exactly like a spurious wakeup, which is indistinguishable
/// to correctly-written callers (they loop on their condition).
class CondVar {
 public:
  /// Blocks until notified (spurious wakeups possible — callers loop on
  /// their condition, which keeps guarded reads visible to the
  /// analysis). `mu` must be held.
  void Wait(Mutex& mu) NLIDB_EXCLUSIVE_LOCKS_REQUIRED(mu) {
    if (lockdep::Enabled()) {
      WaitWithWatchdog(mu);
      return;
    }
    cv_.wait(mu);
  }

  /// Blocks until notified and `pred()` holds. `mu` must be held.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) NLIDB_EXCLUSIVE_LOCKS_REQUIRED(mu) {
    if (lockdep::Enabled()) {
      while (!pred()) WaitWithWatchdog(mu);
      return;
    }
    cv_.wait(mu, pred);
  }

  /// Wait for a consumer parked until work arrives — an idle state
  /// where "no notify for minutes" is legitimate (a worker pool with an
  /// empty queue), so the stuck-wait watchdog does not apply. The
  /// lockdep held-set still stays balanced: condition_variable_any
  /// releases/reacquires through the instrumented lock()/unlock()
  /// aliases. Use Wait for waits bounded by in-flight work, where a
  /// watchdog hit means a lost notify.
  void WaitIdle(Mutex& mu) NLIDB_EXCLUSIVE_LOCKS_REQUIRED(mu) {
    cv_.wait(mu);
  }

  /// Predicate form of WaitIdle. `mu` must be held.
  template <typename Pred>
  void WaitIdle(Mutex& mu, Pred pred) NLIDB_EXCLUSIVE_LOCKS_REQUIRED(mu) {
    cv_.wait(mu, pred);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  /// One bounded wait round. A watchdog timeout reports and returns —
  /// equivalent to a spurious wakeup from the caller's point of view.
  void WaitWithWatchdog(Mutex& mu) NLIDB_EXCLUSIVE_LOCKS_REQUIRED(mu) {
    const int timeout_ms = lockdep::WatchdogTimeoutMs();
    if (timeout_ms <= 0) {
      cv_.wait(mu);
      return;
    }
    if (cv_.wait_for(mu, std::chrono::milliseconds(timeout_ms)) ==
        std::cv_status::timeout) {
      lockdep::internal::ReportStuckWait(mu.name(), timeout_ms);
    }
  }

  std::condition_variable_any cv_;
};

}  // namespace nlidb

#endif  // NLIDB_COMMON_MUTEX_H_

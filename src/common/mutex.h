#ifndef NLIDB_COMMON_MUTEX_H_
#define NLIDB_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace nlidb {

/// An annotated wrapper over std::mutex.
///
/// Clang's thread-safety analysis (common/thread_annotations.h) only
/// tracks lock types that carry capability attributes; std::mutex does
/// not, so locking it through std::lock_guard is invisible to the
/// analyzer. All mutable shared state in the library locks through this
/// wrapper instead, which makes `NLIDB_GUARDED_BY(mu_)` declarations
/// compiler-enforced under the NLIDB_ANALYZE preset.
///
/// The std-style lowercase lock()/unlock() aliases make Mutex satisfy
/// BasicLockable, so `CondVar` (std::condition_variable_any underneath)
/// can wait on it directly.
class NLIDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NLIDB_ACQUIRE() { mu_.lock(); }
  void Unlock() NLIDB_RELEASE() { mu_.unlock(); }

  /// BasicLockable aliases for std::condition_variable_any::wait.
  void lock() NLIDB_ACQUIRE() { Lock(); }
  void unlock() NLIDB_RELEASE() { Unlock(); }

 private:
  // The wrapped lock IS the capability; there is no guarded state here.
  std::mutex mu_;  // nlidb-lint: disable(mutex-unguarded)
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

/// Condition variable paired with `Mutex`.
///
/// std::condition_variable_any releases/reacquires the mutex inside
/// Wait, which the (intra-procedural) analysis cannot see; the
/// NLIDB_EXCLUSIVE_LOCKS_REQUIRED contract on Wait encodes the part it
/// can check: callers must already hold the lock.
class CondVar {
 public:
  /// Blocks until notified (spurious wakeups possible — callers loop on
  /// their condition, which keeps guarded reads visible to the
  /// analysis). `mu` must be held.
  void Wait(Mutex& mu) NLIDB_EXCLUSIVE_LOCKS_REQUIRED(mu) { cv_.wait(mu); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace nlidb

#endif  // NLIDB_COMMON_MUTEX_H_

#ifndef NLIDB_COMMON_LOCKDEP_H_
#define NLIDB_COMMON_LOCKDEP_H_

// Lock-discipline analyzer (DESIGN.md "Lock-discipline architecture").
//
// TSan only catches lock-order bugs on interleavings a run actually
// exercises; a lock-order *cycle* that never times out in tests can
// still hang a worker pool in production. This module detects those
// cycles from a single benign execution, lockdep-style:
//
//  - Every `nlidb::Mutex` belongs to a *lock class*, keyed by the name
//    registered at its declaration (`Mutex mu_{"serving.queue"};`).
//    Instances sharing a name share ordering history, so one serving
//    engine's queue teaches the detector about every engine's queue.
//  - Each thread keeps its held-lock set. Acquiring class B while
//    holding class A folds the edge A -> B into a process-global
//    lock-order graph; the first edge that closes a cycle is reported
//    immediately with BOTH acquisition stacks (the recorded stack that
//    established the opposite order, and the stack of the inverting
//    acquisition) — even if the timing never actually deadlocks.
//  - `CondVar::Wait` carries a stuck-wait watchdog: a wait that exceeds
//    the configured timeout is reported (once per mutex name) and then
//    resumes waiting, so a lost-notify hang surfaces in CI logs instead
//    of as a silent ctest timeout.
//
// The detector only detects and reports: it meters nothing and takes
// no lock besides its own leaf graph lock, so it depends on no other
// instrumented subsystem.
//
// Cost contract: with the detector off (the default), `Mutex::Lock`
// pays exactly one relaxed atomic load before the underlying lock —
// the same discipline as trace::Enabled() and failpoint::AnyActive().
// Detection never changes results: it only observes acquisitions, so
// every bitwise gate (golden traces, serving equivalence) holds with
// the detector enabled.
//
// Activation: NLIDB_DEADLOCK=on|1|true, read once at process start.
// `SetEnabled()` toggles programmatically for tests — only at quiescent
// points (no instrumented lock held), or the held-set bookkeeping goes
// stale. NLIDB_DEADLOCK_REPORT=<path> makes each process that fired a
// report dump `RenderReports()` at exit to `<path>.<pid>` (the CI
// artifacts; CI fails the job when any of them holds a lock-order
// inversion).
//
// Known blind spots (standard for name-keyed lockdep): edges between
// two instances of the SAME class are not recorded (a per-instance
// A1 -> A2 vs A2 -> A1 inversion is invisible), and unnamed mutexes
// all share one "<unnamed>" class — name every long-lived mutex.

#include <atomic>
#include <string>
#include <vector>

namespace nlidb {

class Mutex;

namespace lockdep {

/// One detector finding. Order inversions carry both stacks; stuck
/// waits carry the waiting mutex and the exceeded timeout.
struct Report {
  enum class Kind { kOrderInversion, kStuckWait };
  Kind kind = Kind::kOrderInversion;

  /// The class held while the inverting acquisition happened (order
  /// inversions), or the class the stuck CondVar waits on.
  std::string first_mutex;
  /// The class whose acquisition closed the cycle (order inversions).
  std::string second_mutex;
  /// Where `first_mutex` was acquired while `second_mutex` was held —
  /// the previously recorded opposite order (order inversions only).
  std::string first_stack;
  /// The acquisition that closed the cycle (order inversions), or the
  /// stuck Wait call (stuck waits).
  std::string second_stack;
  /// The full cycle, rendered "a -> b -> a" (order inversions only).
  std::string cycle;
  /// Human-readable one-line summary.
  std::string message;
};

namespace internal {

/// Detector on/off. Relaxed loads only; written at process start / by
/// SetEnabled.
extern std::atomic<bool> g_enabled;

/// Grants lockdep.cc access to the wrapped std::mutex and identity of
/// a `Mutex` without widening the public surface.
struct MutexAccess;

/// Slow paths behind the Enabled() check in Mutex::Lock/Unlock.
/// They perform the underlying lock operation themselves (so the fast
/// path stays a single branch) plus held-set and graph bookkeeping.
/// Locks taken after the calling thread's held set was destroyed
/// (static destructors at exit) degrade to the plain operation.
void LockSlow(Mutex* mu);
void UnlockSlow(Mutex* mu);

/// Records a stuck-wait report (deduplicated per mutex name). Called
/// by CondVar's watchdog.
void ReportStuckWait(const char* mutex_name, int waited_ms);

}  // namespace internal

/// True when the detector is active. One relaxed atomic load — this is
/// the entire disabled-path cost inside Mutex::Lock.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Programmatic toggle for tests. Call only while the calling thread
/// holds no instrumented lock; flipping mid-acquisition leaves stale
/// held-set entries behind.
void SetEnabled(bool on);

/// Watchdog timeout for CondVar waits, in milliseconds; <= 0 disables
/// the watchdog. Defaults to 30000; tests shorten it.
int WatchdogTimeoutMs();
void SetWatchdogTimeoutMs(int ms);

/// Snapshot of every report fired so far, in detection order.
std::vector<Report> Reports();

/// Drops accumulated reports and per-name dedup state (test isolation).
/// The lock-order graph itself is retained: recorded orderings stay
/// true for the process lifetime.
void ClearReports();

/// Also forgets the lock-order graph and class registry. For tests
/// that seed deliberate inversions and must not poison later
/// no-false-positive assertions.
void ResetGraphForTest();

/// All reports rendered as a human-readable block (the
/// NLIDB_DEADLOCK_REPORT artifact format). Empty string when clean.
std::string RenderReports();

}  // namespace lockdep
}  // namespace nlidb

#endif  // NLIDB_COMMON_LOCKDEP_H_

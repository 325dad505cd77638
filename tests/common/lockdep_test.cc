// Lock-discipline analyzer tests (src/common/lockdep.{h,cc}): seeded
// ABBA inversion detection from a single benign execution, CondVar
// stuck-wait watchdog, and the disabled-path contract. Each test
// toggles the detector explicitly and resets the graph so seeded
// inversions never poison later assertions.

#include "common/lockdep.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "common/thread_pool.h"

namespace nlidb {
namespace {

/// RAII detector scope: on at construction, reports/graph wiped and
/// detector returned to its entry state on destruction.
class DetectorScope {
 public:
  DetectorScope() : was_enabled_(lockdep::Enabled()) {
    lockdep::ResetGraphForTest();
    lockdep::ClearReports();
    lockdep::SetEnabled(true);
  }
  ~DetectorScope() {
    lockdep::ResetGraphForTest();
    lockdep::ClearReports();
    lockdep::SetEnabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

std::vector<lockdep::Report> ReportsOfKind(lockdep::Report::Kind kind) {
  std::vector<lockdep::Report> out;
  for (const lockdep::Report& r : lockdep::Reports()) {
    if (r.kind == kind) out.push_back(r);
  }
  return out;
}

TEST(LockdepTest, DisabledUnlessEnvironmentOptsIn) {
  if (std::getenv("NLIDB_DEADLOCK") == nullptr &&
      !lockdep::Enabled()) {
    // The shipped default: detector off, Mutex::Lock pays one relaxed
    // atomic load. (CI legs that export NLIDB_DEADLOCK=on skip this.)
    EXPECT_FALSE(lockdep::Enabled());
  }
}

TEST(LockdepTest, BenignNestingProducesNoReports) {
  DetectorScope detector;
  Mutex outer{"test.nest_outer"};
  Mutex inner{"test.nest_inner"};
  for (int i = 0; i < 3; ++i) {
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);
  }
  EXPECT_TRUE(lockdep::Reports().empty());
}

TEST(LockdepTest, SeededAbbaInversionReportedWithBothStacks) {
  DetectorScope detector;
  Mutex a{"test.abba_a"};
  Mutex b{"test.abba_b"};
  {
    // Teach the detector a -> b.
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  {
    // Invert to b -> a. Timing never deadlocks (single thread), but the
    // order cycle must be reported the moment it closes.
    MutexLock hold_b(b);
    MutexLock hold_a(a);
  }
  const auto inversions =
      ReportsOfKind(lockdep::Report::Kind::kOrderInversion);
  ASSERT_EQ(inversions.size(), 1u);
  const lockdep::Report& r = inversions[0];
  // Both lock classes are named, in the report fields and in the
  // rendered cycle.
  EXPECT_NE(r.message.find("test.abba_a"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("test.abba_b"), std::string::npos) << r.message;
  EXPECT_NE(r.cycle.find("test.abba_a"), std::string::npos) << r.cycle;
  EXPECT_NE(r.cycle.find("test.abba_b"), std::string::npos) << r.cycle;
  // BOTH acquisition stacks: the recorded a -> b edge and the inverting
  // acquisition.
  EXPECT_FALSE(r.first_stack.empty());
  EXPECT_FALSE(r.second_stack.empty());
  // The artifact rendering carries the whole story.
  const std::string rendered = lockdep::RenderReports();
  EXPECT_NE(rendered.find("test.abba_a"), std::string::npos);
  EXPECT_NE(rendered.find("test.abba_b"), std::string::npos);
}

TEST(LockdepTest, InversionReportedOncePerClassPair) {
  DetectorScope detector;
  Mutex a{"test.once_a"};
  Mutex b{"test.once_b"};
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  for (int i = 0; i < 4; ++i) {
    MutexLock hold_b(b);
    MutexLock hold_a(a);
  }
  EXPECT_EQ(ReportsOfKind(lockdep::Report::Kind::kOrderInversion).size(),
            1u);
}

TEST(LockdepTest, TransitiveCycleDetected) {
  DetectorScope detector;
  Mutex a{"test.tri_a"};
  Mutex b{"test.tri_b"};
  Mutex c{"test.tri_c"};
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  {
    MutexLock hold_b(b);
    MutexLock hold_c(c);
  }
  {
    // c -> a closes a -> b -> c -> a without any direct a/c inversion.
    MutexLock hold_c(c);
    MutexLock hold_a(a);
  }
  const auto inversions =
      ReportsOfKind(lockdep::Report::Kind::kOrderInversion);
  ASSERT_EQ(inversions.size(), 1u);
  EXPECT_NE(inversions[0].cycle.find("test.tri_b"), std::string::npos)
      << inversions[0].cycle;
}

TEST(LockdepTest, CondVarWatchdogReportsStuckWait) {
  DetectorScope detector;
  const int old_timeout = lockdep::WatchdogTimeoutMs();
  lockdep::SetWatchdogTimeoutMs(50);
  Mutex mu{"test.watchdog"};
  CondVar cv;
  {
    MutexLock hold(mu);
    // Nobody notifies: the watchdog round times out, reports, and
    // returns like a spurious wakeup.
    cv.Wait(mu);
  }
  lockdep::SetWatchdogTimeoutMs(old_timeout);
  const auto stuck = ReportsOfKind(lockdep::Report::Kind::kStuckWait);
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_NE(stuck[0].first_mutex.find("test.watchdog"), std::string::npos);
  EXPECT_NE(stuck[0].message.find("test.watchdog"), std::string::npos);
}

TEST(LockdepTest, NotifiedWaitDoesNotReport) {
  DetectorScope detector;
  const int old_timeout = lockdep::WatchdogTimeoutMs();
  lockdep::SetWatchdogTimeoutMs(5000);
  Mutex mu{"test.notified"};
  CondVar cv;
  bool ready = false;
  // Chunk 0 runs on the calling thread (waiter), chunk 1 on the pool
  // worker (notifier) — a notify well inside the watchdog window.
  ThreadPool pool(2);
  pool.ParallelFor(0, 2, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      if (i == 0) {
        MutexLock hold(mu);
        cv.Wait(mu, [&] { return ready; });
      } else {
        MutexLock hold(mu);
        ready = true;
        cv.NotifyAll();
      }
    }
  });
  lockdep::SetWatchdogTimeoutMs(old_timeout);
  EXPECT_TRUE(ReportsOfKind(lockdep::Report::Kind::kStuckWait).empty());
}

TEST(LockdepTest, IdleWaitIsWatchdogExempt) {
  DetectorScope detector;
  const int old_timeout = lockdep::WatchdogTimeoutMs();
  lockdep::SetWatchdogTimeoutMs(50);
  Mutex mu{"test.idle"};
  CondVar cv;
  bool ready = false;
  // The notify lands well AFTER the 50ms watchdog window: a plain Wait
  // would file a stuck-wait report, an idle park must not (this is the
  // worker-pool / serving-queue steady state).
  ThreadPool pool(2);
  pool.ParallelFor(0, 2, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      if (i == 0) {
        MutexLock hold(mu);
        cv.WaitIdle(mu, [&] { return ready; });
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        MutexLock hold(mu);
        ready = true;
        cv.NotifyAll();
      }
    }
  });
  lockdep::SetWatchdogTimeoutMs(old_timeout);
  EXPECT_TRUE(ReportsOfKind(lockdep::Report::Kind::kStuckWait).empty());
}

TEST(LockdepTest, ClearReportsKeepsLearnedOrder) {
  DetectorScope detector;
  Mutex a{"test.retain_a"};
  Mutex b{"test.retain_b"};
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  lockdep::ClearReports();
  {
    MutexLock hold_b(b);
    MutexLock hold_a(a);
  }
  // The a -> b ordering learned before ClearReports still convicts the
  // inversion: only reports are dropped, not the graph.
  EXPECT_EQ(ReportsOfKind(lockdep::Report::Kind::kOrderInversion).size(),
            1u);
}

TEST(LockdepTest, DisabledSequencesAreInvisible) {
  DetectorScope detector;
  lockdep::SetEnabled(false);
  Mutex a{"test.dark_a"};
  Mutex b{"test.dark_b"};
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  {
    MutexLock hold_b(b);
    MutexLock hold_a(a);
  }
  EXPECT_TRUE(lockdep::Reports().empty());
}

/// Locks a Mutex with the detector on from a static destructor, which
/// runs after the main thread's thread_local held set is destroyed (the
/// global ThreadPool's destructor does the same). The hooks must fall
/// back to the plain lock there; a sanitizer build reports a
/// use-after-free at process exit otherwise.
struct LockAtExit {
  ~LockAtExit() {
    lockdep::SetEnabled(true);
    Mutex mu{"test.at_exit"};
    MutexLock hold(mu);
  }
};

TEST(LockdepTest, StaticDestructorLocksAfterThreadLocalTeardown) {
  DetectorScope detector;
  Mutex mu{"test.before_exit"};
  {
    // Gives this thread's held set a heap buffer to outlive.
    MutexLock hold(mu);
  }
  static LockAtExit lock_at_exit;
  EXPECT_TRUE(lockdep::Reports().empty());
}

}  // namespace
}  // namespace nlidb

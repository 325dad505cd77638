#include "common/workspace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "testing/threads.h"

namespace nlidb {
namespace {

TEST(WorkspaceTest, FloatsAreZeroInitialized) {
  Workspace ws;
  float* a = ws.Floats(100);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a[i], 0.0f);
  // Dirty the buffer, release it, re-acquire: must come back zeroed.
  for (int i = 0; i < 100; ++i) a[i] = 3.5f;
  ws.Reset();
  float* b = ws.Floats(100);
  EXPECT_EQ(b, a) << "reset should reuse the retained block";
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b[i], 0.0f);
}

TEST(WorkspaceTest, BuffersDoNotOverlapAndStayAligned) {
  Workspace ws;
  float* a = ws.Floats(17);  // deliberately not a multiple of 16
  float* b = ws.Floats(5);
  // Bump distance is rounded up to 16 floats (64 bytes), so consecutive
  // buffers never share a cache line.
  EXPECT_GE(b - a, 17);
  EXPECT_EQ((b - a) % 16, 0);
  EXPECT_EQ(ws.live_buffers(), 2);
}

TEST(WorkspaceTest, ResetRetainsCapacity) {
  Workspace ws;
  (void)ws.Floats(1000);
  (void)ws.Floats(200000);  // forces a second (oversized) block
  const size_t reserved = ws.reserved();
  EXPECT_GE(reserved, 201000u);
  ws.Reset();
  EXPECT_EQ(ws.reserved(), reserved);
  EXPECT_EQ(ws.live_buffers(), 0);
}

TEST(WorkspaceTest, ScopeRewindsToSnapshot) {
  Workspace ws;
  float* outer = ws.Floats(32);
  outer[0] = 7.0f;
  float* inner_first = nullptr;
  {
    Workspace::Scope scope(ws);
    inner_first = ws.Floats(64);
    (void)ws.Floats(128);
    EXPECT_EQ(ws.live_buffers(), 3);
  }
  // Scope end releases only the inner buffers; the outer one survives.
  EXPECT_EQ(ws.live_buffers(), 1);
  EXPECT_EQ(outer[0], 7.0f);
  float* reused = ws.Floats(64);
  EXPECT_EQ(reused, inner_first) << "scope must rewind the bump pointer";
}

TEST(WorkspaceTest, NestedScopes) {
  Workspace ws;
  Workspace::Scope a(ws);
  float* x = ws.Floats(16);
  {
    Workspace::Scope b(ws);
    float* y = ws.Floats(16);
    EXPECT_NE(x, y);
    {
      Workspace::Scope c(ws);
      (void)ws.Floats(300000);  // spills into a fresh block inside c
      EXPECT_GT(ws.live_buffers(), 2);
    }
    EXPECT_EQ(ws.live_buffers(), 2);
    float* y2 = ws.Floats(8);
    EXPECT_NE(y2, nullptr);
  }
  EXPECT_EQ(ws.live_buffers(), 1);
}

TEST(WorkspaceTest, ScopeOnFreshWorkspace) {
  // A scope opened before the first allocation must rewind to empty.
  Workspace ws;
  {
    Workspace::Scope scope(ws);
    (void)ws.Floats(10);
    (void)ws.Floats(10);
  }
  EXPECT_EQ(ws.live_buffers(), 0);
}

TEST(WorkspaceTest, ScopeRewindsOnException) {
  // Stack unwinding through a throwing region must rewind the arena
  // exactly as a clean scope exit does — the failure mode of a kernel
  // on a long-lived thread, where an exception mid-request would
  // otherwise leak bump space on every retry.
  Workspace ws;
  float* outer = ws.Floats(32);
  outer[0] = 5.0f;
  const size_t reserved_before = ws.reserved();
  for (int attempt = 0; attempt < 50; ++attempt) {
    try {
      Workspace::Scope scope(ws);
      (void)ws.Floats(64);
      (void)ws.Floats(128);
      throw std::runtime_error("mid-request failure");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(ws.live_buffers(), 1);
  }
  EXPECT_EQ(ws.reserved(), reserved_before)
      << "repeated rewind-on-exception must not grow the arena";
  EXPECT_EQ(outer[0], 5.0f);
}

TEST(WorkspaceStressTest, InterleavedScopesAcrossThreads) {
  // Many threads serving requests at once: every thread hammers its own
  // thread-local arena with nested scopes, interleaved rewinds, and
  // occasional exceptions, while checking its buffers are never shared
  // or corrupted. Each thread lives through every round, so after its
  // first request steady-state requests must not allocate — per-thread
  // reserved() stays flat.
#if defined(NLIDB_SANITIZER_BUILD)
  const int kRounds = 30;
#else
  const int kRounds = 300;
#endif
  constexpr int kThreads = 8;
  constexpr int kItemsPerThread = 8;

  // One simulated request. Returns false on any correctness violation:
  // corrupted outer buffer after inner rewinds, or arena growth on a
  // thread whose arena already reached its high-water mark (the
  // steady-state check is per-thread, against that thread's own previous
  // watermark).
  auto hammer = [](int item) {
    Workspace& ws = Workspace::ThreadLocal();
    const size_t reserved_before = ws.reserved();
    const bool warmed = reserved_before > 0;
    {
      Workspace::Scope request_scope(ws);
      float* a = ws.Floats(64);
      const float tag = static_cast<float>(item + 1);
      for (int i = 0; i < 64; ++i) a[i] = tag;
      for (int inner = 0; inner < 4; ++inner) {
        try {
          Workspace::Scope scope(ws);
          float* b = ws.Floats(257);  // odd size: exercises align rounding
          for (int i = 0; i < 257; ++i) b[i] = -tag;
          if (inner == 2) throw std::runtime_error("simulated kernel failure");
        } catch (const std::runtime_error&) {
        }
        // The outer buffer must be untouched by inner scopes rewinding.
        for (int i = 0; i < 64; ++i) {
          if (a[i] != tag) return false;
        }
      }
    }
    return !warmed || ws.reserved() == reserved_before;
  };

  std::atomic<bool> ok{true};
  testing::RunOnThreads(kThreads, [&](int t) {
    for (int round = 0; round < kRounds && ok.load(); ++round) {
      for (int i = t * kItemsPerThread; i < (t + 1) * kItemsPerThread; ++i) {
        if (!hammer(i)) ok.store(false);
      }
    }
  });
  ASSERT_TRUE(ok.load());

  // The calling thread ran index 0 through every round: its arena must
  // have settled at exactly one retained block despite kRounds *
  // interleaved scope rewinds and exceptions.
  EXPECT_GT(Workspace::ThreadLocal().reserved(), 0u);
  EXPECT_EQ(Workspace::ThreadLocal().live_buffers(), 0);
}

TEST(WorkspaceTest, ThreadLocalIsPerThread) {
  Workspace* main_ws = &Workspace::ThreadLocal();
  Workspace* other_ws = nullptr;
  testing::RunOnThreads(2, [&](int i) {
    if (i == 1) other_ws = &Workspace::ThreadLocal();
  });
  EXPECT_NE(main_ws, other_ws);
  EXPECT_EQ(main_ws, &Workspace::ThreadLocal());
}

}  // namespace
}  // namespace nlidb

#include "common/workspace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "testing/threads.h"

namespace nlidb {
namespace {

TEST(WorkspaceTest, FloatsAreZeroInitialized) {
  Workspace ws;
  float* a = nullptr;
  {
    Workspace::Scope scope(ws);
    a = ws.Floats(100);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a[i], 0.0f);
    // Dirty the buffer; the scope's end releases it.
    for (int i = 0; i < 100; ++i) a[i] = 3.5f;
  }
  float* b = ws.Floats(100);
  EXPECT_EQ(b, a) << "a released buffer's block should be reused";
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
}

TEST(WorkspaceTest, ScopeRetainsBlocks) {
  Workspace ws;
  float* small = nullptr;
  float* big = nullptr;
  {
    Workspace::Scope scope(ws);
    small = ws.Floats(1000);
    big = ws.Floats(200000);  // forces a second (oversized) block
  }
  // Both blocks survive the rewind: the same requests get the same
  // storage back instead of fresh allocations.
  EXPECT_EQ(ws.Floats(1000), small);
  EXPECT_EQ(ws.Floats(200000), big);
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
  }
  // Scope end releases only the inner buffers; the outer one survives.
  EXPECT_EQ(outer[0], 7.0f);
  float* reused = ws.Floats(64);
  EXPECT_EQ(reused, inner_first) << "scope must rewind the bump pointer";
}

TEST(WorkspaceTest, NestedScopes) {
  Workspace ws;
  float* x = nullptr;
  float* y = nullptr;
  {
    Workspace::Scope a(ws);
    x = ws.Floats(16);
    {
      Workspace::Scope b(ws);
      y = ws.Floats(16);
      EXPECT_NE(x, y);
      {
        Workspace::Scope c(ws);
        (void)ws.Floats(300000);  // spills into a fresh block inside c
      }
      // c's end returns to the first block, right after y.
      EXPECT_EQ(ws.Floats(8), y + 16);
    }
    EXPECT_EQ(ws.Floats(16), y);
  }
  EXPECT_EQ(ws.Floats(16), x);
}

TEST(WorkspaceTest, ScopeOnFreshWorkspace) {
  // A scope opened before the first allocation must rewind to empty.
  Workspace ws;
  float* first = nullptr;
  {
    Workspace::Scope scope(ws);
    first = ws.Floats(10);
    (void)ws.Floats(10);
  }
  EXPECT_EQ(ws.Floats(10), first);
}

TEST(WorkspaceTest, ScopeRewindsOnException) {
  // Stack unwinding through a throwing region must rewind the arena
  // exactly as a clean scope exit does — the failure mode of a kernel
  // on a long-lived thread, where an exception mid-request would
  // otherwise leak bump space on every retry.
  Workspace ws;
  float* outer = ws.Floats(32);
  outer[0] = 5.0f;
  float* first_inner = nullptr;
  for (int attempt = 0; attempt < 50; ++attempt) {
    try {
      Workspace::Scope scope(ws);
      float* inner = ws.Floats(64);
      if (first_inner == nullptr) first_inner = inner;
      EXPECT_EQ(inner, first_inner)
          << "repeated rewind-on-exception must not move or grow the arena";
      (void)ws.Floats(128);
      throw std::runtime_error("mid-request failure");
    } catch (const std::runtime_error&) {
    }
  }
  EXPECT_EQ(ws.Floats(64), first_inner);
  EXPECT_EQ(outer[0], 5.0f);
}

TEST(WorkspaceStressTest, InterleavedScopesAcrossThreads) {
  // Many threads serving requests at once: every thread hammers its own
  // thread-local arena with nested scopes, interleaved rewinds, and
  // occasional exceptions, while checking its buffers are never shared
  // or corrupted. Each thread lives through every round, so every
  // request on a thread must get the same storage as its first one:
  // steady-state requests neither grow the arena nor drift through it.
#if defined(NLIDB_SANITIZER_BUILD)
  const int kRounds = 30;
#else
  const int kRounds = 300;
#endif
  constexpr int kThreads = 8;
  constexpr int kItemsPerThread = 8;

  // Per thread, the request buffer and inner buffer its first request got.
  std::vector<float*> first_outer(kThreads, nullptr);
  std::vector<float*> first_inner(kThreads, nullptr);

  // One simulated request on thread `t`. Returns false on any correctness
  // violation: corrupted outer buffer after inner rewinds, or a buffer
  // that differs from the thread's first request's.
  auto hammer = [&](int t, int item) {
    Workspace& ws = Workspace::ThreadLocal();
    Workspace::Scope request_scope(ws);
    float* a = ws.Floats(64);
    if (first_outer[t] == nullptr) first_outer[t] = a;
    if (a != first_outer[t]) return false;
    const float tag = static_cast<float>(item + 1);
    for (int i = 0; i < 64; ++i) a[i] = tag;
    for (int inner = 0; inner < 4; ++inner) {
      try {
        Workspace::Scope scope(ws);
        float* b = ws.Floats(257);  // odd size: exercises align rounding
        if (first_inner[t] == nullptr) first_inner[t] = b;
        if (b != first_inner[t]) return false;
        for (int i = 0; i < 257; ++i) b[i] = -tag;
        if (inner == 2) throw std::runtime_error("simulated kernel failure");
      } catch (const std::runtime_error&) {
      }
      // The outer buffer must be untouched by inner scopes rewinding.
      for (int i = 0; i < 64; ++i) {
        if (a[i] != tag) return false;
      }
    }
    return true;
  };

  std::atomic<bool> ok{true};
  testing::RunOnThreads(kThreads, [&](int t) {
    for (int round = 0; round < kRounds && ok.load(); ++round) {
      for (int i = t * kItemsPerThread; i < (t + 1) * kItemsPerThread; ++i) {
        if (!hammer(t, i)) ok.store(false);
      }
    }
  });
  ASSERT_TRUE(ok.load());

  // The calling thread ran index 0 through every round: after kRounds *
  // interleaved scope rewinds and exceptions every buffer is released,
  // so the next request starts where its first one did.
  Workspace& ws = Workspace::ThreadLocal();
  Workspace::Scope scope(ws);
  EXPECT_EQ(ws.Floats(64), first_outer[0]);
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

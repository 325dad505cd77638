// Unit coverage for the deadline/cancellation value types the serving
// engine builds its shedding decisions on: the 0-sentinel "no deadline"
// encoding, expiry math, the external cancel flag, and the
// null-tolerant helpers.

#include "common/deadline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace nlidb {
namespace {

TEST(DeadlineTest, DefaultIsUnsetAndNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_EQ(d.at_ns(), 0u);
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, AfterNanosSetsAbsolutePointInTraceClockDomain) {
  const uint64_t before = trace::NowNs();
  Deadline d = Deadline::AfterNanos(1000000000ull);  // 1s out
  EXPECT_TRUE(d.has_deadline());
  EXPECT_GE(d.at_ns(), before + 1000000000ull);
  EXPECT_FALSE(d.Expired());
}

TEST(DeadlineTest, AfterMillisIsMillionTimesNanos) {
  const uint64_t before = trace::NowNs();
  Deadline d = Deadline::AfterMillis(5);
  EXPECT_GE(d.at_ns(), before + 5000000ull);
  EXPECT_LT(d.at_ns(), trace::NowNs() + 6000000ull);
}

TEST(DeadlineTest, ExpiresOnceTheClockPasses) {
  Deadline d = Deadline::AfterNanos(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(d.Expired());
}

TEST(CancelContextTest, UnsetContextNeverExpires) {
  CancelContext ctx;
  EXPECT_FALSE(ctx.Expired());
  EXPECT_TRUE(ctx.Check("nowhere").ok());
}

TEST(CancelContextTest, CancelFlagTripsIndependentlyOfDeadline) {
  std::atomic<bool> cancel{false};
  CancelContext ctx;
  ctx.cancel = &cancel;
  EXPECT_FALSE(ctx.Expired());
  cancel.store(true);
  EXPECT_TRUE(ctx.Expired());
  // The deadline is still unset; the flag alone trips the context.
  EXPECT_FALSE(ctx.deadline.has_deadline());
}

TEST(CancelContextTest, CheckNamesTheAbandonmentSite) {
  std::atomic<bool> cancel{true};
  CancelContext ctx;
  ctx.cancel = &cancel;
  Status s = ctx.Check("decode step");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.message(), "deadline exceeded at decode step");
}

TEST(CancelContextTest, NullTolerantHelpersTreatNullAsUnbounded) {
  EXPECT_TRUE(CheckCancel(nullptr, "anywhere").ok());
  std::atomic<bool> cancel{true};
  CancelContext ctx;
  ctx.cancel = &cancel;
  EXPECT_FALSE(CheckCancel(&ctx, "loop").ok());
}

TEST(CancelContextTest, ExpiredDeadlineTripsContextWithoutCancelFlag) {
  CancelContext ctx;
  ctx.deadline = Deadline::AfterNanos(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(ctx.Expired());
  EXPECT_EQ(ctx.Check("annotate").code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace nlidb

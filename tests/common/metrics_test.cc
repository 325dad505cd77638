// Tests for the lock-sharded metrics substrate (src/common/metrics.h):
// counter sharding, gauge maxima, histogram bucketing/percentiles, the
// registry's stable-reference contract, and concurrent recording from
// several threads (this suite runs under TSan in CI).

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "testing/threads.h"

namespace nlidb {
namespace metrics {
namespace {

using ::nlidb::testing::RunOnThreads;

constexpr int kThreads = 8;

TEST(DenseThreadIdTest, StableAndNonNegative) {
  const int id = DenseThreadId();
  EXPECT_GE(id, 0);
  EXPECT_EQ(DenseThreadId(), id);  // same thread, same id
}

TEST(CounterTest, IncrementValueReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kPerThread = 1250;
  RunOnThreads(kThreads, [&](int) {
    for (int i = 0; i < kPerThread; ++i) c.Increment();
  });
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(MaxGaugeTest, TracksMaximum) {
  MaxGauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Update(5);
  g.Update(3);
  EXPECT_EQ(g.Value(), 5);
  g.Update(9);
  EXPECT_EQ(g.Value(), 9);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, BucketBoundsArePowersOfTwoMicroseconds) {
  EXPECT_EQ(Histogram::BucketUpperBoundNs(0), 1000u << 0);
  EXPECT_EQ(Histogram::BucketUpperBoundNs(1), 1000u << 1);
  for (int b = 1; b + 1 < Histogram::kNumBuckets - 1; ++b) {
    EXPECT_EQ(Histogram::BucketUpperBoundNs(b + 1),
              2 * Histogram::BucketUpperBoundNs(b));
  }
  EXPECT_EQ(Histogram::BucketUpperBoundNs(Histogram::kNumBuckets - 1),
            UINT64_MAX);
}

TEST(HistogramTest, RecordPlacesSamplesInTheRightBucket) {
  Histogram h;
  h.Record(500);        // < 1µs -> bucket 0
  h.Record(1500);       // [1µs, 2µs) -> bucket 1
  h.Record(3000000);    // 3ms
  EXPECT_EQ(h.Count(), 3);
  EXPECT_EQ(h.SumNs(), 500 + 1500 + 3000000);
  EXPECT_EQ(h.BucketCount(0), 1);
  EXPECT_EQ(h.BucketCount(1), 1);
  int64_t total = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) total += h.BucketCount(b);
  EXPECT_EQ(total, h.Count());
  // The 3ms sample lands in a bucket whose bounds contain it.
  for (int b = 1; b < Histogram::kNumBuckets; ++b) {
    if (h.BucketCount(b) && b != 1) {
      EXPECT_LE(Histogram::BucketUpperBoundNs(b - 1), 3000000u);
      EXPECT_GT(Histogram::BucketUpperBoundNs(b), 3000000u);
    }
  }
}

TEST(HistogramTest, PercentilesAreOrderedAndBracketed) {
  Histogram h;
  EXPECT_EQ(h.ApproxPercentileNs(0.5), 0u);  // empty
  for (int i = 0; i < 1000; ++i) h.Record(10000);   // 10µs
  for (int i = 0; i < 10; ++i) h.Record(50000000);  // 50ms outliers
  const uint64_t p50 = h.ApproxPercentileNs(0.5);
  const uint64_t p99 = h.ApproxPercentileNs(0.99);
  const uint64_t p999 = h.ApproxPercentileNs(0.999);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  // p50 must sit in the 10µs bucket's range, p99.9 near the outliers.
  EXPECT_GE(p50, 8000u);
  EXPECT_LE(p50, 16000u);
  EXPECT_GT(p999, 16000000u);
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  Histogram h;
  constexpr int kPerThread = 1250;
  constexpr int kItems = kThreads * kPerThread;
  RunOnThreads(kThreads, [&](int t) {
    for (int i = t * kPerThread; i < (t + 1) * kPerThread; ++i) {
      h.Record(static_cast<uint64_t>(i) * 100);
    }
  });
  EXPECT_EQ(h.Count(), kItems);
  int64_t total = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) total += h.BucketCount(b);
  EXPECT_EQ(total, kItems);
}

TEST(MetricsRegistryTest, SameNameSameInstance) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& a = reg.GetCounter("test.registry.counter");
  Counter& b = reg.GetCounter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  MaxGauge& g1 = reg.GetGauge("test.registry.gauge");
  MaxGauge& g2 = reg.GetGauge("test.registry.gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = reg.GetHistogram("test.registry.hist");
  Histogram& h2 = reg.GetHistogram("test.registry.hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, RenderTextShowsNonZeroInstruments) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("test.render.visible");
  c.Increment(3);
  reg.GetCounter("test.render.zero");  // stays zero
  const std::string text = reg.RenderText();
  EXPECT_NE(text.find("test.render.visible"), std::string::npos) << text;
  EXPECT_EQ(text.find("test.render.zero"), std::string::npos) << text;
  const std::string with_zero = reg.RenderText(/*include_zero=*/true);
  EXPECT_NE(with_zero.find("test.render.zero"), std::string::npos);
  c.Reset();
}

TEST(MetricsRegistryTest, ConcurrentGetOrCreateIsSafe) {
  // Registry lookups race against each other from several threads; every
  // thread must agree on the instrument instance (TSan gate).
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& reference = reg.GetCounter("test.registry.race");
  RunOnThreads(kThreads, [&](int) {
    for (int i = 0; i < 32; ++i) {
      Counter& c = reg.GetCounter("test.registry.race");
      EXPECT_EQ(&c, &reference);
      c.Increment();
    }
  });
  EXPECT_EQ(reference.Value(), kThreads * 32);
}

}  // namespace
}  // namespace metrics
}  // namespace nlidb

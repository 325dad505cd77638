#ifndef NLIDB_COMMON_METRICS_H_
#define NLIDB_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace nlidb {
namespace metrics {

/// Dense 0-based id for the calling thread, assigned on first use in
/// arrival order. Used to shard counters and to stamp trace records;
/// ids are never reused within a process.
int DenseThreadId();

/// A process-lifetime counter sharded across cache lines so concurrent
/// increments from serving workers do not bounce a single line. All
/// operations use relaxed atomics: the counter conveys magnitude, not
/// ordering, and relaxed keeps it TSan-clean with zero fences on the
/// hot path.
class Counter {
 public:
  static constexpr int kShards = 8;

  void Increment(int64_t n = 1) {
    shards_[DenseThreadId() & (kShards - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over shards. Concurrent increments may or may not be included;
  /// quiesce writers for an exact read.
  int64_t Value() const;

  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  Shard shards_[kShards];
};

/// Tracks the maximum value ever reported (e.g. peak queue depth).
class MaxGauge {
 public:
  void Update(int64_t value);
  int64_t Value() const { return max_.load(std::memory_order_relaxed); }
  void Reset() { max_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> max_{0};
};

/// Fixed-bucket latency histogram over nanosecond durations.
///
/// Bucket b counts samples in [1µs·2^(b-1), 1µs·2^b); bucket 0 is
/// everything under 1µs and the last bucket catches the tail. Power-of-
/// two bounds make the bucket index a bit scan, and the fixed layout
/// means recording is wait-free: one relaxed fetch_add per sample plus
/// sum/count bookkeeping.
class Histogram {
 public:
  static constexpr int kNumBuckets = 24;  // 1µs .. ~4.2s, plus tail

  void Record(uint64_t ns);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t SumNs() const { return sum_ns_.load(std::memory_order_relaxed); }
  int64_t BucketCount(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Exclusive upper bound of bucket `b` in ns (UINT64_MAX for the tail).
  static uint64_t BucketUpperBoundNs(int b);

  /// Linear interpolation within the bucket holding the p-quantile
  /// (p in [0,1]). Returns 0 on an empty histogram. Approximate by
  /// construction; adequate for dashboards and tests.
  uint64_t ApproxPercentileNs(double p) const;

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_ns_{0};
};

/// Process-wide registry mapping dotted names ("gemm.dispatch.avx2") to
/// counters, gauges and histograms. Returned references are stable for
/// the process lifetime (instruments are never erased), so hot paths
/// cache them in function-local statics:
///
///   static Counter& c = MetricsRegistry::Global().GetCounter("x.y");
///   c.Increment();
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Finds or creates the named instrument. Same name → same instance.
  Counter& GetCounter(const std::string& name);
  MaxGauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Human-readable dump of every instrument, sorted by name; skips
  /// zero-valued instruments unless `include_zero`.
  std::string RenderText(bool include_zero = false) const;

  /// Zeroes every registered instrument (bench/test isolation; the
  /// instruments themselves stay registered and references stay valid).
  void ResetAll();

 private:
  MetricsRegistry();
  ~MetricsRegistry() = delete;  // process-lifetime singleton
  struct Impl;
  Impl* impl_;
};

}  // namespace metrics
}  // namespace nlidb

#endif  // NLIDB_COMMON_METRICS_H_

#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <sstream>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace nlidb {
namespace metrics {

namespace {

std::atomic<int> g_next_thread_id{0};

}  // namespace

int DenseThreadId() {
  thread_local const int id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

void MaxGauge::Update(int64_t value) {
  int64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

namespace {

// Bucket for a duration: 0 for < 1µs, then one bucket per power of two
// microseconds, everything past ~4.2s in the tail bucket.
int BucketIndex(uint64_t ns) {
  const uint64_t us = ns / 1000;
  if (us == 0) return 0;
  const int b = std::bit_width(us);  // floor(log2(us)) + 1
  return std::min(b, Histogram::kNumBuckets - 1);
}

}  // namespace

void Histogram::Record(uint64_t ns) {
  buckets_[BucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(static_cast<int64_t>(ns), std::memory_order_relaxed);
}

uint64_t Histogram::BucketUpperBoundNs(int b) {
  if (b >= kNumBuckets - 1) return UINT64_MAX;
  return static_cast<uint64_t>(1000) << b;
}

uint64_t Histogram::ApproxPercentileNs(double p) const {
  const int64_t total = Count();
  if (total <= 0) return 0;
  const double target = p * static_cast<double>(total);
  int64_t cum = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const int64_t in_bucket = BucketCount(b);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= target) {
      const uint64_t lo = b == 0 ? 0 : BucketUpperBoundNs(b - 1);
      // Treat the open tail as one more octave for interpolation.
      const uint64_t hi =
          b == kNumBuckets - 1 ? 2 * BucketUpperBoundNs(b - 1)
                               : BucketUpperBoundNs(b);
      const double frac = std::clamp(
          (target - static_cast<double>(cum)) / static_cast<double>(in_bucket),
          0.0, 1.0);
      return lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
    }
    cum += in_bucket;
  }
  return BucketUpperBoundNs(kNumBuckets - 2);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

struct MetricsRegistry::Impl {
  mutable Mutex mu;
  // unique_ptr values: instruments hand out long-lived references, so
  // they must not move when the maps rehash/rebalance.
  std::map<std::string, std::unique_ptr<Counter>> counters
      NLIDB_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<MaxGauge>> gauges
      NLIDB_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>> histograms
      NLIDB_GUARDED_BY(mu);
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: instruments are referenced from function-local statics in
  // hot paths and from serving workers during shutdown.
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(impl_->mu);
  std::unique_ptr<Counter>& slot = impl_->counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

MaxGauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(impl_->mu);
  std::unique_ptr<MaxGauge>& slot = impl_->gauges[name];
  if (slot == nullptr) slot = std::make_unique<MaxGauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(impl_->mu);
  std::unique_ptr<Histogram>& slot = impl_->histograms[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::RenderText(bool include_zero) const {
  MutexLock lock(impl_->mu);
  std::ostringstream out;
  for (const auto& [name, counter] : impl_->counters) {
    const int64_t value = counter->Value();
    if (value == 0 && !include_zero) continue;
    out << name << " " << value << "\n";
  }
  for (const auto& [name, gauge] : impl_->gauges) {
    const int64_t value = gauge->Value();
    if (value == 0 && !include_zero) continue;
    out << name << " max=" << value << "\n";
  }
  for (const auto& [name, hist] : impl_->histograms) {
    const int64_t count = hist->Count();
    if (count == 0 && !include_zero) continue;
    out << name << " count=" << count
        << " mean_ns=" << (count > 0 ? hist->SumNs() / count : 0)
        << " p50_ns=" << hist->ApproxPercentileNs(0.5)
        << " p99_ns=" << hist->ApproxPercentileNs(0.99) << "\n";
  }
  return out.str();
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(impl_->mu);
  for (auto& [name, counter] : impl_->counters) counter->Reset();
  for (auto& [name, gauge] : impl_->gauges) gauge->Reset();
  for (auto& [name, hist] : impl_->histograms) hist->Reset();
}

}  // namespace metrics
}  // namespace nlidb

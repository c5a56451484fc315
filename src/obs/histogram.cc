#include "obs/histogram.h"

#include <bit>
#include <cmath>

namespace sstreaming {

int LogHistogram::BucketIndex(int64_t value) {
  if (value < 0) value = 0;
  uint64_t v = static_cast<uint64_t>(value);
  if (v < kSubBucketCount) {
    // Small values get one bucket each (exact).
    return static_cast<int>(v);
  }
  int msb = 63 - std::countl_zero(v);  // position of the highest set bit
  int shift = msb - kSubBucketBits;
  int sub = static_cast<int>((v >> shift) & (kSubBucketCount - 1));
  return ((msb - kSubBucketBits + 1) << kSubBucketBits) + sub;
}

int64_t LogHistogram::BucketUpperBound(int index) {
  if (index < kSubBucketCount) return index;
  int msb = (index >> kSubBucketBits) + kSubBucketBits - 1;
  int sub = index & (kSubBucketCount - 1);
  int shift = msb - kSubBucketBits;
  int64_t lower = (int64_t{1} << msb) + (static_cast<int64_t>(sub) << shift);
  return lower + (int64_t{1} << shift) - 1;
}

void LogHistogram::Record(int64_t value) {
  if (value < 0) value = 0;
  counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value,
                                     std::memory_order_relaxed)) {
  }
}

void LogHistogram::RecordN(int64_t value, int64_t n) {
  if (n <= 0) return;
  if (value < 0) value = 0;
  counts_[BucketIndex(value)].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(value * n, std::memory_order_relaxed);
  int64_t prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value,
                                     std::memory_order_relaxed)) {
  }
}

void LogHistogram::AddToBucket(int index, int64_t n) {
  if (n <= 0 || index < 0 || index >= kNumBuckets) return;
  counts_[index].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
}

void LogHistogram::RestoreSumMax(int64_t sum, int64_t max) {
  sum_.fetch_add(sum, std::memory_order_relaxed);
  int64_t prev = max_.load(std::memory_order_relaxed);
  while (max > prev &&
         !max_.compare_exchange_weak(prev, max, std::memory_order_relaxed)) {
  }
}

int64_t LogHistogram::ValueAtQuantile(double q) const {
  int64_t n = count();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  auto target = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  if (target < 1) target = 1;
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts_[i].load(std::memory_order_relaxed);
    if (seen >= target) {
      // Never report beyond the true maximum (tightens the top bucket).
      int64_t upper = BucketUpperBound(i);
      int64_t m = max();
      return m > 0 && m < upper ? m : upper;
    }
  }
  return max();
}

LogHistogram::Snapshot LogHistogram::GetSnapshot() const {
  Snapshot snap;
  snap.count = count();
  snap.sum = sum();
  snap.max = max();
  snap.p50 = ValueAtQuantile(0.50);
  snap.p95 = ValueAtQuantile(0.95);
  snap.p99 = ValueAtQuantile(0.99);
  return snap;
}

void LogHistogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

}  // namespace sstreaming

#ifndef SSTREAMING_OBS_HISTOGRAM_H_
#define SSTREAMING_OBS_HISTOGRAM_H_

#include <atomic>
#include <cstdint>

namespace sstreaming {

/// A lock-free log-bucketed latency histogram (HdrHistogram-style). Values
/// are bucketed by their power of two with 2^kSubBucketBits linear
/// sub-buckets per power, so quantile estimates carry at most ~6% relative
/// error while the whole histogram is a fixed 8 KiB of atomic counters.
/// Record() is wait-free (relaxed atomics plus one CAS loop for the max);
/// readers see a consistent-enough snapshot for monitoring purposes.
class LogHistogram {
 public:
  static constexpr int kSubBucketBits = 4;  // 16 sub-buckets per power of two
  static constexpr int kSubBucketCount = 1 << kSubBucketBits;
  static constexpr int kNumBuckets = 64 << kSubBucketBits;

  LogHistogram() = default;
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  /// Records one observation. Negative values are clamped to zero.
  void Record(int64_t value);

  /// Records `n` identical observations in O(1) (used for batch-granular
  /// latency samples weighted by row count). No-op when n <= 0.
  void RecordN(int64_t value, int64_t n);

  /// Raw count of bucket `index` (for serialization tests).
  int64_t bucket_count(int index) const {
    return counts_[index].load(std::memory_order_relaxed);
  }

  /// Adds `n` observations directly into bucket `index` (counts only — the
  /// deserialization path for sparse bucket dumps, see LatencySummary).
  /// `sum` and `max`, which bucket counts alone cannot reconstruct, are
  /// restored separately via RestoreSumMax.
  void AddToBucket(int index, int64_t n);
  /// Folds the exact sum/max that bucket quantization loses back in
  /// (deserialization companion to AddToBucket): sum accumulates, max takes
  /// the larger value.
  void RestoreSumMax(int64_t sum, int64_t max);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Exact maximum recorded value (0 when empty).
  int64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Estimated value at quantile `q` in [0, 1] (upper bound of the bucket
  /// holding that rank; 0 when empty). The estimate is within one
  /// sub-bucket width of the exact order statistic.
  int64_t ValueAtQuantile(double q) const;

  /// A coherent one-shot read of the headline statistics.
  struct Snapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t max = 0;
    int64_t p50 = 0;
    int64_t p95 = 0;
    int64_t p99 = 0;
  };
  Snapshot GetSnapshot() const;

  /// Resets all counters to zero. Not linearizable against concurrent
  /// Record() calls; meant for tests and between benchmark runs.
  void Reset();

  /// Bucket index for a value (exposed for tests).
  static int BucketIndex(int64_t value);
  /// Largest value mapping to `index` (inverse of BucketIndex; for tests).
  static int64_t BucketUpperBound(int index);

 private:
  std::atomic<int64_t> counts_[kNumBuckets]{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

}  // namespace sstreaming

#endif  // SSTREAMING_OBS_HISTOGRAM_H_

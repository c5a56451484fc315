#ifndef SSTREAMING_COMMON_CLOCK_H_
#define SSTREAMING_COMMON_CLOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>

namespace sstreaming {

/// Source of processing time for the engines. Production code uses
/// SystemClock; tests drive triggers and processing-time timeouts
/// deterministically with ManualClock.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in microseconds since an arbitrary epoch.
  virtual int64_t NowMicros() const = 0;
};

/// Wall-clock time.
class SystemClock : public Clock {
 public:
  int64_t NowMicros() const override;

  /// A process-wide instance (never destroyed; trivially usable at exit).
  static SystemClock* Default();
};

/// A clock advanced explicitly by tests.
class ManualClock : public Clock {
 public:
  explicit ManualClock(int64_t start_micros = 0) : now_(start_micros) {}

  int64_t NowMicros() const override { return now_.load(); }

  void AdvanceMicros(int64_t delta) { now_.fetch_add(delta); }
  void AdvanceMillis(int64_t delta) { AdvanceMicros(delta * 1000); }

 private:
  std::atomic<int64_t> now_;
};

/// Monotonic nanosecond timestamp for latency measurement.
int64_t MonotonicNanos();

}  // namespace sstreaming

#endif  // SSTREAMING_COMMON_CLOCK_H_

#ifndef SSTREAMING_OBS_PROFILER_H_
#define SSTREAMING_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace sstreaming {

/// One aggregated profile row: samples observed with a given
/// (query, stage, operator) attribution context.
struct ProfileEntry {
  std::string query;
  std::string stage;
  std::string op;
  int op_id = 0;
  int64_t samples = 0;
  /// samples x sampling period — estimated self time in this context.
  int64_t self_nanos = 0;
};

/// An aggregated profile: what the sampler saw over some window (or since
/// process start, for the cumulative snapshot).
struct ProfileSnapshot {
  /// Sampling rate the profiler was armed at when these samples were taken.
  double hz = 0;
  /// Sampler wake-ups covered by this snapshot.
  int64_t ticks = 0;
  /// Samples attributed to some context (one per registered busy thread per
  /// tick; registered-but-idle threads are not counted).
  int64_t total_samples = 0;
  /// Wall-clock span of the collection window (Collect only; 0 for the
  /// cumulative snapshot).
  int64_t duration_nanos = 0;
  /// Rows, sorted by samples descending.
  std::vector<ProfileEntry> entries;

  /// {"hz":..,"ticks":..,"totalSamples":..,"durationNanos":..,
  ///  "entries":[{query,stage,op,opId,samples,selfNanos}...],
  ///  "collapsed":["query;stage;op N", ...]}  — the collapsed lines are
  /// flamegraph.pl / speedscope "collapsed stack" format.
  Json ToJson() const;
  /// The collapsed-stack lines alone ("query;stage;op N\n"...).
  std::string Collapsed() const;
};

/// Process-wide continuous sampling profiler (dependency-free; no signals,
/// no unwinder). Worker threads publish a packed *attribution word* —
/// query / stage / operator label ids plus the operator id — into a
/// registered thread-local slot via RAII scopes (below); a timer thread
/// wakes at the armed rate and charges one sample per busy thread to its
/// current word. Aggregation is per distinct word, so the output is a
/// per-(query, stage, op) self-time profile, exportable as collapsed
/// stacks.
///
/// Off by default: when disarmed there is no sampler thread and every scope
/// constructor is a single relaxed atomic load. Arming is refcounted —
/// `GET /profile?seconds=N` collectors and `QueryOptions::profile_hz`
/// queries can overlap freely. The first armer picks the rate. At the
/// default 99 Hz a sample costs one word-load per registered thread every
/// ~10 ms, keeping the measured overhead well under the 2% budget
/// (docs/OBSERVABILITY.md; proven by the A/B point in the bench ledger).
class Profiler {
 public:
  static constexpr double kDefaultHz = 99.0;

  /// The process-wide instance (never destroyed).
  static Profiler& Instance();

  /// True while at least one armer holds the profiler on. Scope fast path.
  static bool active() {
    return active_flag_.load(std::memory_order_relaxed);
  }

  /// Interns `label`, returning a dense id in [1, 65535]. Idempotent.
  /// Returns the overflow bucket id if the label space is exhausted.
  uint32_t Intern(const std::string& label);

  /// Starts sampling (refcounted). The first armer starts the timer thread
  /// at `hz` (clamped to [1, 1000]); later armers join at the current rate.
  void Arm(double hz = kDefaultHz);
  /// Drops one armer; the last one out stops the timer thread.
  void Disarm();

  /// Arms, sleeps `duration_millis`, disarms, and returns the samples taken
  /// in that window (a before/after delta — concurrent collectors see their
  /// own windows). Blocks the calling thread.
  ProfileSnapshot Collect(int64_t duration_millis, double hz = kDefaultHz);

  /// Everything sampled since process start (or Reset).
  ProfileSnapshot Snapshot() const;

  /// Clears accumulated samples (tests).
  void Reset();

  // --- attribution word plumbing (scopes + schedulers; rarely direct) ---

  /// The calling thread's current attribution word (0 = unattributed).
  static uint64_t CurrentWord();

  /// The word a scheduler task should run under: the *submitting* thread's
  /// word with the stage field replaced by `stage_label`. Returns 0 when
  /// the profiler is off (callers skip propagation entirely then).
  uint64_t TaskWord(const std::string& stage_name);

  // Packing: query(16) | stage(16) | op_label(16) | op_id(16).
  static constexpr int kQueryShift = 48;
  static constexpr int kStageShift = 32;
  static constexpr int kOpLabelShift = 16;
  static uint64_t WithField(uint64_t word, int shift, uint32_t value) {
    uint64_t mask = ~(static_cast<uint64_t>(0xffff) << shift);
    return (word & mask) |
           (static_cast<uint64_t>(value & 0xffff) << shift);
  }

 private:
  friend class ProfileScopeBase;

  struct ThreadSlot {
    std::atomic<uint64_t> word{0};
  };

  Profiler() = default;

  /// The calling thread's slot, registering it on first use.
  static ThreadSlot* Slot();
  void RegisterSlot(const std::shared_ptr<ThreadSlot>& slot);
  void UnregisterSlot(const ThreadSlot* slot);

  void SamplerLoop();
  /// Copies the aggregated counts (word -> samples) and tick count.
  void CountsSnapshot(std::map<uint64_t, int64_t>* counts,
                      int64_t* ticks) const;
  ProfileSnapshot BuildSnapshot(const std::map<uint64_t, int64_t>& counts,
                                int64_t ticks) const;
  std::string LabelName(uint32_t id) const;

  static std::atomic<bool> active_flag_;

  mutable std::mutex intern_mu_;
  std::map<std::string, uint32_t> label_ids_ SS_GUARDED_BY(intern_mu_);
  std::vector<std::string> labels_ SS_GUARDED_BY(intern_mu_);

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadSlot>> slots_ SS_GUARDED_BY(mu_);
  std::map<uint64_t, int64_t> counts_ SS_GUARDED_BY(mu_);
  int64_t ticks_ SS_GUARDED_BY(mu_) = 0;

  mutable std::mutex control_mu_;
  int armed_count_ SS_GUARDED_BY(control_mu_) = 0;
  double hz_ SS_GUARDED_BY(control_mu_) = kDefaultHz;
  std::thread sampler_ SS_GUARDED_BY(control_mu_);
  std::atomic<bool> stop_{false};
};

/// Base for the RAII attribution scopes: when the profiler is active at
/// construction, swaps the calling thread's word and restores it on
/// destruction; a no-op (one relaxed load) otherwise.
class ProfileScopeBase {
 public:
  ProfileScopeBase(const ProfileScopeBase&) = delete;
  ProfileScopeBase& operator=(const ProfileScopeBase&) = delete;

 protected:
  ProfileScopeBase() = default;
  ~ProfileScopeBase() {
    if (slot_ != nullptr) {
      slot_->word.store(saved_, std::memory_order_relaxed);
    }
  }

  /// Publishes `word` for this thread (registering it) and remembers the
  /// previous word for restore.
  void Engage(uint64_t word);
  /// Current word if active, else 0 (without engaging).
  static uint64_t PeekWord();

 private:
  Profiler::ThreadSlot* slot_ = nullptr;
  uint64_t saved_ = 0;
};

/// Attributes the enclosed work to a query (the trigger/epoch driver).
class ProfileQueryScope : public ProfileScopeBase {
 public:
  explicit ProfileQueryScope(uint32_t query_label) {
    if (!Profiler::active() || query_label == 0) return;
    Engage(Profiler::WithField(PeekWord(), Profiler::kQueryShift,
                               query_label));
  }
};

/// Attributes the enclosed work to a named engine stage ("execute",
/// "checkpoint", ...), keeping the surrounding query/op context.
class ProfileStageScope : public ProfileScopeBase {
 public:
  explicit ProfileStageScope(uint32_t stage_label) {
    if (!Profiler::active() || stage_label == 0) return;
    Engage(Profiler::WithField(PeekWord(), Profiler::kStageShift,
                               stage_label));
  }
};

/// Attributes the enclosed work to an operator (set by PhysOp::Execute).
class ProfileOpScope : public ProfileScopeBase {
 public:
  ProfileOpScope(uint32_t op_label, int op_id) {
    if (!Profiler::active() || op_label == 0) return;
    uint64_t word = Profiler::WithField(PeekWord(), Profiler::kOpLabelShift,
                                        op_label);
    Engage(Profiler::WithField(word, 0,
                               static_cast<uint32_t>(op_id & 0xffff)));
  }
};

/// Installs a whole inherited word on a scheduler worker thread (the
/// submitting thread's context with the stage field replaced — see
/// Profiler::TaskWord). No-op when `word` is 0.
class ProfileTaskScope : public ProfileScopeBase {
 public:
  explicit ProfileTaskScope(uint64_t word) {
    if (word == 0 || !Profiler::active()) return;
    Engage(word);
  }
};

}  // namespace sstreaming

#endif  // SSTREAMING_OBS_PROFILER_H_

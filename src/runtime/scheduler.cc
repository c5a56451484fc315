#include "runtime/scheduler.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "testing/failpoints.h"

namespace sstreaming {

namespace {

/// Shared instrumentation for the real schedulers: task latency histogram,
/// stage latency histogram, counts, a live queue-depth gauge, per-task
/// queue-wait histogram, and a stage saturation gauge.
struct StageMetrics {
  LogHistogram* task_nanos = nullptr;
  LogHistogram* stage_nanos = nullptr;
  LogHistogram* queue_wait_nanos = nullptr;
  Counter* tasks_total = nullptr;
  Gauge* queue_depth = nullptr;
  Gauge* saturation = nullptr;

  explicit StageMetrics(MetricsRegistry* registry) {
    if (registry == nullptr) return;
    task_nanos = registry->GetHistogram("sstreaming_scheduler_task_nanos");
    stage_nanos = registry->GetHistogram("sstreaming_scheduler_stage_nanos");
    queue_wait_nanos =
        registry->GetHistogram("sstreaming_scheduler_queue_wait_nanos");
    tasks_total = registry->GetCounter("sstreaming_scheduler_tasks_total");
    queue_depth = registry->GetGauge("sstreaming_scheduler_queue_depth");
    saturation =
        registry->GetGauge("sstreaming_scheduler_saturation_permille");
  }
  bool enabled() const { return task_nanos != nullptr; }

  /// Busy fraction of the stage in parts per thousand: total task run time
  /// over (stage wall x parallelism). ~1000 = every core busy the whole
  /// stage; sustained high values with queue wait = the pool is the
  /// bottleneck.
  void RecordStage(const StageWait& w, int parallelism) const {
    if (!enabled()) return;
    stage_nanos->Record(w.stage_wall_nanos);
    int64_t capacity = w.stage_wall_nanos * std::max(1, parallelism);
    if (capacity > 0) {
      saturation->Set(std::min<int64_t>(1000, w.run_nanos * 1000 / capacity));
    }
  }
};

/// Folds one task's timings into the stage accounting.
void AddTask(StageWait* w, int64_t wait_nanos, int64_t run_nanos) {
  ++w->tasks;
  w->queue_wait_nanos += wait_nanos;
  w->run_nanos += run_nanos;
  w->max_run_nanos = std::max(w->max_run_nanos, run_nanos);
}

/// Injected task failure ("scheduler.task.run"): the task is charged as
/// failed before running, like an executor dying mid-task. The engine has
/// no per-task retry in the real schedulers (SimClusterScheduler models
/// that); an injected failure fails the stage and thus the epoch, which
/// recovery then replays.
Status MaybeInjectTaskFailure() {
  static FailpointSite site("scheduler.task.run");
  if (site.armed()) return Failpoints::Instance().Evaluate(&site);
  return Status::OK();
}

}  // namespace

Status InlineScheduler::RunStage(const std::string& stage_name,
                                 std::vector<std::function<Status()>> tasks,
                                 StageWait* wait) {
  StageMetrics m(metrics_);
  StageWait w;
  const uint64_t prof_word = Profiler::Instance().TaskWord(stage_name);
  int64_t stage_t0 = MonotonicNanos();
  if (m.enabled()) {
    m.queue_depth->Set(static_cast<int64_t>(tasks.size()));
  }
  for (auto& task : tasks) {
    // Serial execution: every task was "submitted" at stage start, so task
    // i's queue wait is the time tasks 0..i-1 spent running before it.
    int64_t t0 = MonotonicNanos();
    Status s;
    {
      ProfileTaskScope prof(prof_word);
      s = MaybeInjectTaskFailure();
      if (s.ok()) s = task();
    }
    int64_t t1 = MonotonicNanos();
    AddTask(&w, t0 - stage_t0, t1 - t0);
    if (m.enabled()) {
      m.task_nanos->Record(t1 - t0);
      m.queue_wait_nanos->Record(t0 - stage_t0);
      m.tasks_total->Increment();
      m.queue_depth->Add(-1);
    }
    SS_RETURN_IF_ERROR(s);
  }
  w.stage_wall_nanos = MonotonicNanos() - stage_t0;
  if (m.enabled()) {
    m.queue_depth->Set(0);
    m.RecordStage(w, parallelism());
  }
  if (wait != nullptr) *wait = w;
  return Status::OK();
}

PoolScheduler::PoolScheduler(int num_threads) : pool_(num_threads) {}

Status PoolScheduler::RunStage(const std::string& stage_name,
                               std::vector<std::function<Status()>> tasks,
                               StageWait* wait) {
  std::mutex mu;
  Status first_error;  // guarded by mu (locals cannot carry SS_GUARDED_BY)
  StageWait w;         // guarded by mu
  StageMetrics m(metrics_);
  const uint64_t prof_word = Profiler::Instance().TaskWord(stage_name);
  int64_t stage_t0 = MonotonicNanos();
  if (m.enabled()) {
    m.queue_depth->Set(static_cast<int64_t>(tasks.size()));
  }
  for (auto& task : tasks) {
    int64_t submit_t = MonotonicNanos();
    pool_.Submit([&mu, &first_error, &w, m, submit_t, prof_word,
                  task = std::move(task)] {
      int64_t t0 = MonotonicNanos();
      Status s;
      {
        ProfileTaskScope prof(prof_word);
        s = MaybeInjectTaskFailure();
        if (s.ok()) s = task();
      }
      int64_t t1 = MonotonicNanos();
      if (m.enabled()) {
        m.task_nanos->Record(t1 - t0);
        m.queue_wait_nanos->Record(t0 - submit_t);
        m.tasks_total->Increment();
        m.queue_depth->Add(-1);
      }
      std::lock_guard<std::mutex> lock(mu);
      AddTask(&w, t0 - submit_t, t1 - t0);
      if (!s.ok() && first_error.ok()) first_error = s;
    });
  }
  pool_.Wait();
  w.stage_wall_nanos = MonotonicNanos() - stage_t0;
  if (m.enabled()) {
    m.queue_depth->Set(0);
    m.RecordStage(w, parallelism());
  }
  if (wait != nullptr) *wait = w;
  return first_error;
}

SimClusterScheduler::SimClusterScheduler(Options options)
    : options_(options), rng_(options.seed) {}

Status SimClusterScheduler::RunStage(
    const std::string& stage_name,
    std::vector<std::function<Status()>> tasks, StageWait* wait) {
  const int cores = parallelism();
  StageMetrics m(metrics_);
  const uint64_t prof_word = Profiler::Instance().TaskWord(stage_name);
  // Tasks run for real (serially, on this machine) so their outputs are
  // exact; only their measured durations are placed on the simulated
  // timeline, by earliest-available-core list scheduling.
  std::vector<int64_t> durations;
  durations.reserve(tasks.size());
  for (auto& task : tasks) {
    pending_charge_ = 0;
    int64_t t0 = MonotonicNanos();
    Status s;
    {
      ProfileTaskScope prof(prof_word);
      s = MaybeInjectTaskFailure();
      if (s.ok()) s = task();
    }
    SS_RETURN_IF_ERROR(s);
    int64_t measured = options_.fixed_task_duration_nanos > 0
                           ? options_.fixed_task_duration_nanos
                           : MonotonicNanos() - t0 + pending_charge_;
    if (measured < 1000) measured = 1000;  // clamp timer noise
    durations.push_back(measured);
  }
  if (options_.denoise_outliers && durations.size() >= 4) {
    std::vector<int64_t> sorted = durations;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    int64_t median = sorted[sorted.size() / 2];
    int64_t cap = static_cast<int64_t>(static_cast<double>(median) *
                                       options_.denoise_factor);
    for (int64_t& d : durations) {
      if (d > cap) d = median;
    }
  }
  StageWait w;
  std::vector<int64_t> core_free_at(static_cast<size_t>(cores), 0);
  for (int64_t measured : durations) {
    int64_t attempt = measured;
    // Fault injection: the first attempt is lost and re-run elsewhere. The
    // real execution above already produced the (idempotent) output; only
    // the simulated cost reflects the retry (paper §6.2: "only its tasks
    // need to be rerun ... in parallel").
    if (options_.task_failure_probability > 0 &&
        rng_.OneIn(options_.task_failure_probability)) {
      ++failures_;
      // Failure detected partway through, then a full re-run.
      attempt = attempt / 2 + measured;
    }
    // Straggler injection with optional speculative backup.
    if (options_.straggler_probability > 0 &&
        rng_.OneIn(options_.straggler_probability)) {
      ++stragglers_;
      int64_t straggled = static_cast<int64_t>(
          static_cast<double>(attempt) * options_.straggler_factor);
      if (options_.speculation) {
        // Backup launched once the task runs ~2x its expected duration;
        // the backup completes in the normal duration. Stage sees the
        // earlier of (straggler, detection + backup).
        int64_t with_backup = 2 * measured + measured;
        if (with_backup < straggled) {
          ++speculative_wins_;
          attempt = with_backup;
        } else {
          attempt = straggled;
        }
      } else {
        attempt = straggled;
      }
    }
    attempt += options_.task_launch_overhead_nanos;
    if (m.enabled()) {
      // Record the *simulated* task latency — what the cluster would see.
      m.task_nanos->Record(attempt);
      m.tasks_total->Increment();
    }

    auto it = std::min_element(core_free_at.begin(), core_free_at.end());
    // All tasks are submitted at virtual stage start; the chosen core's
    // busy time is this task's simulated queue wait.
    AddTask(&w, *it, attempt);
    if (m.enabled()) m.queue_wait_nanos->Record(*it);
    *it += attempt;
  }
  int64_t stage_finish =
      *std::max_element(core_free_at.begin(), core_free_at.end());
  virtual_nanos_ += stage_finish;
  w.stage_wall_nanos = stage_finish;
  if (m.enabled()) m.RecordStage(w, cores);
  if (wait != nullptr) *wait = w;
  return Status::OK();
}

}  // namespace sstreaming

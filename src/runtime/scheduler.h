#ifndef SSTREAMING_RUNTIME_SCHEDULER_H_
#define SSTREAMING_RUNTIME_SCHEDULER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace sstreaming {

class MetricsRegistry;

/// Per-stage queue/backpressure accounting filled in by RunStage: how long
/// tasks sat between submit and start (queue wait — the backpressure signal
/// when partitions outnumber cores), how long they ran, the slowest task
/// (skew), and the stage's own time. On SimClusterScheduler all of it is
/// virtual time, so the numbers describe the simulated cluster, not the
/// host.
struct StageWait {
  int64_t tasks = 0;
  /// Sum over tasks of (start time - submit time). Tasks wait
  /// concurrently, so this can exceed the stage's wall time.
  int64_t queue_wait_nanos = 0;
  /// Sum over tasks of execution time (excludes queue wait).
  int64_t run_nanos = 0;
  int64_t max_run_nanos = 0;
  /// Submit of the first task to completion of the last.
  int64_t stage_wall_nanos = 0;
};

/// Executes one stage of a microbatch job: a set of independent tasks, one
/// per partition (paper §6.2 — "each epoch executes as a traditional Spark
/// job composed of a DAG of independent tasks"). The engine is agnostic to
/// how tasks are placed, which is where the cluster substitutions live:
///
///  - InlineScheduler: serial, deterministic; used by tests and batch runs.
///  - PoolScheduler: a real thread pool on this machine.
///  - SimClusterScheduler: the paper's EC2 clusters are simulated in virtual
///    time — every task still executes for real (results are exact), but its
///    measured duration is charged to the earliest-available core of an
///    N-node simulated cluster, with task-launch overhead, stragglers,
///    speculative backup copies, and task-retry-on-failure modeled. This is
///    how the scaling experiments (paper §9.2) run on a single machine.
class TaskScheduler {
 public:
  virtual ~TaskScheduler() = default;

  /// Runs all tasks to completion; fails if any task fails. When `wait` is
  /// non-null it receives the stage's queue/run accounting (see StageWait).
  /// Tasks inherit the submitting thread's profiler attribution word with
  /// the stage field set to `stage_name` (obs/profiler.h) — a no-op unless
  /// the profiler is armed.
  virtual Status RunStage(const std::string& stage_name,
                          std::vector<std::function<Status()>> tasks,
                          StageWait* wait) = 0;

  /// Convenience overload for callers that do not need the accounting.
  Status RunStage(const std::string& stage_name,
                  std::vector<std::function<Status()>> tasks) {
    return RunStage(stage_name, std::move(tasks), nullptr);
  }

  /// Degree of (possibly simulated) parallelism.
  virtual int parallelism() const = 0;

  /// Called from *inside* a running task to charge additional virtual time
  /// for work the in-process substitute makes artificially cheap (e.g. a
  /// message-bus append standing in for a real Kafka broker round trip).
  /// No-op on real schedulers, where wall-clock time is the truth.
  virtual void ChargeVirtualNanos(int64_t) {}

  /// Optional instrumentation: when set, RunStage implementations record
  /// per-task latency (`sstreaming_scheduler_task_nanos`), per-task queue
  /// wait (`sstreaming_scheduler_queue_wait_nanos`), per-stage wall time
  /// (`sstreaming_scheduler_stage_nanos`), task/stage counts, the live
  /// queue depth (`sstreaming_scheduler_queue_depth`), and the stage busy
  /// fraction (`sstreaming_scheduler_saturation_permille`). A scheduler
  /// shared between queries should be given a shared registry.
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

 protected:
  MetricsRegistry* metrics_ = nullptr;
};

/// Serial in-process execution.
class InlineScheduler : public TaskScheduler {
 public:
  using TaskScheduler::RunStage;
  Status RunStage(const std::string& stage_name,
                  std::vector<std::function<Status()>> tasks,
                  StageWait* wait) override;
  int parallelism() const override { return 1; }
};

/// Real threads on this machine.
class PoolScheduler : public TaskScheduler {
 public:
  explicit PoolScheduler(int num_threads);

  using TaskScheduler::RunStage;
  Status RunStage(const std::string& stage_name,
                  std::vector<std::function<Status()>> tasks,
                  StageWait* wait) override;
  int parallelism() const override { return pool_.num_threads(); }

 private:
  ThreadPool pool_;
};

/// Virtual-time cluster simulation (see class comment above).
class SimClusterScheduler : public TaskScheduler {
 public:
  struct Options {
    Options() {}
    int num_nodes = 1;
    int cores_per_node = 8;
    /// Fixed per-task scheduling/launch overhead charged in virtual time
    /// (the microbatch mode's latency floor, paper §6.2).
    int64_t task_launch_overhead_nanos = 200000;  // 0.2 ms
    /// Probability that a task straggles, and the slowdown factor applied.
    double straggler_probability = 0.0;
    double straggler_factor = 8.0;
    /// Launch a speculative backup copy once a straggler is detected
    /// (after ~2x the task's normal duration); the stage takes the earlier
    /// finisher (paper §6.2 "straggler mitigation").
    bool speculation = false;
    /// Probability a task's first attempt fails and is retried on another
    /// node (fine-grained fault recovery, §6.2).
    double task_failure_probability = 0.0;
    /// Replace measured task durations above `denoise_factor` x the stage
    /// median with the median before scheduling. The simulation host is a
    /// single shared core, so a task occasionally gets descheduled by the
    /// OS mid-measurement; without denoising, the expected maximum over N
    /// tasks grows with N and masquerades as poor scaling. This cleans
    /// *measurement* noise only — injected stragglers/failures are applied
    /// after it.
    bool denoise_outliers = false;
    double denoise_factor = 2.0;
    /// When > 0, charge every task this fixed simulated duration instead of
    /// its measured wall time. Tasks still execute for real (their outputs
    /// are exact); only the timeline becomes independent of host load —
    /// use for deterministic simulations and tests.
    int64_t fixed_task_duration_nanos = 0;
    uint64_t seed = 42;
  };

  explicit SimClusterScheduler(Options options);

  using TaskScheduler::RunStage;
  Status RunStage(const std::string& stage_name,
                  std::vector<std::function<Status()>> tasks,
                  StageWait* wait) override;
  int parallelism() const override {
    return options_.num_nodes * options_.cores_per_node;
  }

  /// Total simulated wall-clock time consumed by all stages so far.
  int64_t virtual_nanos() const { return virtual_nanos_; }
  void reset_virtual_time() { virtual_nanos_ = 0; }

  void ChargeVirtualNanos(int64_t nanos) override {
    // Tasks execute serially here, so a plain member is race-free.
    pending_charge_ += nanos;
  }

  /// Count of straggler / failure / speculative events (for reporting).
  int64_t stragglers_injected() const { return stragglers_; }
  int64_t failures_injected() const { return failures_; }
  int64_t speculative_wins() const { return speculative_wins_; }

 private:
  Options options_;
  Random rng_;
  int64_t virtual_nanos_ = 0;
  int64_t pending_charge_ = 0;
  int64_t stragglers_ = 0;
  int64_t failures_ = 0;
  int64_t speculative_wins_ = 0;
};

}  // namespace sstreaming

#endif  // SSTREAMING_RUNTIME_SCHEDULER_H_

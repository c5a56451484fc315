#ifndef SSTREAMING_EXEC_STREAMING_QUERY_H_
#define SSTREAMING_EXEC_STREAMING_QUERY_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/plan_fingerprint.h"
#include "common/clock.h"
#include "connectors/sink.h"
#include "incremental/incrementalizer.h"
#include "logical/dataframe.h"
#include "obs/metrics.h"
#include "obs/plan_profile.h"
#include "obs/progress.h"
#include "obs/query_history.h"
#include "obs/tracer.h"
#include "runtime/scheduler.h"
#include "wal/write_ahead_log.h"

namespace sstreaming {

/// When the engine attempts a new incremental computation (paper §4, API
/// feature 1). Continuous triggers are served by ContinuousQuery.
struct Trigger {
  enum class Type { kProcessingTime, kOnce };

  Type type = Type::kProcessingTime;
  int64_t interval_micros = 0;  // 0 = re-trigger as soon as possible

  /// Fire every `interval_micros` of processing time.
  static Trigger ProcessingTime(int64_t interval_micros) {
    return Trigger{Type::kProcessingTime, interval_micros};
  }
  /// Run exactly one epoch then stop — the paper's "run-once" trigger used
  /// for discontinuous processing (§7.3).
  static Trigger Once() { return Trigger{Type::kOnce, 0}; }
};

struct QueryOptions {
  QueryOptions() {}

  OutputMode mode = OutputMode::kAppend;
  Trigger trigger;
  /// Directory for the write-ahead log and state store. Empty = ephemeral
  /// (no durability, no recovery) — for tests and throwaway queries.
  std::string checkpoint_dir;
  /// Shuffle fan-out for stateful stages.
  int num_partitions = 4;
  /// Cap on records ingested per epoch across all sources (0 = unlimited).
  /// The default (unlimited) IS the paper's adaptive batching (§7.3): a
  /// backlog yields one large catch-up epoch; setting a cap disables that
  /// and is used by the adaptive-batching ablation benchmark.
  int64_t max_records_per_epoch = 0;
  /// Checkpoint operator state every N epochs (paper §6.1: "these
  /// checkpoints do not need to happen on every epoch"; footnote 2 says
  /// Spark 2.3 checkpointed per epoch but planned to reduce frequency).
  /// With N > 1, recovery replays the epochs since the newest checkpoint
  /// from the write-ahead log — re-commits to the sink are idempotent.
  int state_checkpoint_interval = 1;
  /// Keep at least this many recent epochs of WAL entries and state files
  /// (0 = keep everything). Bounds checkpoint growth while preserving
  /// manual rollback over that horizon (§7.2).
  int64_t retain_epochs = 0;
  StateStore::Options state_options;
  /// Keyed state within each (operator, partition) store is hash-sharded
  /// across this many independent shards; stateful operators process shards
  /// as parallel scheduler tasks and checkpoint/restore them independently
  /// (docs/STATE_SHARDING.md). Results are byte-identical for any count.
  /// The count is fixed when a checkpoint's state is created: restarting
  /// with a different count fails with SS3004 unless
  /// allow_checkpoint_incompatibility is set, which adopts the on-disk
  /// count instead.
  int num_state_shards = 4;
  const Clock* clock = nullptr;           // default: SystemClock
  TaskScheduler* scheduler = nullptr;     // default: InlineScheduler
  /// Intentional-migration escape hatch for the pre-recovery checkpoint
  /// compatibility gate (docs/UPGRADES.md): SS3xxx errors — key-schema or
  /// output-mode changes, stateful-operator removal, shard/partition count
  /// mismatches — normally fail Start() before any state is touched. With
  /// this set they are downgraded to warnings (same codes, riding
  /// plan_warnings) and the manifest is rewritten for the new plan. Also
  /// lets ShardedStateStore adopt a mismatched on-disk shard count.
  bool allow_checkpoint_incompatibility = false;

  /// Name used in progress events, metric log lines and log prefixes.
  std::string query_name;
  /// When > 0, arms the process-wide sampling profiler (obs/profiler.h) for
  /// this query's lifetime at the given rate (Hz, clamped to [1, 1000]).
  /// Profiles are readable any time via GET /profile?seconds=N. 0 (default)
  /// leaves the profiler to on-demand HTTP arming only.
  double profile_hz = 0;
  /// Metrics registry to record into; the query creates a private one when
  /// unset. Pass a shared registry to aggregate several queries.
  std::shared_ptr<MetricsRegistry> metrics;
  /// Epoch tracer to record spans into; the query creates a private one
  /// when unset (unless tracing is disabled).
  std::shared_ptr<EpochTracer> tracer;
  bool enable_tracing = true;
};

/// A running (or runnable) incremental query: the microbatch execution mode
/// (paper §6.2). Each trigger plans an epoch in the write-ahead log,
/// executes it as a DAG of per-partition tasks, checkpoints state, commits
/// the sink idempotently, then records the commit — the exactly-once
/// protocol of §6.1.
class StreamingQuery {
 public:
  /// Analyzes, validates (output-mode rules §5.1), optimizes and
  /// incrementalizes the query; recovers from `checkpoint_dir` if it holds a
  /// previous run's log (replaying uncommitted epochs against the sink).
  static Result<std::unique_ptr<StreamingQuery>> Start(const DataFrame& df,
                                                       SinkPtr sink,
                                                       QueryOptions options);

  ~StreamingQuery();

  StreamingQuery(const StreamingQuery&) = delete;
  StreamingQuery& operator=(const StreamingQuery&) = delete;

  /// Runs one trigger synchronously. Returns true if an epoch executed
  /// (false when no new data was available and the query is idle).
  Result<bool> ProcessOneTrigger();

  /// Runs triggers until all currently-available input is processed (the
  /// standard way to drive a query deterministically in tests/examples).
  Status ProcessAllAvailable();

  /// Runs the trigger loop on a background thread until Stop().
  Status StartBackground();
  void Stop();
  bool IsActive() const { return background_active_.load(); }

  /// Monitoring (§7.4). `recent_progress()` returns the live ring buffer —
  /// only safe while no trigger is running concurrently (tests, synchronous
  /// drivers). Concurrent observers (the HTTP server) use the snapshot
  /// accessors below.
  const std::vector<QueryProgress>& recent_progress() const
      SS_NO_THREAD_SAFETY_ANALYSIS {
    return progress_;
  }
  /// Thread-safe copy of the progress ring buffer.
  std::vector<QueryProgress> GetProgressSnapshot() const;
  /// Thread-safe copy of the most recent progress; false when no epoch has
  /// completed yet.
  bool GetLastProgress(QueryProgress* out) const;
  /// Thread-safe copy of error() (safe while triggers run concurrently).
  Status GetError() const;
  int64_t last_epoch() const { return last_epoch_; }
  int64_t watermark_micros() const { return watermark_micros_; }
  const PhysicalPlan& physical_plan() const { return plan_; }
  /// The stateful operators' keyed state. Like recent_progress(), only safe
  /// while no trigger runs concurrently.
  const StateManager& state() const { return *state_; }

  /// EXPLAIN ANALYZE (§7.4): the physical plan annotated with cumulative
  /// per-operator actuals — rows, batches, self CPU, output bytes, live and
  /// peak state size. Thread-safe; callable while the query runs. Also
  /// served as JSON by the observability HTTP endpoint
  /// /queries/<id>/plan (see obs/http_server.h).
  std::string ExplainAnalyze() const { return plan_profile_.Render(); }
  const PlanProfile& plan_profile() const { return plan_profile_; }

  /// Static plan-analysis warnings (SS2xxx) found at Start — unbounded
  /// state, lost watermarks, complete-mode memory. The query runs anyway;
  /// these also surface through QueryStartedEvent.plan_warnings and the
  /// `sstreaming_plan_warnings_total` counter (labeled by code).
  const std::vector<Diagnostic>& plan_warnings() const {
    return plan_warnings_;
  }

  /// The canonical plan fingerprint computed at Start (the identity the
  /// checkpoint manifest records; docs/UPGRADES.md). Immutable once the
  /// query is built, so it is safe to read concurrently — the HTTP endpoint
  /// /queries/<id>/fingerprint serves its ToJson() byte-identically across
  /// scrapes.
  const PlanFingerprint& plan_fingerprint() const { return fingerprint_; }

  /// The checkpoint directory (empty for ephemeral queries).
  const std::string& checkpoint_dir() const {
    return options_.checkpoint_dir;
  }

  /// Doctor inputs (obs/doctor.h): the scheduler's worker parallelism and
  /// the configured keyed-state shard count. Immutable after Start.
  int scheduler_parallelism() const { return scheduler_->parallelism(); }
  int num_state_shards() const { return options_.num_state_shards; }

  /// The durable history log (null for ephemeral queries). Sticky append
  /// errors surface via history()->status(); they never fail epochs.
  const QueryHistoryLog* history() const { return history_.get(); }

  /// The registry this query records into (never null after Start).
  const std::shared_ptr<MetricsRegistry>& metrics() const { return metrics_; }
  /// The epoch tracer (null when tracing is disabled).
  const std::shared_ptr<EpochTracer>& tracer() const { return tracer_; }

  /// Invoked synchronously after every completed epoch, including recovery
  /// replay. Set before driving the query (QueryManager wires this to its
  /// listener bus).
  void SetProgressCallback(std::function<void(const QueryProgress&)> cb) {
    progress_callback_ = std::move(cb);
  }
  /// Invoked exactly once when the query terminates: on Stop(), destruction,
  /// or the first failed epoch (with the failure status).
  void SetTerminationCallback(
      std::function<void(const Status&, int64_t last_epoch)> cb) {
    termination_callback_ = std::move(cb);
  }
  /// Non-OK once an epoch has failed; the query must be restarted (§7.1:
  /// fix the UDF, restart from the log). Like recent_progress(), only safe
  /// when no trigger runs concurrently; use GetError() otherwise.
  const Status& error() const SS_NO_THREAD_SAFETY_ANALYSIS { return error_; }

  /// Manual rollback (paper §7.2): removes WAL entries and state versions
  /// after `epoch` so a restarted query recomputes from there. The query
  /// using this checkpoint must be stopped. Sink cleanup (removing output
  /// of rolled-back epochs) is sink-specific and up to the operator.
  static Status Rollback(const std::string& checkpoint_dir, int64_t epoch);

 private:
  StreamingQuery() = default;

  Status Recover();
  ShardedStateStore::Options StateOptions() const;
  /// Executes `plan` and commits sink+WAL. Used for both new epochs and
  /// recovery replay.
  Status RunPlannedEpoch(const EpochPlan& plan);
  Result<EpochPlan> PlanNextEpoch();
  void BuildProfileNodes();
  void NotifyTerminated();

  QueryOptions options_;
  SinkPtr sink_;
  PhysicalPlan plan_;
  std::unique_ptr<WriteAheadLog> wal_;          // null when ephemeral
  std::unique_ptr<QueryHistoryLog> history_;    // null when ephemeral
  std::unique_ptr<StateManager> state_;
  std::unique_ptr<TaskScheduler> owned_scheduler_;
  TaskScheduler* scheduler_ = nullptr;
  const Clock* clock_ = nullptr;

  int64_t last_epoch_ = 0;
  int64_t last_state_commit_ = 0;
  int64_t watermark_micros_ = INT64_MIN;
  // Running per-watermark-operator candidates (min across them = global).
  std::map<int, int64_t> per_op_watermark_;
  // Offsets consumed so far per source (end of last epoch).
  std::map<std::string, std::vector<int64_t>> committed_offsets_;
  // Guards progress_ and error_ against concurrent observers (HTTP scrape
  // threads read snapshots while the trigger thread appends).
  mutable std::mutex progress_mu_;
  std::vector<QueryProgress> progress_ SS_GUARDED_BY(progress_mu_);
  std::vector<Diagnostic> plan_warnings_;
  PlanFingerprint fingerprint_;
  Status error_ SS_GUARDED_BY(progress_mu_);

  // Observability (§7.4).
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<EpochTracer> tracer_;
  PlanProfile plan_profile_;  // internally synchronized
  // The plan's profile nodes in pre-order (root first): the skeleton that
  // each epoch's per-operator progress and the plan profile hang off.
  std::vector<OpProfileNode> profile_nodes_;
  std::function<void(const QueryProgress&)> progress_callback_;
  std::function<void(const Status&, int64_t)> termination_callback_;
  std::atomic<bool> termination_notified_{false};
  // Interned profiler label for this query's name (0 until Start), and
  // whether Start armed the sampler (so termination disarms exactly once).
  uint32_t profile_query_label_ = 0;
  bool profiler_armed_ = false;
  // Stage-timing state handed from ProcessOneTrigger to RunPlannedEpoch
  // (zero during recovery replay, which skips the planning stage).
  int64_t pending_epoch_start_nanos_ = 0;
  int64_t pending_plan_nanos_ = 0;
  int64_t pending_trigger_wait_nanos_ = 0;
  // Lateness of this trigger against its scheduled fire time, measured by
  // the background loop (0 for manual triggers and recovery replay).
  int64_t pending_trigger_drift_nanos_ = 0;
  int64_t last_trigger_end_nanos_ = 0;
  std::map<std::string, int64_t> pending_backlog_rows_;
  // Age (micros) of the oldest record each source deferred at plan time.
  std::map<std::string, int64_t> pending_backlog_age_;

  std::thread background_;
  std::atomic<bool> background_active_{false};
  std::atomic<bool> stop_requested_{false};
};

}  // namespace sstreaming

#endif  // SSTREAMING_EXEC_STREAMING_QUERY_H_

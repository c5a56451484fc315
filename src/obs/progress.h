#ifndef SSTREAMING_OBS_PROGRESS_H_
#define SSTREAMING_OBS_PROGRESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/histogram.h"

namespace sstreaming {

/// A serializable snapshot of one LogHistogram of latency samples: headline
/// quantiles plus the sparse bucket counts, so per-epoch summaries can be
/// merged back into a histogram without losing bucket-level precision.
/// Merging every epoch's summary reproduces the query-lifetime
/// `sstreaming_e2e_latency_micros` series exactly (same buckets, same
/// quantile estimates — tested).
struct LatencySummary {
  int64_t count = 0;
  int64_t sum_micros = 0;
  int64_t max_micros = 0;
  int64_t p50_micros = 0;
  int64_t p95_micros = 0;
  int64_t p99_micros = 0;
  /// (LogHistogram bucket index, count), ascending by index, zero counts
  /// omitted.
  std::vector<std::pair<int, int64_t>> buckets;

  bool empty() const { return count == 0; }

  /// Snapshot of `h` (headline stats + sparse buckets).
  static LatencySummary FromHistogram(const LogHistogram& h);
  /// Adds this summary's samples into `h` at bucket granularity (exact sum
  /// and max are restored too).
  void MergeInto(LogHistogram* h) const;

  Json ToJson() const;
  static Result<LatencySummary> FromJson(const Json& json);
};

/// One operator's place in the plan, as EXPLAIN ANALYZE and the per-epoch
/// operator list show it. Most operators contribute exactly one node
/// (themselves); a fused pipeline contributes one node for itself plus one
/// per original stage (PhysOp::CollectProfileNodes).
struct OpProfileNode {
  int op_id = 0;
  std::string name;
  bool is_source = false;
  /// op_ids whose rows_out feed this node (its inputs).
  std::vector<int> child_ids;
};

/// Per-operator summary for one epoch (rows through the operator, batches
/// produced, and self CPU-ish wall time — the operator's inclusive time
/// minus its children's). The one record of per-operator counters: the
/// physical operators add into it while the epoch runs, the progress event
/// carries it, and the plan profile's totals are its MergeFrom fold.
struct OperatorProgress {
  int op_id = 0;
  std::string name;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  int64_t batches = 0;
  int64_t cpu_nanos = 0;
  /// Approximate bytes of the operator's output batches this epoch.
  int64_t output_bytes = 0;
  /// Live state-store size after the epoch (0 for stateless operators).
  int64_t state_rows = 0;
  int64_t state_bytes = 0;
  /// Scheduler accounting for the stages this operator submitted this
  /// epoch: task count, summed stage time (first submit to last finish;
  /// virtual time on SimClusterScheduler), summed submit->start queue wait
  /// (the backpressure signal), summed task run time, and the run-time of
  /// the slowest task (skew — e.g. a hot state shard's fold task). All zero
  /// (and omitted from the JSON) for operators that ran no scheduler task.
  int64_t tasks = 0;
  int64_t stage_nanos = 0;
  int64_t queue_wait_nanos = 0;
  int64_t task_run_nanos = 0;
  int64_t max_task_run_nanos = 0;
  /// Per-shard breakdown of (state_rows, state_bytes), indexed by shard.
  /// Empty for stateless operators (and omitted from the JSON then).
  std::vector<std::pair<int64_t, int64_t>> shard_state;

  /// Folds a later record of the same operator into this one: the counters
  /// add up, max_task_run_nanos keeps the larger, and the state size (a
  /// level, not a flow) becomes the later record's.
  void MergeFrom(const OperatorProgress& later);

  Json ToJson() const;
  static Result<OperatorProgress> FromJson(const Json& json);
};

/// Per-source input summary for one epoch.
struct SourceProgress {
  std::string name;
  int64_t rows = 0;
  /// Input rate over the epoch's processing duration.
  double rows_per_sec = 0;
  /// Records available at plan time but deferred to later epochs (>0 only
  /// when max_records_per_epoch caps the batch).
  int64_t backlog_rows = 0;
  /// Age of the oldest deferred record at plan time (now minus its ingest
  /// stamp). 0 when there is no backlog or the source cannot date it.
  int64_t backlog_age_micros = 0;

  Json ToJson() const;
  static Result<SourceProgress> FromJson(const Json& json);
};

/// Per-epoch progress information (paper §7.4 monitoring).
///
/// `duration_nanos` is defined as the sum of the per-stage durations
/// (plan + source read + exec + state checkpoint + sink commit + other), so
/// stage breakdowns always account for the whole epoch; debug builds assert
/// this invariant. `trigger_wait_nanos` is idle time before the trigger
/// fired and is deliberately *not* part of the processing duration.
struct QueryProgress {
  int64_t epoch = 0;
  int64_t rows_read = 0;
  int64_t rows_written = 0;
  int64_t watermark_micros = INT64_MIN;
  int64_t state_entries = 0;
  /// Approximate live state bytes across all operators (memory accounting).
  int64_t state_bytes = 0;
  int64_t duration_nanos = 0;

  // Stage breakdown (sums to duration_nanos).
  int64_t plan_nanos = 0;         // offset planning + WAL plan write
  int64_t source_read_nanos = 0;  // time inside source scan operators
  int64_t exec_nanos = 0;         // operator DAG execution minus source read
  // The driver's leftover checkpoint window (StateManager::CommitAll); the
  // fold tasks write state files inside exec_nanos.
  int64_t checkpoint_nanos = 0;
  int64_t commit_nanos = 0;       // sink commit + WAL commit + retention
  int64_t other_nanos = 0;        // watermark/progress bookkeeping remainder

  /// Time inside Sink::CommitEpoch alone — the sink-bound signal. A subset
  /// of commit_nanos (which also covers the WAL commit and retention), so
  /// deliberately NOT part of the StageSumNanos invariant.
  int64_t sink_commit_nanos = 0;

  /// Sum of per-operator scheduler queue wait this epoch (see
  /// OperatorProgress::queue_wait_nanos). Tasks wait concurrently, so this
  /// can exceed duration_nanos; divide by the scheduler's parallelism for
  /// a wall-clock-comparable figure.
  int64_t queue_wait_nanos = 0;

  /// Idle time between the previous trigger finishing and this one firing
  /// (0 for the first trigger and for recovery replay).
  int64_t trigger_wait_nanos = 0;

  /// How late this epoch started relative to its scheduled trigger time
  /// (actual minus scheduled; 0 for unscheduled triggers and recovery
  /// replay). Sustained growth means the trigger interval is shorter than
  /// the epochs it schedules.
  int64_t trigger_drift_nanos = 0;

  /// Wall-clock minus watermark at the end of the epoch — how far event-time
  /// completeness trails real time. Only meaningful (and only serialized)
  /// when a watermark exists.
  int64_t watermark_lag_micros = 0;

  /// End-to-end latency (sink commit time minus source ingest time) of the
  /// rows written this epoch, row-weighted. Empty when the epoch wrote
  /// nothing.
  LatencySummary e2e_latency;

  std::vector<SourceProgress> sources;
  std::vector<OperatorProgress> operators;

  /// The invariant total of the per-stage durations.
  int64_t StageSumNanos() const {
    return plan_nanos + source_read_nanos + exec_nanos + checkpoint_nanos +
           commit_nanos + other_nanos;
  }

  /// One JSON object per epoch — the schema of the JSONL metrics event log.
  Json ToJson() const;

  /// Parses ToJson() output back. Round-trip is lossless: FromJson(ToJson())
  /// re-serializes byte-identically (tested), so the JSONL event log can be
  /// re-ingested without drift.
  static Result<QueryProgress> FromJson(const Json& json);
};

}  // namespace sstreaming

#endif  // SSTREAMING_OBS_PROGRESS_H_

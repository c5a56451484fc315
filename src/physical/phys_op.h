#ifndef SSTREAMING_PHYSICAL_PHYS_OP_H_
#define SSTREAMING_PHYSICAL_PHYS_OP_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "logical/output_mode.h"
#include "obs/progress.h"
#include "runtime/scheduler.h"
#include "state/sharded_state_store.h"
#include "types/record_batch.h"

namespace sstreaming {

class EpochTracer;
class LogHistogram;
class MetricsRegistry;

/// Creates and caches one ShardedStateStore per (stateful operator,
/// partition). Each shard's epoch ends in the scheduler task that finished
/// it (EndShardEpoch): as in the paper's commit protocol (§6.1 step 2), each
/// task writes its own state version and the driver only logs the epoch.
/// CommitAll, on the driver, backstops stores no task reached and records
/// the checkpoint metrics.
/// When `durable` is false (batch runs, tests without recovery), stores live
/// in a throwaway temp directory and epochs end by dropping the stores'
/// change tracking.
class StateManager {
 public:
  /// `dir`: checkpoint state root. `version`: epoch whose state to restore
  /// (0 = fresh). Empty dir = ephemeral (non-durable) state.
  StateManager(std::string dir, int64_t version,
               ShardedStateStore::Options options);
  ~StateManager();

  Result<ShardedStateStore*> GetStore(int op_id, int partition);

  /// Shard count every store is opened with (existing on-disk layouts keep
  /// their own count; see ShardedStateStore::Open).
  int num_shards() const { return options_.num_shards; }

  /// Opens every store that already exists on disk (stores are otherwise
  /// opened lazily). Recovery calls this so MinLoadedVersion() reflects how
  /// far behind the durable state really is before any epoch runs.
  Status PreopenExisting();

  /// Ends one shard's epoch in the task that finished it: snapshots it at
  /// `commit_epoch` when durable and one is given, drops its change tracking
  /// when ephemeral, and does nothing otherwise (a durable epoch between
  /// checkpoints). Safe to call concurrently for distinct shards.
  Status EndShardEpoch(StateStore* shard,
                       std::optional<int64_t> commit_epoch);

  /// The driver's end of a checkpoint epoch: commits the shards of every
  /// opened store not yet at `epoch` (stores no task reached, e.g. preopened
  /// at recovery), then records the checkpoint metrics. Does nothing when
  /// ephemeral.
  Status CommitAll(int64_t epoch);

  /// Optional instrumentation, set before the first epoch: EndShardEpoch
  /// records each shard snapshot's latency, and CommitAll the checkpoint
  /// bytes, commits and entry counts, under `sstreaming_state_*`.
  void set_metrics(MetricsRegistry* metrics);

  /// Removes durable state files older than needed to restore `keep`.
  Status PurgeBefore(int64_t keep);

  /// The oldest version any opened store actually restored; the engine must
  /// replay epochs after this (checkpoints may lag, §6.1 step 4).
  int64_t MinLoadedVersion() const;

  /// Sums over every shard of every opened store.
  int64_t TotalEntries() const;
  int64_t TotalBytesWritten() const;
  /// Entries changed since their store's last commit, over all stores.
  int64_t TotalTrackedChanges() const;

  /// Live state size of one operator's shard, or of the whole operator,
  /// summed over its partitions.
  struct OpStateSize {
    int64_t rows = 0;
    int64_t bytes = 0;  // StateStore::ApproxBytes
  };
  /// Per-operator, per-shard live state sizes (summed over partitions;
  /// indexed by shard), in one walk of the opened stores: the one record
  /// behind the progress totals, the `sstreaming_state_{rows,bytes}` and
  /// `sstreaming_state_shard_{rows,bytes}` gauges and the EXPLAIN ANALYZE
  /// state columns, which all sum it.
  std::map<int, std::vector<OpStateSize>> PerOpShardSizes() const;

  bool durable() const { return durable_; }
  int num_open_stores() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(stores_.size());
  }

 private:
  std::string StoreDir(int op_id, int partition) const;
  /// `fn(shard)` summed over every shard of every opened store.
  template <typename Fn>
  int64_t SumShards(const Fn& fn) const SS_REQUIRES(mu_);

  std::string dir_;
  int64_t version_;
  ShardedStateStore::Options options_;
  bool durable_;
  std::string ephemeral_dir_;
  MetricsRegistry* metrics_ = nullptr;
  LogHistogram* commit_nanos_ = nullptr;  // sstreaming_state_commit_nanos
  mutable std::mutex mu_;
  std::map<std::pair<int, int>, std::unique_ptr<ShardedStateStore>> stores_
      SS_GUARDED_BY(mu_);
  // TotalBytesWritten() as of the last CommitAll: the bytes counter's base.
  int64_t reported_bytes_ SS_GUARDED_BY(mu_) = 0;
};

/// Per-epoch execution context threaded through the physical operators.
struct ExecContext {
  int64_t epoch = 0;
  /// Event-time watermark in force for this epoch (computed from data seen
  /// in *earlier* epochs; INT64_MIN before any watermark exists).
  int64_t watermark_micros = INT64_MIN;
  /// Sink output mode (drives what stateful operators emit).
  OutputMode mode = OutputMode::kAppend;
  /// True when running as a one-shot batch job (paper §7.3): stateful
  /// operators see all data at once and emit final results.
  bool is_batch = false;

  TaskScheduler* scheduler = nullptr;
  StateManager* state = nullptr;
  /// The version each keyed-state shard checkpoints at the end of its fold
  /// task (StateManager::EndShardEpoch), or none when this epoch writes no
  /// state checkpoint.
  std::optional<int64_t> state_commit_epoch;
  const Clock* clock = nullptr;
  /// Optional epoch tracer; when set, PhysOp::Execute records one span per
  /// operator invocation.
  EpochTracer* tracer = nullptr;

  /// Offset ranges for this epoch, per source name: (start, end) per
  /// partition. Filled by the engine from the WAL plan.
  std::map<std::string, std::pair<std::vector<int64_t>, std::vector<int64_t>>>
      offsets;

  /// Per-watermark-operator candidate (max event time minus delay) observed
  /// this epoch. The engine combines candidates with the MIN-across-inputs
  /// policy: a query with several watermarked inputs only advances to a
  /// point safe for all of them.
  std::mutex observed_mu;
  std::map<int, int64_t> observed_watermarks SS_GUARDED_BY(observed_mu);

  void ObserveEventTime(int watermark_op_id, int64_t candidate) {
    std::lock_guard<std::mutex> lock(observed_mu);
    auto it = observed_watermarks.find(watermark_op_id);
    if (it == observed_watermarks.end() || candidate > it->second) {
      observed_watermarks[watermark_op_id] = candidate;
    }
  }

  /// Rows read from sources this epoch (metrics, §7.4), total and per
  /// source. `op_progress` holds each operator's counters for this epoch:
  /// PhysOp::Execute adds its rows, batches and bytes out (a pipeline run
  /// inside a shuffle's map tasks adds them through
  /// FusedPipelineExec::RecordInTaskRun), RunStage its scheduler
  /// accounting (cpu_nanos and the state sizes are the engine's to fill
  /// at the epoch's end). `op_wall_nanos` is each operator's
  /// inclusive Execute wall time (children included), from which the
  /// engine derives self time. All are guarded by `metrics_mu`.
  std::mutex metrics_mu;
  int64_t rows_read SS_GUARDED_BY(metrics_mu) = 0;
  std::map<std::string, int64_t> source_rows SS_GUARDED_BY(metrics_mu);
  std::map<int, OperatorProgress> op_progress SS_GUARDED_BY(metrics_mu);
  std::map<int, int64_t> op_wall_nanos SS_GUARDED_BY(metrics_mu);
  void CountSourceRows(const std::string& source, int64_t n) {
    std::lock_guard<std::mutex> lock(metrics_mu);
    rows_read += n;
    source_rows[source] += n;
  }

  /// Oldest ingest stamp among all source records read this epoch (0 = no
  /// dated records). Recorded by source scans; the sink-side latency
  /// measurement falls back to it for output batches whose own stamp was
  /// dropped by a materializing operator (aggregation, state flush).
  int64_t min_ingest_micros SS_GUARDED_BY(metrics_mu) = 0;
  void ObserveIngest(int64_t micros) {
    if (micros <= 0) return;
    std::lock_guard<std::mutex> lock(metrics_mu);
    if (min_ingest_micros == 0 || micros < min_ingest_micros) {
      min_ingest_micros = micros;
    }
  }
  int64_t MinIngestMicros() {
    std::lock_guard<std::mutex> lock(metrics_mu);
    return min_ingest_micros;
  }

  /// Runs a stage on `scheduler`, adding its stage time and queue-wait/run
  /// accounting into `op_progress[op_id]` (the submitting operator).
  /// Operators call this instead of scheduler->RunStage so every stage is
  /// attributed to the operator that submitted it.
  Status RunStage(int op_id, const std::string& stage_name,
                  std::vector<std::function<Status()>> tasks);
};

/// A physical operator: executes one epoch across all partitions, returning
/// one output batch per partition. Operators parallelize internally by
/// submitting per-partition tasks to the scheduler (the paper's fine-grained
/// task model, §6.2). Incremental operators return only this epoch's *new*
/// contribution to the result (their intra-DAG output mode, §5.2).
class PhysOp {
 public:
  PhysOp(int op_id, SchemaPtr schema, std::vector<std::shared_ptr<PhysOp>>
                                          children)
      : op_id_(op_id), schema_(std::move(schema)),
        children_(std::move(children)) {}
  virtual ~PhysOp() = default;

  int op_id() const { return op_id_; }
  const SchemaPtr& schema() const { return schema_; }
  const std::vector<std::shared_ptr<PhysOp>>& children() const {
    return children_;
  }

  virtual std::string name() const = 0;

  /// Instrumented entry point: runs ExecuteImpl, adding this operator's
  /// output rows, batches and bytes into `ctx->op_progress[op_id()]` and
  /// its wall time into `ctx->op_wall_nanos`, and recording a tracer span
  /// when `ctx->tracer` is set. Operators recurse through this (via their
  /// children), so every node of the DAG is accounted per epoch.
  Result<std::vector<RecordBatchPtr>> Execute(ExecContext* ctx);

  /// True for leaf scans (their Execute time is the epoch's "source read"
  /// stage rather than compute).
  virtual bool is_source_scan() const { return false; }

  /// Multi-line tree rendering for explain().
  std::string TreeString() const;

  /// Appends this operator's profile node(s) — NOT recursive over children;
  /// the engine walks the tree. The default contributes a single node whose
  /// child ids are the direct children's op_ids. FusedPipelineExec overrides
  /// to also expose its interior stages.
  virtual void CollectProfileNodes(std::vector<OpProfileNode>* out) const;

 protected:
  /// The operator's actual logic; called only through Execute().
  virtual Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx)
      = 0;

  /// Execute's instrumentation, shared with an entry point that returns its
  /// output in another shape (ShuffleExec::ExecuteExchange): the profiler
  /// label of name(), interned on first use (0 while the profiler is off),
  /// and the bookkeeping of a run that began at `t0` and output `rows` rows
  /// in `batches` batches of `bytes` bytes.
  uint32_t ProfileLabel() const;
  void FinishRun(ExecContext* ctx, int64_t t0, int64_t rows, int64_t batches,
                 int64_t bytes) const;

  int op_id_;
  SchemaPtr schema_;
  std::vector<std::shared_ptr<PhysOp>> children_;

 private:
  /// Interned profiler label for name(), filled lazily on the first
  /// Execute with the profiler armed (0 = not yet interned).
  mutable std::atomic<uint32_t> profile_label_{0};
};

using PhysOpPtr = std::shared_ptr<PhysOp>;

}  // namespace sstreaming

#endif  // SSTREAMING_PHYSICAL_PHYS_OP_H_

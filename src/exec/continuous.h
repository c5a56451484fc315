#ifndef SSTREAMING_EXEC_CONTINUOUS_H_
#define SSTREAMING_EXEC_CONTINUOUS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "connectors/sink.h"
#include "logical/dataframe.h"
#include "physical/phys_op.h"
#include "wal/write_ahead_log.h"

namespace sstreaming {

class FusedPipelineExec;
class SourceExec;

/// Continuous processing mode (paper §6.3, added in Spark 2.3): long-lived
/// operators — one worker per source partition — process records as soon as
/// they arrive and push them straight to the sink, giving millisecond
/// latency instead of the microbatch task-launch floor. As in Spark 2.3,
/// only map-like queries (selection/projection/watermark over one source)
/// are supported: no shuffles, no stateful operators. The query is planned
/// by the incrementalizer, as in microbatch mode, and each worker runs its
/// chunks through the same per-partition code as the microbatch tasks:
/// SourceExec::ReadPartition, then FusedPipelineExec::RunStages.
///
/// Epochs still exist but are decoupled from data movement: a master thread
/// periodically snapshots each worker's position and records start/end
/// offsets in the write-ahead log ("the master is not on the critical
/// path"). Output between the last epoch marker and a crash may be
/// re-delivered on restart (at-least-once across restarts for sinks without
/// external dedup — matching the real system's Kafka sink). Sink commit ids
/// never repeat across runs of a durable query: a run generation, kept in
/// `<checkpoint_dir>/run_generation`, forms their high bits, so a restart
/// into the same sink adds to the earlier runs' output.
class ContinuousQuery {
 public:
  struct Options {
    Options() {}
    std::string checkpoint_dir;  // empty = no durability
    /// Cadence at which the master logs epoch offsets.
    int64_t epoch_interval_micros = 100000;
    /// Worker sleep when no data is available.
    int64_t poll_sleep_micros = 100;
    /// Max records a worker takes per poll.
    int64_t max_chunk_records = 1024;
  };

  /// Plans the query and checks that it is map-like (a source scan under
  /// at most one fused Filter/Project/Watermark pipeline), recovers offsets
  /// from the checkpoint if present, and launches the workers and the epoch
  /// master.
  static Result<std::unique_ptr<ContinuousQuery>> Start(const DataFrame& df,
                                                        SinkPtr sink,
                                                        Options options);

  ~ContinuousQuery();

  ContinuousQuery(const ContinuousQuery&) = delete;
  ContinuousQuery& operator=(const ContinuousQuery&) = delete;

  /// Stops workers and the master, logging a final epoch.
  void Stop();

  int64_t records_processed() const { return records_processed_.load(); }
  bool IsActive() const { return active_.load(); }
  /// The first error a worker or the master stopped on (OK if none).
  Status error() const {
    std::lock_guard<std::mutex> lock(error_mu_);
    return error_;
  }

 private:
  ContinuousQuery() = default;

  void WorkerLoop(int partition);
  void MasterLoop();
  Status CommitEpochMarker();
  void RecordError(const Status& s);

  Options options_;
  SinkPtr sink_;
  PhysOpPtr root_;  // owns the operators below
  const SourceExec* scan_ = nullptr;
  const FusedPipelineExec* pipeline_ = nullptr;  // null: a bare scan
  std::unique_ptr<WriteAheadLog> wal_;

  std::vector<std::thread> workers_;
  std::thread master_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> active_{false};
  std::atomic<int64_t> records_processed_{0};
  std::atomic<int64_t> chunk_counter_{0};
  std::vector<std::unique_ptr<std::atomic<int64_t>>> positions_;
  std::vector<int64_t> epoch_start_positions_;
  int64_t next_epoch_ = 1;
  Status error_ SS_GUARDED_BY(error_mu_);
  mutable std::mutex error_mu_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_EXEC_CONTINUOUS_H_

// Spans measured from outside the engine.
//
// The benchmark wraps the engine's public seams — TaskScheduler::RunStage
// (stage and task spans plus the StageWait accounting), Source, Sink — and
// times each StreamingQuery::ProcessOneTrigger call itself (the epoch span).
// It also keeps the QueryProgress the engine emits for each epoch. No engine
// code is changed; the wrappers are passed in through QueryOptions and the
// DataFrame's source.
//
// Span tree of one epoch (parents in brackets):
//   epoch                      ProcessOneTrigger, driver thread
//     source.offsets  [epoch]  Source::LatestOffsets (planning)
//     stage           [epoch]  one RunStage call, submit to last completion
//       task          [stage]  one task on a pool thread
//         source.read [task]   Source::ReadPartition* / OldestIngestMicros
//     sink.commit     [epoch]  Sink::CommitEpoch
//
// The offset ranges each epoch's reads covered and its sink row count are
// recorded in every run; everything else only while tracing is on.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "connectors/sink.h"
#include "connectors/source.h"
#include "obs/progress.h"
#include "runtime/scheduler.h"

namespace perfbench {

int64_t NowNanos();

struct Interval {
  int64_t start = 0;
  int64_t end = 0;
  int64_t nanos() const { return end - start; }
};

struct TaskSpan {
  Interval wall;
  std::vector<Interval> source_reads;
};

/// Layer a stage belongs to, from the stage name the engine submits
/// (physical operator names).
enum class StageLayer {
  kSource,         // Source[<name>]
  kPipeline,       // FusedPipeline[...], Filter ..., Project, Watermark
  kJoin,           // StreamStaticJoin
  kShuffleMap,     // Shuffle p=N/map
  kShuffleReduce,  // Shuffle p=N/reduce
  kStatefulEval,   // <stateful op>[eval]
  kStatefulSplit,  // <stateful op>[split]
  kStatefulFold,   // <stateful op>
  kUnknown,
};
StageLayer ClassifyStage(const std::string& name);

struct StageSpan {
  std::string name;
  StageLayer layer = StageLayer::kUnknown;
  Interval wall;
  std::vector<TaskSpan> tasks;
  sstreaming::StageWait wait;
};

struct ReadRange {
  int partition = 0;
  int64_t start = 0;
  int64_t end = 0;
};

/// Everything recorded about one ProcessOneTrigger call.
struct EpochRecord {
  Interval wall;
  std::vector<ReadRange> reads;
  int64_t sink_rows = 0;
  bool has_progress = false;
  sstreaming::QueryProgress progress;
  // Traced runs only.
  std::vector<StageSpan> stages;
  std::vector<Interval> offset_calls;
  Interval sink;

  int64_t rows_read() const;
};

/// Routes the wrappers' observations to the epoch being driven. The driver
/// thread sets the current record around each ProcessOneTrigger call.
class Recorder {
 public:
  bool tracing() const { return tracing_; }
  void set_tracing(bool on) { tracing_ = on; }
  EpochRecord* current() const { return current_; }
  void set_current(EpochRecord* epoch) { current_ = epoch; }
  void AddRead(const ReadRange& range);

 private:
  bool tracing_ = false;
  EpochRecord* current_ = nullptr;
  std::mutex reads_mu_;
};

class TracedScheduler : public sstreaming::TaskScheduler {
 public:
  TracedScheduler(std::unique_ptr<sstreaming::TaskScheduler> inner,
                  Recorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  using sstreaming::TaskScheduler::RunStage;
  sstreaming::Status RunStage(
      const std::string& stage_name,
      std::vector<std::function<sstreaming::Status()>> tasks,
      sstreaming::StageWait* wait) override;
  int parallelism() const override { return inner_->parallelism(); }

 private:
  std::unique_ptr<sstreaming::TaskScheduler> inner_;
  Recorder* recorder_;
};

class TracedSource : public sstreaming::Source {
 public:
  TracedSource(sstreaming::SourcePtr inner, Recorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  const std::string& name() const override { return inner_->name(); }
  sstreaming::SchemaPtr schema() const override { return inner_->schema(); }
  int num_partitions() const override { return inner_->num_partitions(); }
  sstreaming::Result<std::vector<int64_t>> LatestOffsets() const override;
  sstreaming::Result<sstreaming::RecordBatchPtr> ReadPartition(
      int partition, int64_t start, int64_t end) const override;
  sstreaming::Result<sstreaming::RecordBatchPtr> ReadPartitionProjected(
      int partition, int64_t start, int64_t end,
      const std::vector<int>& columns) const override;
  int64_t OldestIngestMicros(int partition, int64_t start,
                             int64_t end) const override;

 private:
  sstreaming::SourcePtr inner_;
  Recorder* recorder_;
};

class TracedSink : public sstreaming::Sink {
 public:
  TracedSink(sstreaming::SinkPtr inner, Recorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  bool SupportsMode(sstreaming::OutputMode mode) const override {
    return inner_->SupportsMode(mode);
  }
  sstreaming::Status CommitEpoch(
      int64_t epoch, sstreaming::OutputMode mode, int num_key_columns,
      const std::vector<sstreaming::RecordBatchPtr>& batches) override;

  /// Self-test knobs: spin this long inside every commit, and add one to
  /// the last column (the count) of the first row epoch `epoch_id` commits.
  void set_commit_delay_nanos(int64_t nanos) { commit_delay_nanos_ = nanos; }
  void CorruptCommit(int64_t epoch_id) { corrupt_epoch_ = epoch_id; }

 private:
  sstreaming::SinkPtr inner_;
  Recorder* recorder_;
  int64_t commit_delay_nanos_ = 0;
  int64_t corrupt_epoch_ = 0;
};

/// Wall-clock split of one epoch span. Each part is a self time: a span's
/// duration minus the part of it its children cover.
enum Part {
  kSourcePart,       // covered time of Source stages + LatestOffsets calls
  kPipelinePart,     // covered time of stateless pipeline stages
  kJoinPart,         // covered time of StreamStaticJoin stages
  kShuffleMapPart,
  kShuffleReducePart,
  kStatefulEvalPart,
  kStatefulSplitPart,
  kStatefulFoldPart,
  kSinkPart,         // Sink::CommitEpoch span
  kCheckpointPart,   // progress.checkpoint_nanos
  kWalPlanPart,      // progress.plan_nanos - LatestOffsets calls
  kWalCommitPart,    // progress.commit_nanos - sink span
  kLaunchPart,       // stage wall not covered by any task
  kDriverPart,       // exec + other windows not covered by any stage
  kUnattributedPart, // epoch span - progress.StageSumNanos()
  kNumParts,
};
extern const char* const kPartMetric[kNumParts];

struct Attribution {
  std::array<int64_t, kNumParts> parts{};
  int64_t epoch_nanos = 0;
  /// Empty when the split is sound: progress present, parts summing to the
  /// span, wrapped spans nested in their progress stages, stages known.
  std::string audit_error;
  /// Empty when the wrapped spans agree in time with QueryProgress. A host
  /// stall (the hypervisor stops a vCPU for up to ~10 ms) inside the
  /// trigger's bookkeeping breaks this for a single epoch; the caller
  /// judges how many such epochs a run may have.
  std::string timing_error;
};

/// Splits a traced epoch into parts that sum exactly to its span, and
/// audits the split against the engine's own QueryProgress stage sums.
Attribution Attribute(const EpochRecord& epoch);

/// Writes every traced span as one JSON object per line:
/// {"id","parent","epoch","name","start_ns","end_ns"}.
bool WriteSpans(const std::string& path,
                const std::vector<EpochRecord>& epochs);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

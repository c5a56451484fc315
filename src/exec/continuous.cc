#include "exec/continuous.h"

#include <algorithm>
#include <chrono>

#include "analysis/analyzer.h"
#include "common/clock.h"
#include "common/logging.h"
#include "incremental/incrementalizer.h"
#include "optimizer/optimizer.h"
#include "physical/fused_pipeline.h"
#include "physical/operators.h"
#include "storage/fs.h"

namespace sstreaming {

namespace {

// Sink commit ids are (run generation << kChunkIdBits) + the run's chunk
// count. Each run of a durable query persists the next generation before
// it delivers anything, so no id repeats across runs: a sink keeps one
// delivery per id (MemorySink append mode), and a reused id would replace
// an earlier run's output.
constexpr int kChunkIdBits = 40;

Result<int64_t> NextRunGeneration(const std::string& checkpoint_dir) {
  const std::string path = checkpoint_dir + "/run_generation";
  std::optional<int64_t> last = 0;
  if (FileExists(path)) {
    SS_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    last = ParseDecimal(text, (INT64_MAX >> kChunkIdBits) - 1);
    if (!last.has_value()) return Status::IOError("corrupt " + path);
  }
  SS_RETURN_IF_ERROR(WriteFileAtomic(path, std::to_string(*last + 1)));
  return *last + 1;
}

}  // namespace

Result<std::unique_ptr<ContinuousQuery>> ContinuousQuery::Start(
    const DataFrame& df, SinkPtr sink, Options options) {
  if (!df.IsStreaming()) {
    return Status::InvalidArgument("continuous mode needs a streaming query");
  }
  PlanPtr optimized = Optimizer::Optimize(df.plan());
  SS_ASSIGN_OR_RETURN(PlanPtr analyzed, Analyzer::Analyze(optimized));
  SS_ASSIGN_OR_RETURN(PhysicalPlan plan, Incrementalize(analyzed, 1));

  // Map-like plans only: a source scan (a pure column projection is pushed
  // into its read), under at most one fused pipeline of filters,
  // projections and watermarks (a stream-static join probe is a pipeline
  // stage too, but not a map-like one).
  PhysOp* op = plan.root.get();
  const auto* pipeline = dynamic_cast<const FusedPipelineExec*>(op);
  const FusedPipelineExec::Stage* join = nullptr;
  if (pipeline != nullptr) {
    op = pipeline->children()[0].get();
    for (const FusedPipelineExec::Stage& stage : pipeline->stages()) {
      if (stage.kind == FusedPipelineExec::Stage::Kind::kStaticJoin) {
        join = &stage;
      }
    }
  }
  const auto* scan = dynamic_cast<const SourceExec*>(op);
  if (scan == nullptr || join != nullptr) {
    return Status::UnsupportedOperation(
        "continuous processing supports only map-like queries "
        "(selection/projection over one source) in this version, as in "
        "Spark 2.3 (§6.3); found " +
        (join != nullptr ? join->name : op->name()));
  }

  std::unique_ptr<ContinuousQuery> query(new ContinuousQuery());
  query->options_ = options;
  query->sink_ = std::move(sink);
  query->root_ = std::move(plan.root);
  query->scan_ = scan;
  query->pipeline_ = pipeline;

  const int parts = scan->source()->num_partitions();
  query->positions_.reserve(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    query->positions_.push_back(std::make_unique<std::atomic<int64_t>>(0));
  }
  query->epoch_start_positions_.assign(static_cast<size_t>(parts), 0);

  if (!options.checkpoint_dir.empty()) {
    SS_ASSIGN_OR_RETURN(WriteAheadLog wal,
                        WriteAheadLog::Open(options.checkpoint_dir + "/wal"));
    query->wal_ = std::make_unique<WriteAheadLog>(std::move(wal));
    // Recovery: resume from the last committed epoch's end offsets.
    SS_ASSIGN_OR_RETURN(std::optional<int64_t> committed,
                        query->wal_->LatestCommittedEpoch());
    if (committed.has_value()) {
      SS_ASSIGN_OR_RETURN(EpochPlan plan, query->wal_->ReadPlan(*committed));
      query->next_epoch_ = *committed + 1;
      for (const SourceOffsets& so : plan.sources) {
        for (size_t p = 0; p < so.end.size(); ++p) {
          query->positions_[p]->store(so.end[p]);
          query->epoch_start_positions_[p] = so.end[p];
        }
      }
    }
    SS_ASSIGN_OR_RETURN(const int64_t generation,
                        NextRunGeneration(options.checkpoint_dir));
    query->chunk_counter_.store(generation << kChunkIdBits);
  }

  query->active_.store(true);
  for (int p = 0; p < parts; ++p) {
    query->workers_.emplace_back([q = query.get(), p] { q->WorkerLoop(p); });
  }
  query->master_ = std::thread([q = query.get()] { q->MasterLoop(); });
  return query;
}

ContinuousQuery::~ContinuousQuery() { Stop(); }

void ContinuousQuery::RecordError(const Status& s) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_.ok()) error_ = s;
}

void ContinuousQuery::WorkerLoop(int partition) {
  std::atomic<int64_t>& pos = *positions_[static_cast<size_t>(partition)];
  const Source& source = *scan_->source();
  // The worker's own context for the shared operators: the read stamps
  // ingest times from its clock, and filters allocate on the heap. The
  // per-stage stats are not reported yet (continuous mode emits no
  // progress).
  ExecContext ctx;
  ctx.clock = SystemClock::Default();
  std::vector<FusedPipelineExec::StageStats> stage_stats(
      pipeline_ != nullptr ? pipeline_->stages().size() : 0);
  while (!stop_.load(std::memory_order_relaxed)) {
    auto latest = source.LatestOffsets();
    if (!latest.ok()) {
      RecordError(latest.status());
      return;
    }
    int64_t end = (*latest)[static_cast<size_t>(partition)];
    int64_t start = pos.load(std::memory_order_relaxed);
    if (end <= start) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.poll_sleep_micros));
      continue;
    }
    end = std::min(end, start + options_.max_chunk_records);
    auto process = [&]() -> Status {
      SS_ASSIGN_OR_RETURN(RecordBatchPtr batch,
                          scan_->ReadPartition(&ctx, partition, start, end));
      if (pipeline_ != nullptr) {
        SS_ASSIGN_OR_RETURN(batch, pipeline_->RunStages(&ctx, std::move(batch),
                                                        stage_stats.data()));
      }
      if (batch->num_rows() > 0) {
        // As in microbatch mode, the sink sees compact batches, never
        // selection views.
        SS_RETURN_IF_ERROR(sink_->CommitEpoch(
            chunk_counter_.fetch_add(1), OutputMode::kAppend, 0,
            {RecordBatch::Materialize(batch)}));
      }
      return Status::OK();
    };
    Status s = process();
    if (!s.ok()) {
      RecordError(s);
      return;
    }
    records_processed_.fetch_add(end - start, std::memory_order_relaxed);
    pos.store(end, std::memory_order_release);
  }
}

Status ContinuousQuery::CommitEpochMarker() {
  if (wal_ == nullptr) return Status::OK();
  EpochPlan plan;
  plan.epoch = next_epoch_;
  SourceOffsets so;
  so.source_name = scan_->source()->name();
  so.start = epoch_start_positions_;
  for (const auto& pos : positions_) so.end.push_back(pos->load());
  bool progressed = so.end != so.start;
  if (!progressed) return Status::OK();
  plan.sources.push_back(so);
  SS_RETURN_IF_ERROR(wal_->WritePlan(plan));
  SS_RETURN_IF_ERROR(wal_->WriteCommit(plan.epoch));
  epoch_start_positions_ = so.end;
  ++next_epoch_;
  return Status::OK();
}

void ContinuousQuery::MasterLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    int64_t wait = options_.epoch_interval_micros;
    while (wait > 0 && !stop_.load(std::memory_order_relaxed)) {
      int64_t chunk = std::min<int64_t>(wait, 5000);
      std::this_thread::sleep_for(std::chrono::microseconds(chunk));
      wait -= chunk;
    }
    Status s = CommitEpochMarker();
    if (!s.ok()) {
      RecordError(s);
      return;
    }
  }
}

void ContinuousQuery::Stop() {
  if (!active_.load()) return;
  stop_.store(true);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (master_.joinable()) master_.join();
  CommitEpochMarker().ok();  // final marker
  active_.store(false);
}

}  // namespace sstreaming

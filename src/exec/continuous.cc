#include "exec/continuous.h"

#include <algorithm>
#include <chrono>

#include "analysis/analyzer.h"
#include "common/logging.h"
#include "optimizer/optimizer.h"
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

  std::unique_ptr<ContinuousQuery> query(new ContinuousQuery());
  query->options_ = options;
  query->sink_ = std::move(sink);
  query->clock_ =
      options.clock != nullptr ? options.clock : SystemClock::Default();

  // Walk down the single chain collecting steps; reject anything stateful.
  std::vector<Step> reversed;
  PlanPtr node = analyzed;
  while (true) {
    switch (node->kind()) {
      case LogicalPlan::Kind::kStreamScan: {
        const auto& scan = static_cast<const StreamScanNode&>(*node);
        query->source_ = scan.source();
        break;
      }
      case LogicalPlan::Kind::kFilter: {
        const auto& f = static_cast<const FilterNode&>(*node);
        Step step;
        step.kind = Step::Kind::kFilter;
        step.predicate = f.predicate();
        reversed.push_back(std::move(step));
        node = node->children()[0];
        continue;
      }
      case LogicalPlan::Kind::kProject: {
        const auto& p = static_cast<const ProjectNode&>(*node);
        Step step;
        step.kind = Step::Kind::kProject;
        step.exprs = p.exprs();
        step.schema = p.schema();
        reversed.push_back(std::move(step));
        node = node->children()[0];
        continue;
      }
      case LogicalPlan::Kind::kWithWatermark:
        // Watermarks are irrelevant without stateful operators; pass.
        node = node->children()[0];
        continue;
      default:
        return Status::UnsupportedOperation(
            "continuous processing supports only map-like queries "
            "(selection/projection over one source) in this version, as in "
            "Spark 2.3 (§6.3); found " + node->ToString());
    }
    break;
  }
  std::reverse(reversed.begin(), reversed.end());
  query->steps_ = std::move(reversed);

  const int parts = query->source_->num_partitions();
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

Result<RecordBatchPtr> ContinuousQuery::ApplyPipeline(
    RecordBatchPtr batch) const {
  for (const Step& step : steps_) {
    if (step.kind == Step::Kind::kFilter) {
      SS_ASSIGN_OR_RETURN(ColumnPtr mask_col,
                          step.predicate->EvalBatch(*batch));
      std::vector<uint8_t> mask(static_cast<size_t>(batch->num_rows()));
      for (int64_t i = 0; i < batch->num_rows(); ++i) {
        mask[static_cast<size_t>(i)] =
            !mask_col->IsNull(i) && mask_col->BoolAt(i) ? 1 : 0;
      }
      batch = batch->Filter(mask);
    } else {
      std::vector<ColumnPtr> columns;
      columns.reserve(step.exprs.size());
      for (const NamedExpr& e : step.exprs) {
        SS_ASSIGN_OR_RETURN(ColumnPtr col, e.expr->EvalBatch(*batch));
        columns.push_back(std::move(col));
      }
      batch = RecordBatch::Make(step.schema, std::move(columns));
    }
  }
  return batch;
}

void ContinuousQuery::WorkerLoop(int partition) {
  std::atomic<int64_t>& pos = *positions_[static_cast<size_t>(partition)];
  while (!stop_.load(std::memory_order_relaxed)) {
    auto latest = source_->LatestOffsets();
    if (!latest.ok()) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (error_.ok()) error_ = latest.status();
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
                          source_->ReadPartition(partition, start, end));
      SS_ASSIGN_OR_RETURN(RecordBatchPtr result, ApplyPipeline(batch));
      if (result->num_rows() > 0) {
        SS_RETURN_IF_ERROR(
            sink_->CommitEpoch(chunk_counter_.fetch_add(1),
                               OutputMode::kAppend, 0, {result}));
      }
      return Status::OK();
    };
    Status s = process();
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (error_.ok()) error_ = s;
      return;
    }
    records_processed_.fetch_add(end - start, std::memory_order_relaxed);
    pos.store(end, std::memory_order_release);
  }
}

Status ContinuousQuery::CommitEpochMarker() {
  if (wal_ == nullptr) {
    ++epochs_committed_;
    return Status::OK();
  }
  EpochPlan plan;
  plan.epoch = next_epoch_;
  SourceOffsets so;
  so.source_name = source_->name();
  so.start = epoch_start_positions_;
  for (const auto& pos : positions_) so.end.push_back(pos->load());
  bool progressed = so.end != so.start;
  if (!progressed) return Status::OK();
  plan.sources.push_back(so);
  SS_RETURN_IF_ERROR(wal_->WritePlan(plan));
  SS_RETURN_IF_ERROR(wal_->WriteCommit(plan.epoch));
  epoch_start_positions_ = so.end;
  ++next_epoch_;
  ++epochs_committed_;
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
      std::lock_guard<std::mutex> lock(error_mu_);
      if (error_.ok()) error_ = s;
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

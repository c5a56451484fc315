#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common/clock.h"
#include "common/json.h"

namespace perfbench {

using sstreaming::RecordBatchPtr;
using sstreaming::Result;
using sstreaming::Status;

namespace {

// The task span the calling pool thread is running, so Source reads made
// inside a task nest under it (and through it under its stage).
thread_local TaskSpan* tl_task = nullptr;

// Derived parts may dip below zero only by clock-read granularity.
constexpr int64_t kSlackNanos = 20000;

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

// Length of the union of the task intervals, clipped to the stage span.
int64_t CoveredNanos(const StageSpan& stage) {
  std::vector<Interval> spans;
  spans.reserve(stage.tasks.size());
  for (const TaskSpan& t : stage.tasks) {
    Interval c{std::max(t.wall.start, stage.wall.start),
               std::min(t.wall.end, stage.wall.end)};
    if (c.end > c.start) spans.push_back(c);
  }
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t reach = INT64_MIN;
  for (const Interval& s : spans) {
    if (s.end <= reach) continue;
    covered += s.end - std::max(s.start, reach);
    reach = s.end;
  }
  return covered;
}

Part StagePart(StageLayer layer) {
  switch (layer) {
    case StageLayer::kSource: return kSourcePart;
    case StageLayer::kPipeline: return kPipelinePart;
    case StageLayer::kJoin: return kJoinPart;
    case StageLayer::kShuffleMap: return kShuffleMapPart;
    case StageLayer::kShuffleReduce: return kShuffleReducePart;
    case StageLayer::kStatefulEval: return kStatefulEvalPart;
    case StageLayer::kStatefulSplit: return kStatefulSplitPart;
    case StageLayer::kStatefulFold: return kStatefulFoldPart;
    case StageLayer::kUnknown: break;
  }
  return kNumParts;
}

}  // namespace

const char* const kPartMetric[kNumParts] = {
    "source.self_ms",    "pipeline.self_ms",  "join.self_ms",
    "shuffle.map_ms",    "shuffle.reduce_ms", "stateful.eval_ms",
    "stateful.split_ms", "stateful.fold_ms",  "sink.commit_ms",
    "checkpoint.ms",     "wal.plan_ms",       "wal.commit_ms",
    "scheduler.launch_ms", "driver.self_ms",  "unattributed_ms",
};

int64_t NowNanos() { return sstreaming::MonotonicNanos(); }

StageLayer ClassifyStage(const std::string& name) {
  if (StartsWith(name, "Source[")) return StageLayer::kSource;
  if (StartsWith(name, "FusedPipeline[") || StartsWith(name, "Filter ") ||
      name == "Project" || name == "Watermark") {
    return StageLayer::kPipeline;
  }
  if (name == "StreamStaticJoin") return StageLayer::kJoin;
  if (StartsWith(name, "Shuffle ")) {
    if (EndsWith(name, "/map")) return StageLayer::kShuffleMap;
    if (EndsWith(name, "/reduce")) return StageLayer::kShuffleReduce;
    return StageLayer::kUnknown;
  }
  for (const char* op : {"StatefulAggregate", "Dedup", "StreamStreamJoin",
                         "FlatMapGroupsWithState"}) {
    if (!StartsWith(name, op)) continue;
    const std::string rest = name.substr(std::string(op).size());
    if (rest.empty()) return StageLayer::kStatefulFold;
    if (rest == "[eval]") return StageLayer::kStatefulEval;
    if (rest == "[split]") return StageLayer::kStatefulSplit;
  }
  return StageLayer::kUnknown;
}

int64_t EpochRecord::rows_read() const {
  int64_t rows = 0;
  for (const ReadRange& r : reads) rows += r.end - r.start;
  return rows;
}

void Recorder::AddRead(const ReadRange& range) {
  std::lock_guard<std::mutex> lock(reads_mu_);
  if (current_ != nullptr) current_->reads.push_back(range);
}

Status TracedScheduler::RunStage(
    const std::string& stage_name,
    std::vector<std::function<Status()>> tasks,
    sstreaming::StageWait* wait) {
  EpochRecord* epoch = recorder_->current();
  if (!recorder_->tracing() || epoch == nullptr) {
    return inner_->RunStage(stage_name, std::move(tasks), wait);
  }
  StageSpan stage;
  stage.name = stage_name;
  stage.layer = ClassifyStage(stage_name);
  stage.tasks.resize(tasks.size());
  std::vector<std::function<Status()>> wrapped;
  wrapped.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    wrapped.push_back([task = std::move(tasks[i]),
                       span = &stage.tasks[i]]() -> Status {
      span->wall.start = NowNanos();
      tl_task = span;
      Status s = task();
      tl_task = nullptr;
      span->wall.end = NowNanos();
      return s;
    });
  }
  stage.wall.start = NowNanos();
  Status s = inner_->RunStage(stage_name, std::move(wrapped), &stage.wait);
  stage.wall.end = NowNanos();
  if (wait != nullptr) *wait = stage.wait;
  epoch->stages.push_back(std::move(stage));
  return s;
}

Result<std::vector<int64_t>> TracedSource::LatestOffsets() const {
  EpochRecord* epoch = recorder_->current();
  if (!recorder_->tracing() || epoch == nullptr) return inner_->LatestOffsets();
  Interval span;
  span.start = NowNanos();
  auto offsets = inner_->LatestOffsets();
  span.end = NowNanos();
  epoch->offset_calls.push_back(span);
  return offsets;
}

Result<RecordBatchPtr> TracedSource::ReadPartition(int partition,
                                                   int64_t start,
                                                   int64_t end) const {
  TaskSpan* task = recorder_->tracing() ? tl_task : nullptr;
  Interval span;
  span.start = NowNanos();
  auto batch = inner_->ReadPartition(partition, start, end);
  span.end = NowNanos();
  if (task != nullptr) task->source_reads.push_back(span);
  recorder_->AddRead({partition, start, end});
  return batch;
}

Result<RecordBatchPtr> TracedSource::ReadPartitionProjected(
    int partition, int64_t start, int64_t end,
    const std::vector<int>& columns) const {
  TaskSpan* task = recorder_->tracing() ? tl_task : nullptr;
  Interval span;
  span.start = NowNanos();
  auto batch = inner_->ReadPartitionProjected(partition, start, end, columns);
  span.end = NowNanos();
  if (task != nullptr) task->source_reads.push_back(span);
  recorder_->AddRead({partition, start, end});
  return batch;
}

int64_t TracedSource::OldestIngestMicros(int partition, int64_t start,
                                         int64_t end) const {
  TaskSpan* task = recorder_->tracing() ? tl_task : nullptr;
  Interval span;
  span.start = NowNanos();
  int64_t micros = inner_->OldestIngestMicros(partition, start, end);
  span.end = NowNanos();
  if (task != nullptr) task->source_reads.push_back(span);
  return micros;
}

Status TracedSink::CommitEpoch(int64_t epoch_id, sstreaming::OutputMode mode,
                               int num_key_columns,
                               const std::vector<RecordBatchPtr>& batches) {
  Interval span;
  span.start = NowNanos();
  if (commit_delay_nanos_ > 0) {
    while (NowNanos() - span.start < commit_delay_nanos_) {
    }
  }
  Status s;
  int64_t rows = 0;
  for (const RecordBatchPtr& b : batches) rows += b->num_rows();
  if (epoch_id == corrupt_epoch_ && rows > 0) {
    std::vector<RecordBatchPtr> corrupted = batches;
    for (RecordBatchPtr& b : corrupted) {
      if (b->num_rows() == 0) continue;
      std::vector<sstreaming::Row> out = b->ToRows();
      sstreaming::Value& last = out[0].back();
      last = sstreaming::Value::Int64(last.int64_value() + 1);
      auto fixed = sstreaming::RecordBatch::FromRows(b->schema(), out);
      if (!fixed.ok()) return fixed.status();
      b = *fixed;
      break;
    }
    s = inner_->CommitEpoch(epoch_id, mode, num_key_columns, corrupted);
  } else {
    s = inner_->CommitEpoch(epoch_id, mode, num_key_columns, batches);
  }
  span.end = NowNanos();
  if (EpochRecord* epoch = recorder_->current()) {
    epoch->sink_rows += rows;
    if (recorder_->tracing()) epoch->sink = span;
  }
  return s;
}

Attribution Attribute(const EpochRecord& e) {
  Attribution a;
  a.epoch_nanos = e.wall.nanos();
  auto fail = [&a](const std::string& why) {
    if (a.audit_error.empty()) a.audit_error = why;
  };
  if (!e.has_progress) {
    fail("no QueryProgress for the epoch");
    return a;
  }
  const sstreaming::QueryProgress& p = e.progress;
  if (p.duration_nanos != p.StageSumNanos()) {
    fail("QueryProgress stages do not sum to duration_nanos");
  }

  int64_t stage_wall = 0;
  int64_t source_stage_wall = 0;
  for (const StageSpan& s : e.stages) {
    const Part part = StagePart(s.layer);
    if (part == kNumParts) {
      fail("stage '" + s.name + "' belongs to no known layer");
      continue;
    }
    const int64_t covered = CoveredNanos(s);
    a.parts[part] += covered;
    a.parts[kLaunchPart] += s.wall.nanos() - covered;
    stage_wall += s.wall.nanos();
    if (s.layer == StageLayer::kSource) source_stage_wall += s.wall.nanos();
  }
  int64_t offsets_nanos = 0;
  for (const Interval& c : e.offset_calls) offsets_nanos += c.nanos();
  a.parts[kSourcePart] += offsets_nanos;
  a.parts[kSinkPart] = e.sink.nanos();
  a.parts[kCheckpointPart] = p.checkpoint_nanos;
  a.parts[kWalPlanPart] = p.plan_nanos - offsets_nanos;
  a.parts[kWalCommitPart] = p.commit_nanos - e.sink.nanos();
  a.parts[kDriverPart] =
      p.source_read_nanos + p.exec_nanos + p.other_nanos - stage_wall;
  a.parts[kUnattributedPart] = a.epoch_nanos - p.StageSumNanos();

  int64_t sum = 0;
  for (int64_t v : a.parts) sum += v;
  if (sum != a.epoch_nanos) fail("parts do not sum to the epoch span");
  // The wrapped calls must nest inside the engine's own stage windows.
  for (Part part : {kWalPlanPart, kWalCommitPart, kDriverPart,
                    kUnattributedPart}) {
    if (a.parts[part] < -kSlackNanos) {
      fail(std::string(kPartMetric[part]) + " is negative: a wrapped span " +
           "lies outside the QueryProgress stage that should contain it");
    }
  }
  // Source wrapper vs QueryProgress::source_read_nanos (the scan operators'
  // inclusive wall time): equal up to the operator's own bookkeeping.
  const int64_t source_gap = p.source_read_nanos - source_stage_wall;
  if (source_gap < -kSlackNanos ||
      source_gap > std::max<int64_t>(200000, p.source_read_nanos / 5)) {
    a.timing_error = "source stage span " + std::to_string(source_stage_wall) +
                     " ns disagrees with source_read_nanos " +
                     std::to_string(p.source_read_nanos);
  }
  // Epoch span vs StageSumNanos(): the difference is the trigger's
  // bookkeeping after the progress record is cut (metrics, history append,
  // progress callbacks).
  if (a.parts[kUnattributedPart] >
      std::max<int64_t>(500000, a.epoch_nanos / 5)) {
    a.timing_error = "epoch span exceeds StageSumNanos() by " +
                     std::to_string(a.parts[kUnattributedPart]) + " ns";
  }
  return a;
}

bool WriteSpans(const std::string& path,
                const std::vector<EpochRecord>& epochs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t next_id = 1;
  auto emit = [&](int64_t parent, int64_t epoch, const std::string& name,
                  const Interval& span) {
    const int64_t id = next_id++;
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"epoch\":%lld,"
                 "\"name\":%s,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<long long>(id), static_cast<long long>(parent),
                 static_cast<long long>(epoch),
                 sstreaming::Json::Str(name).Dump().c_str(),
                 static_cast<long long>(span.start),
                 static_cast<long long>(span.end));
    return id;
  };
  for (const EpochRecord& e : epochs) {
    const int64_t ep = e.progress.epoch;
    const int64_t root = emit(0, ep, "epoch", e.wall);
    for (const Interval& c : e.offset_calls) {
      emit(root, ep, "source.offsets", c);
    }
    for (const StageSpan& s : e.stages) {
      const int64_t stage = emit(root, ep, "stage:" + s.name, s.wall);
      for (const TaskSpan& t : s.tasks) {
        const int64_t task = emit(stage, ep, "task", t.wall);
        for (const Interval& r : t.source_reads) {
          emit(task, ep, "source.read", r);
        }
      }
    }
    if (e.sink.end != 0) emit(root, ep, "sink.commit", e.sink);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

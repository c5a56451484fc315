#include "obs/progress.h"

#include <algorithm>

namespace sstreaming {

namespace {

// FromJson helpers: absent keys read as 0 / empty so the parsers accept
// event-log lines written by older builds (fields only ever get added).
int64_t GetInt(const Json& obj, const char* key) {
  const Json& v = obj.Get(key);
  return v.is_number() ? v.int_value() : 0;
}

double GetDouble(const Json& obj, const char* key) {
  const Json& v = obj.Get(key);
  return v.is_number() ? v.double_value() : 0;
}

std::string GetStr(const Json& obj, const char* key) {
  const Json& v = obj.Get(key);
  return v.is_string() ? v.string_value() : std::string();
}

}  // namespace

LatencySummary LatencySummary::FromHistogram(const LogHistogram& h) {
  LatencySummary s;
  s.count = h.count();
  s.sum_micros = h.sum();
  s.max_micros = h.max();
  s.p50_micros = h.ValueAtQuantile(0.50);
  s.p95_micros = h.ValueAtQuantile(0.95);
  s.p99_micros = h.ValueAtQuantile(0.99);
  for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
    int64_t n = h.bucket_count(i);
    if (n != 0) s.buckets.emplace_back(i, n);
  }
  return s;
}

void LatencySummary::MergeInto(LogHistogram* h) const {
  for (const auto& [index, n] : buckets) h->AddToBucket(index, n);
  h->RestoreSumMax(sum_micros, max_micros);
}

Json LatencySummary::ToJson() const {
  Json obj = Json::Object();
  obj.Set("count", Json::Int(count));
  obj.Set("sumMicros", Json::Int(sum_micros));
  obj.Set("maxMicros", Json::Int(max_micros));
  obj.Set("p50Micros", Json::Int(p50_micros));
  obj.Set("p95Micros", Json::Int(p95_micros));
  obj.Set("p99Micros", Json::Int(p99_micros));
  Json bs = Json::Array();
  for (const auto& [index, n] : buckets) {
    Json pair = Json::Array();
    pair.Append(Json::Int(index));
    pair.Append(Json::Int(n));
    bs.Append(std::move(pair));
  }
  obj.Set("buckets", std::move(bs));
  return obj;
}

Result<LatencySummary> LatencySummary::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("latency summary must be an object");
  }
  LatencySummary s;
  s.count = GetInt(json, "count");
  s.sum_micros = GetInt(json, "sumMicros");
  s.max_micros = GetInt(json, "maxMicros");
  s.p50_micros = GetInt(json, "p50Micros");
  s.p95_micros = GetInt(json, "p95Micros");
  s.p99_micros = GetInt(json, "p99Micros");
  const Json& bs = json.Get("buckets");
  if (bs.is_array()) {
    for (const Json& pair : bs.array_items()) {
      if (!pair.is_array() || pair.array_items().size() != 2) {
        return Status::InvalidArgument(
            "latency summary bucket must be an [index, count] pair");
      }
      s.buckets.emplace_back(
          static_cast<int>(pair.array_items()[0].int_value()),
          pair.array_items()[1].int_value());
    }
  }
  return s;
}

void OperatorProgress::MergeFrom(const OperatorProgress& later) {
  rows_in += later.rows_in;
  rows_out += later.rows_out;
  batches += later.batches;
  cpu_nanos += later.cpu_nanos;
  output_bytes += later.output_bytes;
  tasks += later.tasks;
  stage_nanos += later.stage_nanos;
  queue_wait_nanos += later.queue_wait_nanos;
  task_run_nanos += later.task_run_nanos;
  max_task_run_nanos = std::max(max_task_run_nanos, later.max_task_run_nanos);
  state_rows = later.state_rows;
  state_bytes = later.state_bytes;
  shard_state = later.shard_state;
}

Json OperatorProgress::ToJson() const {
  Json obj = Json::Object();
  obj.Set("opId", Json::Int(op_id));
  obj.Set("name", Json::Str(name));
  obj.Set("rowsIn", Json::Int(rows_in));
  obj.Set("rowsOut", Json::Int(rows_out));
  obj.Set("batches", Json::Int(batches));
  obj.Set("cpuNanos", Json::Int(cpu_nanos));
  obj.Set("outputBytes", Json::Int(output_bytes));
  obj.Set("stateRows", Json::Int(state_rows));
  obj.Set("stateBytes", Json::Int(state_bytes));
  if (tasks != 0) {
    obj.Set("tasks", Json::Int(tasks));
    obj.Set("stageNanos", Json::Int(stage_nanos));
    obj.Set("queueWaitNanos", Json::Int(queue_wait_nanos));
    obj.Set("taskRunNanos", Json::Int(task_run_nanos));
    obj.Set("maxTaskRunNanos", Json::Int(max_task_run_nanos));
  }
  if (!shard_state.empty()) {
    Json shards = Json::Array();
    for (const auto& [rows, bytes] : shard_state) {
      Json pair = Json::Array();
      pair.Append(Json::Int(rows));
      pair.Append(Json::Int(bytes));
      shards.Append(std::move(pair));
    }
    obj.Set("shardState", std::move(shards));
  }
  return obj;
}

Result<OperatorProgress> OperatorProgress::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("operator progress must be an object");
  }
  OperatorProgress op;
  op.op_id = static_cast<int>(GetInt(json, "opId"));
  op.name = GetStr(json, "name");
  op.rows_in = GetInt(json, "rowsIn");
  op.rows_out = GetInt(json, "rowsOut");
  op.batches = GetInt(json, "batches");
  op.cpu_nanos = GetInt(json, "cpuNanos");
  op.output_bytes = GetInt(json, "outputBytes");
  op.state_rows = GetInt(json, "stateRows");
  op.state_bytes = GetInt(json, "stateBytes");
  op.tasks = GetInt(json, "tasks");
  op.stage_nanos = GetInt(json, "stageNanos");
  op.queue_wait_nanos = GetInt(json, "queueWaitNanos");
  op.task_run_nanos = GetInt(json, "taskRunNanos");
  op.max_task_run_nanos = GetInt(json, "maxTaskRunNanos");
  const Json& shards = json.Get("shardState");
  if (shards.is_array()) {
    for (const Json& pair : shards.array_items()) {
      if (!pair.is_array() || pair.array_items().size() != 2) {
        return Status::InvalidArgument(
            "operator shardState must hold [rows, bytes] pairs");
      }
      op.shard_state.emplace_back(pair.array_items()[0].int_value(),
                                  pair.array_items()[1].int_value());
    }
  }
  return op;
}

Json SourceProgress::ToJson() const {
  Json obj = Json::Object();
  obj.Set("name", Json::Str(name));
  obj.Set("rows", Json::Int(rows));
  obj.Set("rowsPerSec", Json::Double(rows_per_sec));
  obj.Set("backlogRows", Json::Int(backlog_rows));
  obj.Set("backlogAgeMicros", Json::Int(backlog_age_micros));
  return obj;
}

Result<SourceProgress> SourceProgress::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("source progress must be an object");
  }
  SourceProgress sp;
  sp.name = GetStr(json, "name");
  sp.rows = GetInt(json, "rows");
  sp.rows_per_sec = GetDouble(json, "rowsPerSec");
  sp.backlog_rows = GetInt(json, "backlogRows");
  sp.backlog_age_micros = GetInt(json, "backlogAgeMicros");
  return sp;
}

Json QueryProgress::ToJson() const {
  Json obj = Json::Object();
  obj.Set("epoch", Json::Int(epoch));
  obj.Set("rowsRead", Json::Int(rows_read));
  obj.Set("rowsWritten", Json::Int(rows_written));
  if (watermark_micros != INT64_MIN) {
    obj.Set("watermarkMicros", Json::Int(watermark_micros));
    obj.Set("watermarkLagMicros", Json::Int(watermark_lag_micros));
  }
  obj.Set("stateEntries", Json::Int(state_entries));
  obj.Set("stateBytes", Json::Int(state_bytes));
  obj.Set("durationNanos", Json::Int(duration_nanos));
  obj.Set("sinkCommitNanos", Json::Int(sink_commit_nanos));
  obj.Set("queueWaitNanos", Json::Int(queue_wait_nanos));
  obj.Set("triggerWaitNanos", Json::Int(trigger_wait_nanos));
  obj.Set("triggerDriftNanos", Json::Int(trigger_drift_nanos));
  obj.Set("e2eLatency", e2e_latency.ToJson());
  Json durations = Json::Object();
  durations.Set("planNanos", Json::Int(plan_nanos));
  durations.Set("sourceReadNanos", Json::Int(source_read_nanos));
  durations.Set("execNanos", Json::Int(exec_nanos));
  durations.Set("checkpointNanos", Json::Int(checkpoint_nanos));
  durations.Set("commitNanos", Json::Int(commit_nanos));
  durations.Set("otherNanos", Json::Int(other_nanos));
  obj.Set("durations", std::move(durations));
  Json srcs = Json::Array();
  for (const SourceProgress& s : sources) srcs.Append(s.ToJson());
  obj.Set("sources", std::move(srcs));
  Json ops = Json::Array();
  for (const OperatorProgress& o : operators) ops.Append(o.ToJson());
  obj.Set("operators", std::move(ops));
  return obj;
}

Result<QueryProgress> QueryProgress::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("query progress must be an object");
  }
  QueryProgress p;
  p.epoch = GetInt(json, "epoch");
  p.rows_read = GetInt(json, "rowsRead");
  p.rows_written = GetInt(json, "rowsWritten");
  p.watermark_micros =
      json.Has("watermarkMicros") ? GetInt(json, "watermarkMicros")
                                  : INT64_MIN;
  p.state_entries = GetInt(json, "stateEntries");
  p.state_bytes = GetInt(json, "stateBytes");
  p.duration_nanos = GetInt(json, "durationNanos");
  p.sink_commit_nanos = GetInt(json, "sinkCommitNanos");
  p.queue_wait_nanos = GetInt(json, "queueWaitNanos");
  p.trigger_wait_nanos = GetInt(json, "triggerWaitNanos");
  p.trigger_drift_nanos = GetInt(json, "triggerDriftNanos");
  p.watermark_lag_micros = GetInt(json, "watermarkLagMicros");
  if (json.Has("e2eLatency")) {
    SS_ASSIGN_OR_RETURN(p.e2e_latency,
                        LatencySummary::FromJson(json.Get("e2eLatency")));
  }
  const Json& durations = json.Get("durations");
  p.plan_nanos = GetInt(durations, "planNanos");
  p.source_read_nanos = GetInt(durations, "sourceReadNanos");
  p.exec_nanos = GetInt(durations, "execNanos");
  p.checkpoint_nanos = GetInt(durations, "checkpointNanos");
  p.commit_nanos = GetInt(durations, "commitNanos");
  p.other_nanos = GetInt(durations, "otherNanos");
  const Json& srcs = json.Get("sources");
  if (srcs.is_array()) {
    for (const Json& s : srcs.array_items()) {
      SS_ASSIGN_OR_RETURN(SourceProgress sp, SourceProgress::FromJson(s));
      p.sources.push_back(std::move(sp));
    }
  }
  const Json& ops = json.Get("operators");
  if (ops.is_array()) {
    for (const Json& o : ops.array_items()) {
      SS_ASSIGN_OR_RETURN(OperatorProgress op, OperatorProgress::FromJson(o));
      p.operators.push_back(std::move(op));
    }
  }
  return p;
}

}  // namespace sstreaming

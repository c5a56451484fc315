#include "obs/doctor.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "obs/query_history.h"

namespace sstreaming {

namespace {

// Rule thresholds. Each rule fires only past its threshold AND past an
// absolute floor, so microsecond-scale test queries don't produce noise
// verdicts; docs/OBSERVABILITY.md documents every number here.
constexpr size_t kWindow = 32;           // epochs examined per diagnosis
constexpr double kSinkBoundFraction = 0.35;
constexpr double kIdleFraction = 0.6;
constexpr double kQueueRatio = 0.4;
constexpr int64_t kQueueFloorNanos = 2'000'000;   // 2ms each of wait and run
constexpr double kSkewImbalance = 2.5;
constexpr int64_t kSkewRowFloor = 64;
constexpr int64_t kWatermarkLagFloorMicros = 5'000'000;  // 5s
constexpr size_t kTrendMinEpochs = 4;    // watermark-lag / state-growth
constexpr double kStateGrowthFactor = 2.0;
constexpr int64_t kStateGrowthRowFloor = 1024;

std::string Fmt(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// --- individual rules; each appends at most one finding -------------------

void CheckSinkBound(const std::vector<const QueryProgress*>& win,
                    std::vector<DoctorFinding>* out) {
  int64_t sink = 0;
  int64_t dur = 0;
  for (const QueryProgress* p : win) {
    sink += p->sink_commit_nanos;
    dur += p->duration_nanos;
  }
  if (dur <= 0) return;
  double frac = static_cast<double>(sink) / static_cast<double>(dur);
  if (frac <= kSinkBoundFraction) return;
  DoctorFinding f;
  f.verdict = "sink-bound";
  f.score = std::min(1.0, frac);
  f.summary = Fmt("sink commit consumed %.0f%% of processing time over %zu "
                  "epochs (%.1f ms of %.1f ms)",
                  frac * 100, win.size(), sink / 1e6, dur / 1e6);
  f.suggestion =
      "the sink is the bottleneck: batch writes, raise the sink's commit "
      "concurrency, or switch to a faster sink; widening the trigger "
      "interval amortizes per-commit overhead";
  f.evidence.Set("sinkCommitNanos", Json::Int(sink));
  f.evidence.Set("durationNanos", Json::Int(dur));
  f.evidence.Set("fraction", Json::Double(frac));
  out->push_back(std::move(f));
}

void CheckSourceStarved(const std::vector<const QueryProgress*>& win,
                        std::vector<DoctorFinding>* out) {
  int64_t wait = 0;
  int64_t dur = 0;
  for (const QueryProgress* p : win) {
    wait += p->trigger_wait_nanos;
    dur += p->duration_nanos;
  }
  if (wait + dur <= 0) return;
  double idle = static_cast<double>(wait) / static_cast<double>(wait + dur);
  int64_t backlog = 0;
  for (const SourceProgress& s : win.back()->sources) backlog += s.backlog_rows;
  // High idle time with a backlog is a trigger-interval problem, not
  // starvation; only a drained backlog means the input truly ran dry.
  if (idle <= kIdleFraction || backlog != 0) return;
  DoctorFinding f;
  f.verdict = "source-starved";
  f.score = std::min(1.0, idle);
  f.summary = Fmt("the query sat idle %.0f%% of the time waiting for input "
                  "and ended the window with zero backlog",
                  idle * 100);
  f.suggestion =
      "processing keeps up with arrivals: the pipeline is healthy but "
      "over-provisioned; widen the trigger interval or shrink the scheduler "
      "pool to reclaim cores";
  f.evidence.Set("triggerWaitNanos", Json::Int(wait));
  f.evidence.Set("durationNanos", Json::Int(dur));
  f.evidence.Set("idleFraction", Json::Double(idle));
  f.evidence.Set("lastBacklogRows", Json::Int(backlog));
  out->push_back(std::move(f));
}

void CheckSchedulerSaturated(const std::vector<const QueryProgress*>& win,
                             int parallelism,
                             std::vector<DoctorFinding>* out) {
  int64_t queued = 0;
  int64_t ran = 0;
  for (const QueryProgress* p : win) {
    for (const OperatorProgress& op : p->operators) {
      queued += op.queue_wait_nanos;
      ran += op.task_run_nanos;
    }
  }
  if (queued < kQueueFloorNanos || ran < kQueueFloorNanos) return;
  double ratio = static_cast<double>(queued) / static_cast<double>(queued + ran);
  if (ratio <= kQueueRatio) return;
  DoctorFinding f;
  f.verdict = "scheduler-saturated";
  f.score = std::min(1.0, ratio);
  f.summary = Fmt("tasks spent %.0f%% of their scheduler time queued behind "
                  "other tasks (%.1f ms queued vs %.1f ms running)",
                  ratio * 100, queued / 1e6, ran / 1e6);
  f.suggestion =
      parallelism > 0
          ? Fmt("the task pool is oversubscribed: raise scheduler "
                "parallelism (currently %d), or lower num_partitions / "
                "num_state_shards to shrink the per-epoch task count",
                parallelism)
          : "the task pool is oversubscribed: raise scheduler parallelism, "
            "or lower num_partitions / num_state_shards to shrink the "
            "per-epoch task count";
  f.evidence.Set("queueWaitNanos", Json::Int(queued));
  f.evidence.Set("taskRunNanos", Json::Int(ran));
  f.evidence.Set("queuedFraction", Json::Double(ratio));
  if (parallelism > 0) {
    f.evidence.Set("schedulerParallelism", Json::Int(parallelism));
  }
  out->push_back(std::move(f));
}

void CheckShardSkew(const std::vector<const QueryProgress*>& win,
                    int num_state_shards, std::vector<DoctorFinding>* out) {
  // Skew is a property of the live state layout, so only the newest epoch's
  // shard breakdown matters.
  const QueryProgress& last = *win.back();
  const OperatorProgress* worst_op = nullptr;
  double worst_imbalance = 0;
  int64_t worst_max_rows = 0;
  int64_t worst_total = 0;
  for (const OperatorProgress& op : last.operators) {
    size_t shards = op.shard_state.size();
    if (shards < 2) continue;
    int64_t total = 0;
    int64_t max_rows = 0;
    for (const auto& [rows, bytes] : op.shard_state) {
      total += rows;
      max_rows = std::max(max_rows, rows);
    }
    if (total < kSkewRowFloor) continue;
    double avg = static_cast<double>(total) / static_cast<double>(shards);
    double imbalance = static_cast<double>(max_rows) / avg;
    if (imbalance >= kSkewImbalance && imbalance > worst_imbalance) {
      worst_op = &op;
      worst_imbalance = imbalance;
      worst_max_rows = max_rows;
      worst_total = total;
    }
  }
  if (worst_op == nullptr) return;
  size_t shards = worst_op->shard_state.size();
  DoctorFinding f;
  f.verdict = "stateful-shard-skew";
  // 1.0 when one shard holds everything; ~0 when perfectly balanced.
  f.score = std::min(1.0, (worst_imbalance - 1.0) /
                              static_cast<double>(shards - 1));
  f.summary = Fmt("operator '%s' keeps %lld of its %lld state rows on one of "
                  "%zu shards (%.1fx the balanced share)",
                  worst_op->name.c_str(),
                  static_cast<long long>(worst_max_rows),
                  static_cast<long long>(worst_total), shards,
                  worst_imbalance);
  f.suggestion =
      num_state_shards > 0
          ? Fmt("grouping keys hash unevenly: raise num_state_shards "
                "(currently %d) or pre-aggregate the hot key upstream",
                num_state_shards)
          : "grouping keys hash unevenly: raise num_state_shards or "
            "pre-aggregate the hot key upstream";
  f.evidence.Set("opId", Json::Int(worst_op->op_id));
  f.evidence.Set("operator", Json::Str(worst_op->name));
  f.evidence.Set("shards", Json::Int(static_cast<int64_t>(shards)));
  f.evidence.Set("maxShardRows", Json::Int(worst_max_rows));
  f.evidence.Set("totalStateRows", Json::Int(worst_total));
  f.evidence.Set("imbalance", Json::Double(worst_imbalance));
  out->push_back(std::move(f));
}

void CheckWatermarkLagging(const std::vector<const QueryProgress*>& win,
                           std::vector<DoctorFinding>* out) {
  std::vector<int64_t> lags;
  for (const QueryProgress* p : win) {
    if (p->watermark_micros != INT64_MIN) lags.push_back(p->watermark_lag_micros);
  }
  if (lags.size() < kTrendMinEpochs) return;
  int64_t first = lags.front();
  int64_t lag = lags.back();
  // Fire only on a lag that is both large in absolute terms and still
  // growing — a big constant lag is just the configured watermark delay.
  if (lag <= kWatermarkLagFloorMicros || lag <= first) return;
  DoctorFinding f;
  f.verdict = "watermark-lagging";
  f.score = std::min(1.0, static_cast<double>(lag) / 60e6);
  f.summary = Fmt("watermark lag grew from %.1f s to %.1f s across %zu "
                  "watermarked epochs",
                  first / 1e6, lag / 1e6, lags.size());
  f.suggestion =
      "event time is falling behind wall clock: the pipeline cannot keep up "
      "with event arrival — scale processing, shrink the watermark delay, or "
      "check for a stalled source partition holding the watermark back";
  f.evidence.Set("lagFirstMicros", Json::Int(first));
  f.evidence.Set("lagLastMicros", Json::Int(lag));
  f.evidence.Set("watermarkedEpochs",
                 Json::Int(static_cast<int64_t>(lags.size())));
  out->push_back(std::move(f));
}

void CheckStateGrowth(const std::vector<const QueryProgress*>& win,
                      std::vector<DoctorFinding>* out) {
  if (win.size() < kTrendMinEpochs) return;
  int64_t first = std::max<int64_t>(1, win.front()->state_entries);
  int64_t last = win.back()->state_entries;
  double growth = static_cast<double>(last) / static_cast<double>(first);
  if (last < kStateGrowthRowFloor || growth < kStateGrowthFactor) return;
  DoctorFinding f;
  f.verdict = "state-growth";
  f.score = std::min(1.0, growth / 4.0);
  f.summary = Fmt("state grew %.1fx over the window (%lld -> %lld rows) with "
                  "no sign of plateau",
                  growth, static_cast<long long>(win.front()->state_entries),
                  static_cast<long long>(last));
  f.suggestion =
      "state is growing without bound: configure watermark-based eviction "
      "for aggregations/joins, or check the grouping key cardinality — an "
      "unbounded key space grows state forever";
  f.evidence.Set("firstStateEntries", Json::Int(win.front()->state_entries));
  f.evidence.Set("lastStateEntries", Json::Int(last));
  f.evidence.Set("growthFactor", Json::Double(growth));
  out->push_back(std::move(f));
}

}  // namespace

Json DoctorFinding::ToJson() const {
  Json obj = Json::Object();
  obj.Set("verdict", Json::Str(verdict));
  obj.Set("score", Json::Double(score));
  obj.Set("summary", Json::Str(summary));
  obj.Set("suggestion", Json::Str(suggestion));
  obj.Set("evidence", evidence);
  return obj;
}

Json DoctorReport::ToJson() const {
  Json obj = Json::Object();
  obj.Set("query", Json::Str(query));
  obj.Set("epochsExamined", Json::Int(epochs_examined));
  obj.Set("firstEpoch", Json::Int(first_epoch));
  obj.Set("lastEpoch", Json::Int(last_epoch));
  obj.Set("topVerdict", Json::Str(top_verdict()));
  Json arr = Json::Array();
  for (const DoctorFinding& f : findings) arr.Append(f.ToJson());
  obj.Set("findings", std::move(arr));
  return obj;
}

std::string DoctorReport::Render() const {
  std::string out = "== doctor: " + (query.empty() ? "<unnamed-query>" : query) +
                    " (epochs " + std::to_string(first_epoch) + ".." +
                    std::to_string(last_epoch) + ", " +
                    std::to_string(epochs_examined) + " examined) ==\n";
  if (findings.empty()) {
    out += "healthy: no bottleneck crossed a reporting threshold\n";
    return out;
  }
  int rank = 1;
  for (const DoctorFinding& f : findings) {
    out += Fmt("%d. [%s] score=%.2f\n", rank++, f.verdict.c_str(), f.score);
    out += "   " + f.summary + "\n";
    out += "   -> " + f.suggestion + "\n";
  }
  return out;
}

DoctorReport Diagnose(const DoctorInput& input) {
  DoctorReport report;
  report.query = input.query_name;
  std::vector<const QueryProgress*> win;
  size_t start =
      input.window.size() > kWindow ? input.window.size() - kWindow : 0;
  for (size_t i = start; i < input.window.size(); ++i) {
    win.push_back(&input.window[i]);
  }
  if (win.empty()) return report;
  report.epochs_examined = static_cast<int64_t>(win.size());
  report.first_epoch = win.front()->epoch;
  report.last_epoch = win.back()->epoch;
  CheckSinkBound(win, &report.findings);
  CheckSourceStarved(win, &report.findings);
  CheckSchedulerSaturated(win, input.scheduler_parallelism, &report.findings);
  CheckShardSkew(win, input.num_state_shards, &report.findings);
  CheckWatermarkLagging(win, &report.findings);
  CheckStateGrowth(win, &report.findings);
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const DoctorFinding& a, const DoctorFinding& b) {
                     return a.score > b.score;
                   });
  return report;
}

Result<DoctorReport> DiagnoseHistory(const std::string& checkpoint_dir) {
  SS_ASSIGN_OR_RETURN(std::vector<Json> events,
                      QueryHistoryLog::ReadAll(checkpoint_dir));
  DoctorInput input;
  for (const Json& event : events) {
    const Json& query = event.Get("query");
    if (input.query_name.empty() && query.is_string()) {
      input.query_name = query.string_value();
    }
    const Json& kind = event.Get("event");
    if (!kind.is_string() || kind.string_value() != "progress") continue;
    SS_ASSIGN_OR_RETURN(QueryProgress p,
                        QueryProgress::FromJson(event.Get("progress")));
    input.window.push_back(std::move(p));
  }
  return Diagnose(input);
}

}  // namespace sstreaming

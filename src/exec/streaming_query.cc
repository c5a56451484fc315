#include "exec/streaming_query.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <set>

#include "analysis/analyzer.h"
#include "analysis/checkpoint_compat.h"
#include "analysis/plan_analyzer.h"
#include "common/logging.h"
#include "obs/doctor.h"
#include "obs/profiler.h"
#include "optimizer/optimizer.h"
#include "state/state_store.h"
#include "storage/fs.h"
#include "testing/failpoints.h"

namespace sstreaming {

Result<std::unique_ptr<StreamingQuery>> StreamingQuery::Start(
    const DataFrame& df, SinkPtr sink, QueryOptions options) {
  if (!df.IsStreaming()) {
    return Status::InvalidArgument(
        "not a streaming query; use RunBatch for static data (§7.3)");
  }
  if (!sink->SupportsMode(options.mode)) {
    return Status::InvalidArgument(std::string("sink does not support ") +
                                   OutputModeName(options.mode) +
                                   " output mode");
  }
  // Plan: optimize (on names), re-analyze, validate (§5.1), incrementalize.
  SS_ASSIGN_OR_RETURN(PlanPtr analyzed,
                      Analyzer::Analyze(Optimizer::Optimize(df.plan())));
  // Static plan analysis (§4.2 checks + unbounded-state/watermark
  // advisories): any SS1xxx error fails the start; SS2xxx warnings ride on
  // the query (listener event + metrics) and are logged once here.
  PlanAnalysis plan_analysis = PlanAnalyzer::Analyze(analyzed, options.mode);
  SS_RETURN_IF_ERROR(plan_analysis.FirstErrorStatus());

  std::unique_ptr<StreamingQuery> query(new StreamingQuery());
  query->plan_warnings_ = plan_analysis.warnings();
  // Canonical plan identity (docs/UPGRADES.md): computed for every query so
  // EXPLAIN and the /fingerprint endpoint can render it; for durable
  // queries it is also the pre-recovery compatibility gate below.
  query->fingerprint_ = ComputePlanFingerprint(
      analyzed, options.mode, options.num_partitions,
      options.num_state_shards);
  if (!options.checkpoint_dir.empty()) {
    // Diff against the manifest the previous run left behind BEFORE any
    // recovery work: an incompatible plan must fail fast with provenance
    // instead of replaying WAL epochs into mismatched state.
    SS_ASSIGN_OR_RETURN(CompatCheck compat,
                        CheckCheckpointCompatibility(options.checkpoint_dir,
                                                     query->fingerprint_));
    if (compat.analysis.has_errors() &&
        !options.allow_checkpoint_incompatibility) {
      return compat.analysis.FirstErrorStatus();
    }
    for (const Diagnostic& d : compat.analysis.diagnostics()) {
      // With the override, errors ride along as warnings under their
      // original SS3xxx code so the migration stays visible in listener
      // events, metrics, and logs.
      Diagnostic downgraded = d;
      downgraded.severity = DiagSeverity::kWarning;
      query->plan_warnings_.push_back(std::move(downgraded));
    }
  }
  query->options_ = options;
  query->sink_ = std::move(sink);
  query->clock_ = options.clock != nullptr ? options.clock
                                           : SystemClock::Default();
  if (options.scheduler != nullptr) {
    query->scheduler_ = options.scheduler;
  } else {
    query->owned_scheduler_ = std::make_unique<InlineScheduler>();
    query->scheduler_ = query->owned_scheduler_.get();
  }
  // Observability wiring (§7.4): adopt shared instruments or create private
  // ones, before recovery so replayed epochs are already instrumented.
  query->metrics_ = options.metrics != nullptr
                        ? options.metrics
                        : std::make_shared<MetricsRegistry>();
  if (options.tracer != nullptr) {
    query->tracer_ = options.tracer;
  } else if (options.enable_tracing) {
    query->tracer_ = std::make_shared<EpochTracer>();
  }
  for (const Diagnostic& w : query->plan_warnings_) {
    SS_LOG(Warn) << "plan analysis [" << options.query_name
                 << "]: " << w.Render();
    query->metrics_
        ->GetCounter("sstreaming_plan_warnings_total",
                     {{"code", DiagCodeString(w.code)}})
        ->Increment();
  }
  if (query->owned_scheduler_ != nullptr) {
    // An externally supplied scheduler may be shared across queries (and
    // outlive this one); its owner decides whether/where it reports.
    query->owned_scheduler_->set_metrics(query->metrics_.get());
  }
  // Profiler attribution label for this query; armed for the query's
  // lifetime when profile_hz asks for it (disarmed in NotifyTerminated —
  // also reached via the unique_ptr destructor on any later Start failure).
  query->profile_query_label_ = Profiler::Instance().Intern(
      options.query_name.empty() ? "<unnamed-query>" : options.query_name);
  if (options.profile_hz > 0) {
    Profiler::Instance().Arm(options.profile_hz);
    query->profiler_armed_ = true;
  }
  SS_ASSIGN_OR_RETURN(query->plan_,
                      Incrementalize(analyzed, options.num_partitions));
  query->BuildProfileNodes();

  // Initialize per-source consumed offsets to zero.
  for (const SourcePtr& source : query->plan_.sources) {
    query->committed_offsets_[source->name()] = std::vector<int64_t>(
        static_cast<size_t>(source->num_partitions()), 0);
  }

  if (!options.checkpoint_dir.empty()) {
    SS_ASSIGN_OR_RETURN(WriteAheadLog wal,
                        WriteAheadLog::Open(options.checkpoint_dir + "/wal"));
    query->wal_ = std::make_unique<WriteAheadLog>(std::move(wal));
    query->wal_->set_metrics(query->metrics_.get());
    // Open history before recovery so replayed epochs append their progress
    // lines too; the "started" line leads the run's events, with
    // recovered=true when the checkpoint already held planned epochs.
    SS_ASSIGN_OR_RETURN(
        query->history_,
        QueryHistoryLog::Open(options.checkpoint_dir, query->clock_));
    SS_ASSIGN_OR_RETURN(std::optional<int64_t> prior,
                        query->wal_->LatestPlannedEpoch());
    (void)query->history_->AppendStarted(
        options.query_name, prior.has_value(), query->plan_warnings_);
    // Persist (or refresh) the manifest before recovery so a crash at any
    // later point leaves the compatibility gate armed for the next start.
    SS_RETURN_IF_ERROR(StorePlanManifest(options.checkpoint_dir,
                                         query->fingerprint_));
    SS_RETURN_IF_ERROR(query->Recover());
  } else {
    query->state_ = std::make_unique<StateManager>(
        "", 0, query->StateOptions());
    query->state_->set_metrics(query->metrics_.get());
  }
  return query;
}

ShardedStateStore::Options StreamingQuery::StateOptions() const {
  ShardedStateStore::Options opts;
  opts.num_shards = options_.num_state_shards;
  opts.shard_options = options_.state_options;
  opts.allow_shard_count_mismatch = options_.allow_checkpoint_incompatibility;
  return opts;
}

void StreamingQuery::BuildProfileNodes() {
  // Pre-order walk; a visited set keeps shared subtrees from being listed
  // twice (their stats are already per-op_id). Operators describe their own
  // profile nodes: most contribute one, a fused pipeline contributes itself
  // plus one node per original stage so per-operator row accounting still
  // ties out after fusion.
  std::set<int> seen;
  std::function<void(const PhysOp&)> walk = [&](const PhysOp& op) {
    if (seen.count(op.op_id()) > 0) return;
    std::vector<OpProfileNode> nodes;
    op.CollectProfileNodes(&nodes);
    for (OpProfileNode& node : nodes) {
      if (!seen.insert(node.op_id).second) continue;
      plan_profile_.AddNode(node);
      profile_nodes_.push_back(std::move(node));
    }
    for (const PhysOpPtr& child : op.children()) walk(*child);
  };
  if (plan_.root != nullptr) walk(*plan_.root);
}

std::vector<QueryProgress> StreamingQuery::GetProgressSnapshot() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  return progress_;
}

bool StreamingQuery::GetLastProgress(QueryProgress* out) const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  if (progress_.empty()) return false;
  *out = progress_.back();
  return true;
}

Status StreamingQuery::GetError() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  return error_;
}

StreamingQuery::~StreamingQuery() { Stop(); }

Status StreamingQuery::Recover() {
  // A crash can leave a torn entry at the WAL tail (see RepairTornTail);
  // drop it rather than refusing to start — the epoch it described never
  // took effect and is simply recomputed.
  SS_ASSIGN_OR_RETURN(int repaired, wal_->RepairTornTail());
  if (repaired > 0) {
    SS_LOG(Warn) << "recovery repaired " << repaired
                 << " torn WAL tail entr" << (repaired == 1 ? "y" : "ies");
  }
  // Paper §6.1 step 4: find the last planned epoch; reload state at the
  // newest checkpoint at or below the last *committed* epoch; replay
  // everything after it (sinks are idempotent, so replayed commits are
  // safe); then resume defining new epochs.
  SS_ASSIGN_OR_RETURN(std::optional<int64_t> latest_planned,
                      wal_->LatestPlannedEpoch());
  SS_ASSIGN_OR_RETURN(std::optional<int64_t> latest_committed,
                      wal_->LatestCommittedEpoch());
  int64_t committed = latest_committed.value_or(0);

  state_ = std::make_unique<StateManager>(options_.checkpoint_dir + "/state",
                                          committed, StateOptions());
  state_->set_metrics(metrics_.get());
  if (!latest_planned.has_value()) return Status::OK();

  // Open every store that exists on disk so MinLoadedVersion reflects how
  // far state checkpoints lag the committed epoch (they may legally lag
  // when state_checkpoint_interval > 1). Epochs after the state restore
  // point are replayed from the log; sink re-commits are idempotent.
  SS_RETURN_IF_ERROR(state_->PreopenExisting());
  int64_t state_floor = state_->MinLoadedVersion();
  if (plan_.has_stateful && state_->num_open_stores() == 0) {
    state_floor = 0;  // stateful query that never checkpointed: replay all
  }
  last_state_commit_ = state_floor;
  int64_t replay_from = std::min(state_floor, committed) + 1;
  for (int64_t e = replay_from; e <= *latest_planned; ++e) {
    auto plan = wal_->ReadPlan(e);
    if (!plan.ok()) {
      if (plan.status().IsNotFound()) continue;  // hole after rollback
      return plan.status();
    }
    SS_RETURN_IF_ERROR(RunPlannedEpoch(*plan));
  }
  // Adopt the consumed offsets / watermark of the last replayed or
  // committed epoch.
  if (last_epoch_ < *latest_planned) {
    // Nothing replayed (everything committed): rebuild cursor state from
    // the last plan.
    SS_ASSIGN_OR_RETURN(EpochPlan plan, wal_->ReadPlan(*latest_planned));
    last_epoch_ = plan.epoch;
    watermark_micros_ = plan.watermark_micros;
    for (const SourceOffsets& so : plan.sources) {
      committed_offsets_[so.source_name] = so.end;
    }
  }
  // The commit record carries the watermark as advanced by the epoch's own
  // data; prefer it over the plan's pre-epoch watermark.
  if (latest_committed.has_value()) {
    auto commit_wm = wal_->ReadCommitWatermark(*latest_committed);
    if (commit_wm.ok() && *commit_wm > watermark_micros_) {
      watermark_micros_ = *commit_wm;
    }
  }
  return Status::OK();
}

Result<EpochPlan> StreamingQuery::PlanNextEpoch() {
  EpochPlan plan;
  plan.epoch = last_epoch_ + 1;
  plan.watermark_micros = watermark_micros_;
  int64_t budget = options_.max_records_per_epoch;
  bool any_new = false;
  pending_backlog_rows_.clear();
  pending_backlog_age_.clear();
  for (const SourcePtr& source : plan_.sources) {
    SS_ASSIGN_OR_RETURN(std::vector<int64_t> latest,
                        source->LatestOffsets());
    std::vector<int64_t>& start = committed_offsets_[source->name()];
    if (latest.size() != start.size()) {
      return Status::Internal("source repartitioned mid-query: " +
                              source->name());
    }
    std::vector<int64_t> end = latest;
    if (options_.max_records_per_epoch > 0) {
      // Fixed-size batching (adaptive batching disabled): cap the total
      // records taken this epoch, spread across partitions.
      int64_t per_part = std::max<int64_t>(
          1, budget / static_cast<int64_t>(start.size()));
      for (size_t p = 0; p < end.size(); ++p) {
        end[p] = std::min(end[p], start[p] + per_part);
      }
    }
    int64_t backlog = 0;
    int64_t oldest_deferred = 0;
    for (size_t p = 0; p < end.size(); ++p) {
      if (end[p] < start[p]) {
        return Status::Internal("source offsets moved backwards: " +
                                source->name());
      }
      if (end[p] > start[p]) any_new = true;
      backlog += latest[p] - end[p];  // deferred by max_records_per_epoch
      if (latest[p] > end[p]) {
        int64_t ingest = source->OldestIngestMicros(static_cast<int>(p),
                                                    end[p], latest[p]);
        if (ingest > 0 && (oldest_deferred == 0 || ingest < oldest_deferred)) {
          oldest_deferred = ingest;
        }
      }
    }
    pending_backlog_rows_[source->name()] = backlog;
    pending_backlog_age_[source->name()] =
        oldest_deferred > 0
            ? std::max<int64_t>(0, clock_->NowMicros() - oldest_deferred)
            : 0;
    plan.sources.push_back(SourceOffsets{source->name(), start, end});
  }
  if (!any_new) plan.epoch = -1;  // sentinel: nothing to do
  return plan;
}

Status StreamingQuery::RunPlannedEpoch(const EpochPlan& plan) {
  // Stage timing: ProcessOneTrigger seeds the epoch start (taken before
  // planning) plus the planning duration; recovery replay enters directly,
  // so its epochs have no plan or trigger-wait stage.
  int64_t t0 = pending_epoch_start_nanos_ != 0 ? pending_epoch_start_nanos_
                                               : MonotonicNanos();
  int64_t plan_nanos = pending_plan_nanos_;
  int64_t trigger_wait = pending_trigger_wait_nanos_;
  int64_t trigger_drift = pending_trigger_drift_nanos_;
  std::map<std::string, int64_t> backlog = std::move(pending_backlog_rows_);
  std::map<std::string, int64_t> backlog_age =
      std::move(pending_backlog_age_);
  pending_epoch_start_nanos_ = 0;
  pending_plan_nanos_ = 0;
  pending_trigger_wait_nanos_ = 0;
  pending_trigger_drift_nanos_ = 0;
  pending_backlog_rows_.clear();
  pending_backlog_age_.clear();
  LogContext log_ctx(options_.query_name, plan.epoch);

  // Profiler attribution: everything the trigger thread does this epoch
  // samples under this query's label; operators and stages refine the word
  // below (obs/profiler.h). All no-ops while the sampler is disarmed.
  ProfileQueryScope prof_query(profile_query_label_);
  static const uint32_t kStageExecute = Profiler::Instance().Intern("execute");
  static const uint32_t kStageCheckpoint =
      Profiler::Instance().Intern("checkpoint");
  static const uint32_t kStageCommit = Profiler::Instance().Intern("commit");

  // State checkpoints on multiples of the interval. The fold tasks write
  // them (paper §6.1: each task commits its own state version).
  const int interval = options_.state_checkpoint_interval;
  const bool checkpoint_epoch =
      plan_.has_stateful && (interval <= 1 || plan.epoch % interval == 0);
  ExecContext ctx;
  ctx.epoch = plan.epoch;
  ctx.watermark_micros = plan.watermark_micros;
  ctx.mode = options_.mode;
  ctx.scheduler = scheduler_;
  ctx.state = state_.get();
  if (checkpoint_epoch) ctx.state_commit_epoch = plan.epoch;
  ctx.clock = clock_;
  ctx.tracer = tracer_.get();
  for (const SourceOffsets& so : plan.sources) {
    ctx.offsets[so.source_name] = {so.start, so.end};
  }

  int64_t exec_t0 = MonotonicNanos();
  std::vector<RecordBatchPtr> output;
  {
    ProfileStageScope prof_stage(kStageExecute);
    SS_ASSIGN_OR_RETURN(output, plan_.root->Execute(&ctx));
    // Forced materialization boundary: the sink sees compact batches, never
    // selection views (docs/VECTORIZED_EXEC.md).
    for (RecordBatchPtr& b : output) b = RecordBatch::Materialize(b);
  }
  int64_t exec_total = MonotonicNanos() - exec_t0;

  // §6.1 commit protocol: checkpoint state, then commit the sink, then log
  // the commit. A crash between any two steps is repaired by replaying this
  // epoch (idempotent sink, state restored to the pre-epoch version). The
  // fold tasks have already written this epoch's state files; the driver's
  // checkpoint step only backstops stores no task reached. The epoch.*
  // failpoints sit exactly in those crash windows; the chaos harness drives
  // each of them.
  SS_FAILPOINT("epoch.before_checkpoint");
  int64_t ckpt_t0 = MonotonicNanos();
  {
    ProfileStageScope prof_stage(kStageCheckpoint);
    if (checkpoint_epoch) {
      SS_RETURN_IF_ERROR(state_->CommitAll(plan.epoch));
      last_state_commit_ = plan.epoch;
    }
  }
  int64_t ckpt_end = MonotonicNanos();
  int num_keys = options_.mode == OutputMode::kUpdate
                     ? plan_.num_key_columns
                     : 0;
  OutputMode sink_mode = options_.mode;
  if (sink_mode == OutputMode::kUpdate && num_keys == 0) {
    // Update mode on a keyless (map-only / stateful-op) query degenerates
    // to append: every emitted row is new.
    sink_mode = OutputMode::kAppend;
  }
  SS_FAILPOINT("epoch.before_sink_commit");
  // Time Sink::CommitEpoch alone (the sink-bound doctor signal); the
  // broader commit stage below also covers the WAL commit and retention.
  int64_t sink_t0 = MonotonicNanos();
  {
    ProfileStageScope prof_stage(kStageCommit);
    SS_RETURN_IF_ERROR(
        sink_->CommitEpoch(plan.epoch, sink_mode, num_keys, output));
  }
  int64_t sink_commit_nanos = MonotonicNanos() - sink_t0;
  // The classic at-least-once window: output delivered, commit not yet
  // logged. Replay re-delivers; the sink's idempotence deduplicates.
  SS_FAILPOINT("epoch.after_sink_commit");

  // Advance cursors and the watermark for the next epoch (§4.3.1: the
  // watermark moves at epoch boundaries using event times seen so far).
  last_epoch_ = plan.epoch;
  for (const SourceOffsets& so : plan.sources) {
    committed_offsets_[so.source_name] = so.end;
  }
  if (plan.watermark_micros > watermark_micros_) {
    watermark_micros_ = plan.watermark_micros;  // recovery replay case
  }
  // Fold this epoch's per-operator candidates into the running per-operator
  // maxima, then advance the global watermark to the MINIMUM across
  // watermarked inputs that have reported data — the safe policy when a
  // query has several event-time streams (each input's lateness bound must
  // hold). The global watermark itself never regresses.
  for (const auto& [op_id, candidate] : ctx.observed_watermarks) {
    auto it = per_op_watermark_.find(op_id);
    if (it == per_op_watermark_.end() || candidate > it->second) {
      per_op_watermark_[op_id] = candidate;
    }
  }
  if (!per_op_watermark_.empty()) {
    int64_t combined = INT64_MAX;
    for (const auto& [op_id, candidate] : per_op_watermark_) {
      combined = std::min(combined, candidate);
    }
    if (combined > watermark_micros_) watermark_micros_ = combined;
  }
  if (wal_ != nullptr) {
    SS_RETURN_IF_ERROR(wal_->WriteCommit(plan.epoch, watermark_micros_));
    // Retention: drop history older than the configured horizon, but never
    // past the newest state checkpoint (recovery must be able to replay
    // from it).
    if (options_.retain_epochs > 0) {
      int64_t keep = last_epoch_ - options_.retain_epochs + 1;
      if (plan_.has_stateful) keep = std::min(keep, last_state_commit_);
      if (keep > 1) {
        SS_RETURN_IF_ERROR(wal_->PurgeBefore(keep));
        SS_RETURN_IF_ERROR(state_->PurgeBefore(keep));
      }
    }
  }
  int64_t commit_end = MonotonicNanos();

  // End-to-end latency (sink commit time minus source ingest time),
  // row-weighted per output batch. Batches that lost their stamp in a
  // materializing operator fall back to the epoch's oldest source ingest —
  // conservative (never under-reports) and exact for single-source epochs.
  LogHistogram e2e_hist;
  {
    int64_t commit_micros = clock_->NowMicros();
    int64_t epoch_min_ingest = ctx.MinIngestMicros();
    LogHistogram* lifetime =
        metrics_ != nullptr
            ? metrics_->GetHistogram("sstreaming_e2e_latency_micros")
            : nullptr;
    for (const RecordBatchPtr& b : output) {
      if (b->num_rows() == 0) continue;
      int64_t ingest = b->ingest_micros() > 0 ? b->ingest_micros()
                                              : epoch_min_ingest;
      if (ingest <= 0) continue;  // undated: nothing to measure
      int64_t delta = std::max<int64_t>(0, commit_micros - ingest);
      e2e_hist.RecordN(delta, b->num_rows());
      // Same (value, weight) stream into the lifetime series, so merging
      // the per-epoch summaries reproduces it bucket-for-bucket (tested).
      if (lifetime != nullptr) lifetime->RecordN(delta, b->num_rows());
    }
  }

  // Memory accounting (§7.4): live state size per stateful operator and
  // shard, read once per epoch (not per row) in one walk of the stores. The
  // operator and progress totals are its sums, so every surface agrees.
  const std::map<int, std::vector<StateManager::OpStateSize>> shard_sizes =
      state_->PerOpShardSizes();
  std::map<int, StateManager::OpStateSize> state_sizes;
  for (const auto& [op_id, sizes] : shard_sizes) {
    StateManager::OpStateSize& total = state_sizes[op_id];
    for (const StateManager::OpStateSize& shard : sizes) {
      total.rows += shard.rows;
      total.bytes += shard.bytes;
    }
  }

  QueryProgress progress;
  progress.epoch = plan.epoch;
  progress.rows_read = ctx.rows_read;
  for (const RecordBatchPtr& b : output) progress.rows_written += b->num_rows();
  progress.watermark_micros = watermark_micros_;
  if (watermark_micros_ != INT64_MIN) {
    progress.watermark_lag_micros =
        std::max<int64_t>(0, clock_->NowMicros() - watermark_micros_);
  }
  progress.trigger_drift_nanos = trigger_drift;
  progress.e2e_latency = LatencySummary::FromHistogram(e2e_hist);
  for (const auto& [op_id, size] : state_sizes) {
    (void)op_id;
    progress.state_entries += size.rows;
    progress.state_bytes += size.bytes;
  }
  progress.trigger_wait_nanos = trigger_wait;
  progress.plan_nanos = plan_nanos;
  // Source-scan leaves run their partition reads inside their own Execute,
  // so their inclusive wall times are disjoint from each other; attribute
  // them as the epoch's "source read" stage and the rest of the DAG as
  // "exec".
  int64_t source_read = 0;
  {
    std::lock_guard<std::mutex> lock(ctx.metrics_mu);
    for (const OpProfileNode& node : profile_nodes_) {
      if (!node.is_source) continue;
      auto it = ctx.op_wall_nanos.find(node.op_id);
      if (it != ctx.op_wall_nanos.end()) source_read += it->second;
    }
  }
  source_read = std::min(source_read, exec_total);
  progress.source_read_nanos = source_read;
  progress.exec_nanos = exec_total - source_read;
  progress.checkpoint_nanos = ckpt_end - ckpt_t0;
  progress.commit_nanos = commit_end - ckpt_end;
  progress.sink_commit_nanos = sink_commit_nanos;
  // `other` absorbs the unattributed remainder (context setup, watermark
  // bookkeeping) so the stages always sum to the epoch duration.
  int64_t accounted = plan_nanos + exec_total + progress.checkpoint_nanos +
                      progress.commit_nanos;
  progress.other_nanos = std::max<int64_t>(0, (commit_end - t0) - accounted);
  progress.duration_nanos = progress.StageSumNanos();
  SS_DCHECK(progress.duration_nanos == progress.StageSumNanos());

  // Per-source input summaries (rates over the processing duration; backlog
  // from plan time when max_records_per_epoch capped the batch).
  double secs = static_cast<double>(progress.duration_nanos) / 1e9;
  {
    std::lock_guard<std::mutex> lock(ctx.metrics_mu);
    for (const SourceOffsets& so : plan.sources) {
      SourceProgress sp;
      sp.name = so.source_name;
      auto it = ctx.source_rows.find(so.source_name);
      if (it != ctx.source_rows.end()) sp.rows = it->second;
      sp.rows_per_sec =
          secs > 0 ? static_cast<double>(sp.rows) / secs : 0;
      auto bit = backlog.find(so.source_name);
      if (bit != backlog.end()) sp.backlog_rows = bit->second;
      auto ait = backlog_age.find(so.source_name);
      if (ait != backlog_age.end()) sp.backlog_age_micros = ait->second;
      progress.sources.push_back(std::move(sp));
    }
    // Per-operator summaries, in plan pre-order: the operators' own
    // counters, plus rows_in (the children's combined output), cpu (the
    // operator's inclusive wall time minus its children's: self time) and
    // the live state size.
    for (const OpProfileNode& node : profile_nodes_) {
      auto it = ctx.op_progress.find(node.op_id);
      OperatorProgress op =
          it != ctx.op_progress.end() ? it->second : OperatorProgress{};
      op.op_id = node.op_id;
      op.name = node.name;
      progress.queue_wait_nanos += op.queue_wait_nanos;
      auto sit = state_sizes.find(node.op_id);
      if (sit != state_sizes.end()) {
        op.state_rows = sit->second.rows;
        op.state_bytes = sit->second.bytes;
        for (const StateManager::OpStateSize& ss :
             shard_sizes.at(node.op_id)) {
          op.shard_state.emplace_back(ss.rows, ss.bytes);
        }
      }
      int64_t self_wall = 0;
      auto wit = ctx.op_wall_nanos.find(node.op_id);
      if (wit != ctx.op_wall_nanos.end()) self_wall = wit->second;
      for (int child_id : node.child_ids) {
        auto cit = ctx.op_progress.find(child_id);
        if (cit != ctx.op_progress.end()) op.rows_in += cit->second.rows_out;
        auto cwit = ctx.op_wall_nanos.find(child_id);
        if (cwit != ctx.op_wall_nanos.end()) self_wall -= cwit->second;
      }
      op.cpu_nanos = std::max<int64_t>(0, self_wall);
      progress.operators.push_back(std::move(op));
    }
  }

  if (metrics_ != nullptr) {
    metrics_->GetCounter("sstreaming_epochs_total")->Increment();
    metrics_->GetCounter("sstreaming_rows_read_total")
        ->Increment(progress.rows_read);
    metrics_->GetCounter("sstreaming_rows_written_total")
        ->Increment(progress.rows_written);
    metrics_->GetHistogram("sstreaming_epoch_duration_nanos")
        ->Record(progress.duration_nanos);
    if (progress.watermark_micros != INT64_MIN) {
      metrics_->GetGauge("sstreaming_watermark_micros")
          ->Set(progress.watermark_micros);
      metrics_->GetGauge("sstreaming_watermark_lag_micros")
          ->Set(progress.watermark_lag_micros);
    }
    if (progress.trigger_drift_nanos > 0) {
      metrics_->GetHistogram("sstreaming_trigger_drift_nanos")
          ->Record(progress.trigger_drift_nanos);
    }
    for (const SourceProgress& sp : progress.sources) {
      metrics_->GetCounter("sstreaming_source_rows_total",
                           {{"source", sp.name}})
          ->Increment(sp.rows);
      metrics_->GetGauge("sstreaming_source_backlog_rows",
                         {{"source", sp.name}})
          ->Set(sp.backlog_rows);
      metrics_->GetGauge("sstreaming_source_backlog_age_micros",
                         {{"source", sp.name}})
          ->Set(sp.backlog_age_micros);
    }
    for (const OperatorProgress& op : progress.operators) {
      MetricLabels labels{{"op", op.name},
                          {"op_id", std::to_string(op.op_id)}};
      metrics_->GetCounter("sstreaming_operator_rows_in_total", labels)
          ->Increment(op.rows_in);
      metrics_->GetCounter("sstreaming_operator_rows_out_total", labels)
          ->Increment(op.rows_out);
      metrics_->GetCounter("sstreaming_operator_batches_total", labels)
          ->Increment(op.batches);
      metrics_->GetCounter("sstreaming_operator_cpu_nanos_total", labels)
          ->Increment(op.cpu_nanos);
      if (op.tasks != 0) {
        metrics_->GetCounter("sstreaming_operator_queue_wait_nanos_total",
                             labels)
            ->Increment(op.queue_wait_nanos);
      }
    }
    if (progress.sink_commit_nanos > 0) {
      metrics_->GetHistogram("sstreaming_sink_commit_nanos")
          ->Record(progress.sink_commit_nanos);
    }
    // Memory-accounting gauges: live state size per stateful operator,
    // totals plus the per-shard breakdown (summed over partitions).
    for (const auto& [op_id, size] : state_sizes) {
      MetricLabels labels{{"op_id", std::to_string(op_id)}};
      metrics_->GetGauge("sstreaming_state_rows", labels)->Set(size.rows);
      metrics_->GetGauge("sstreaming_state_bytes", labels)->Set(size.bytes);
    }
    for (const auto& [op_id, sizes] : shard_sizes) {
      for (size_t s = 0; s < sizes.size(); ++s) {
        MetricLabels labels{{"op_id", std::to_string(op_id)},
                            {"shard", std::to_string(s)}};
        metrics_->GetGauge("sstreaming_state_shard_rows", labels)
            ->Set(sizes[s].rows);
        metrics_->GetGauge("sstreaming_state_shard_bytes", labels)
            ->Set(sizes[s].bytes);
      }
    }
  }

  if (tracer_ != nullptr) {
    // The per-stage spans tile the epoch span: plan | execute | checkpoint |
    // commit | finalize, in timeline order (per-operator spans nest inside
    // "execute", recorded by PhysOp::Execute).
    if (plan_nanos > 0) {
      tracer_->AddSpan("plan", "stage", t0, plan_nanos, plan.epoch);
    }
    tracer_->AddSpan("execute", "stage", exec_t0, exec_total, plan.epoch);
    tracer_->AddSpan("checkpoint", "stage", ckpt_t0,
                     progress.checkpoint_nanos, plan.epoch);
    tracer_->AddSpan("commit", "stage", ckpt_end, progress.commit_nanos,
                     plan.epoch);
    if (progress.other_nanos > 0) {
      tracer_->AddSpan("finalize", "stage", commit_end, progress.other_nanos,
                       plan.epoch);
    }
    tracer_->AddSpan("epoch-" + std::to_string(plan.epoch), "epoch", t0,
                     progress.duration_nanos, plan.epoch);
  }

  plan_profile_.RecordEpoch(progress);
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    progress_.push_back(progress);
    if (progress_.size() > 256) {
      progress_.erase(progress_.begin(), progress_.begin() + 128);
    }
  }
  // Telemetry, not state: a failed history append must not fail the epoch
  // (the error is sticky in history_->status() and logged once).
  if (history_ != nullptr) {
    (void)history_->AppendProgress(options_.query_name, progress);
  }
  if (progress_callback_) progress_callback_(progress);
  return Status::OK();
}

Result<bool> StreamingQuery::ProcessOneTrigger() {
  Status prior = GetError();
  if (!prior.ok()) {
    return Status::FailedPrecondition(
        "query previously failed (" + prior.ToString() +
        "); fix the code and restart from the checkpoint (§7.1)");
  }
  int64_t now = MonotonicNanos();
  pending_trigger_wait_nanos_ =
      last_trigger_end_nanos_ != 0 ? now - last_trigger_end_nanos_ : 0;
  pending_epoch_start_nanos_ = now;
  SS_ASSIGN_OR_RETURN(EpochPlan plan, PlanNextEpoch());
  if (plan.epoch < 0) {
    // No new data: idle trigger, nothing to time.
    pending_epoch_start_nanos_ = 0;
    pending_trigger_wait_nanos_ = 0;
    pending_trigger_drift_nanos_ = 0;
    pending_backlog_age_.clear();
    last_trigger_end_nanos_ = MonotonicNanos();
    return false;
  }
  // Write the plan to the log *before* executing (§6.1 step 1).
  if (wal_ != nullptr) {
    SS_RETURN_IF_ERROR(wal_->WritePlan(plan));
  }
  pending_plan_nanos_ = MonotonicNanos() - now;
  Status s = RunPlannedEpoch(plan);
  last_trigger_end_nanos_ = MonotonicNanos();
  if (!s.ok()) {
    {
      std::lock_guard<std::mutex> lock(progress_mu_);
      error_ = s;
    }
    NotifyTerminated();
    return s;
  }
  return true;
}

Status StreamingQuery::ProcessAllAvailable() {
  while (true) {
    SS_ASSIGN_OR_RETURN(bool ran, ProcessOneTrigger());
    if (!ran) return Status::OK();
  }
}

Status StreamingQuery::StartBackground() {
  if (background_active_.load()) {
    return Status::FailedPrecondition("query already running");
  }
  stop_requested_.store(false);
  background_active_.store(true);
  background_ = std::thread([this] {
    // Scheduled fire time of the next trigger (0 = none): the interval is
    // anchored to the previous trigger's start, so sustained drift means
    // epochs are outrunning the interval, not just one slow sleep.
    int64_t scheduled_nanos = 0;
    while (!stop_requested_.load()) {
      int64_t t0 = MonotonicNanos();
      pending_trigger_drift_nanos_ =
          scheduled_nanos != 0 ? std::max<int64_t>(0, t0 - scheduled_nanos)
                               : 0;
      scheduled_nanos = options_.trigger.interval_micros > 0
                            ? t0 + options_.trigger.interval_micros * 1000
                            : 0;
      auto ran = ProcessOneTrigger();
      if (!ran.ok()) break;  // error_ is set; operator restarts the query
      if (options_.trigger.type == Trigger::Type::kOnce) break;
      int64_t elapsed_micros = (MonotonicNanos() - t0) / 1000;
      int64_t wait = options_.trigger.interval_micros - elapsed_micros;
      if (!*ran && wait < 1000) wait = 1000;  // idle backoff
      while (wait > 0 && !stop_requested_.load()) {
        int64_t chunk = std::min<int64_t>(wait, 5000);
        std::this_thread::sleep_for(std::chrono::microseconds(chunk));
        wait -= chunk;
      }
    }
    background_active_.store(false);
  });
  return Status::OK();
}

void StreamingQuery::Stop() {
  stop_requested_.store(true);
  if (background_.joinable()) background_.join();
  background_active_.store(false);
  NotifyTerminated();
}

void StreamingQuery::NotifyTerminated() {
  // Exactly once across Stop(), destruction and epoch failure.
  if (termination_notified_.exchange(true)) return;
  if (profiler_armed_) {
    Profiler::Instance().Disarm();
    profiler_armed_ = false;
  }
  if (history_ != nullptr) {
    // Post-mortem diagnosis: run the doctor over the progress ring and
    // append its report ahead of the terminated line, so `ssctl doctor`
    // and offline readers get the verdicts without recomputing them.
    DoctorInput input;
    input.query_name = options_.query_name;
    input.window = GetProgressSnapshot();
    input.scheduler_parallelism = scheduler_parallelism();
    input.num_state_shards = options_.num_state_shards;
    if (!input.window.empty()) {
      (void)history_->AppendDoctor(options_.query_name,
                                   Diagnose(input).ToJson());
    }
    (void)history_->AppendTerminated(options_.query_name, GetError(),
                                     last_epoch_, plan_profile_);
  }
  if (termination_callback_) termination_callback_(GetError(), last_epoch_);
}

Status StreamingQuery::Rollback(const std::string& checkpoint_dir,
                                int64_t epoch) {
  SS_ASSIGN_OR_RETURN(WriteAheadLog wal,
                      WriteAheadLog::Open(checkpoint_dir + "/wal"));
  SS_RETURN_IF_ERROR(wal.TruncateAfter(epoch));
  // State stores live under state/op<N>/p<M> (with shard subdirs s<K>);
  // truncate each.
  std::string state_root = checkpoint_dir + "/state";
  if (!FileExists(state_root)) return Status::OK();
  std::error_code ec;
  for (const auto& op_entry :
       std::filesystem::directory_iterator(state_root, ec)) {
    if (!op_entry.is_directory()) continue;
    for (const auto& part_entry :
         std::filesystem::directory_iterator(op_entry.path(), ec)) {
      if (!part_entry.is_directory()) continue;
      SS_RETURN_IF_ERROR(
          ShardedStateStore::TruncateAfter(part_entry.path().string(), epoch));
    }
  }
  return Status::OK();
}

}  // namespace sstreaming

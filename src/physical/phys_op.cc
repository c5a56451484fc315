#include "physical/phys_op.h"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <optional>
#include <string_view>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "storage/fs.h"

namespace sstreaming {

StateManager::StateManager(std::string dir, int64_t version,
                           ShardedStateStore::Options options)
    : dir_(std::move(dir)), version_(version), options_(options),
      durable_(!dir_.empty()) {
  if (!durable_) {
    auto tmp = MakeTempDir("sstreaming_ephemeral_state");
    SS_CHECK(tmp.ok()) << tmp.status().ToString();
    ephemeral_dir_ = *tmp;
  }
}

StateManager::~StateManager() {
  if (!durable_ && !ephemeral_dir_.empty()) {
    RemoveDirRecursive(ephemeral_dir_).ok();
  }
}

std::string StateManager::StoreDir(int op_id, int partition) const {
  const std::string& root = durable_ ? dir_ : ephemeral_dir_;
  return root + "/op" + std::to_string(op_id) + "/p" +
         std::to_string(partition);
}

template <typename Fn>
int64_t StateManager::SumShards(const Fn& fn) const {
  int64_t total = 0;
  for (const auto& [key, store] : stores_) {
    (void)key;
    for (int s = 0; s < store->num_shards(); ++s) total += fn(*store->shard(s));
  }
  return total;
}

Result<ShardedStateStore*> StateManager::GetStore(int op_id, int partition) {
  std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_pair(op_id, partition);
  auto it = stores_.find(key);
  if (it != stores_.end()) return it->second.get();
  int64_t restore = durable_ ? version_ : 0;
  SS_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedStateStore> store,
      ShardedStateStore::Open(StoreDir(op_id, partition), restore, options_));
  ShardedStateStore* raw = store.get();
  stores_[key] = std::move(store);
  return raw;
}

Status StateManager::PreopenExisting() {
  if (!durable_ || !FileExists(dir_)) return Status::OK();
  std::error_code ec;
  for (const auto& op_entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!op_entry.is_directory()) continue;
    // Stray names (`opfoo`, `p-1`) are not stores: opening one would
    // create an empty store whose version 0 drags the replay floor down.
    const std::string op_name = op_entry.path().filename().string();
    if (op_name.rfind("op", 0) != 0) continue;
    const std::optional<int64_t> op_id =
        ParseDecimal(std::string_view(op_name).substr(2), INT_MAX);
    if (!op_id.has_value()) continue;
    for (const auto& part_entry :
         std::filesystem::directory_iterator(op_entry.path(), ec)) {
      if (!part_entry.is_directory()) continue;
      const std::string part_name = part_entry.path().filename().string();
      if (part_name.rfind("p", 0) != 0) continue;
      const std::optional<int64_t> partition =
          ParseDecimal(std::string_view(part_name).substr(1), INT_MAX);
      if (!partition.has_value()) continue;
      SS_RETURN_IF_ERROR(GetStore(static_cast<int>(*op_id),
                                  static_cast<int>(*partition))
                             .status());
    }
  }
  return Status::OK();
}

void StateManager::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  commit_nanos_ = metrics != nullptr
                      ? metrics->GetHistogram("sstreaming_state_commit_nanos")
                      : nullptr;
}

Status StateManager::EndShardEpoch(StateStore* shard,
                                   std::optional<int64_t> commit_epoch) {
  if (!durable_) {
    // Nothing to checkpoint, but the shard still tracks this epoch's
    // changes; drop them or they accumulate for the life of the query.
    shard->ForgetChanges();
    return Status::OK();
  }
  if (!commit_epoch.has_value()) return Status::OK();
  const int64_t t0 = MonotonicNanos();
  SS_RETURN_IF_ERROR(shard->Commit(*commit_epoch));
  if (commit_nanos_ != nullptr) commit_nanos_->Record(MonotonicNanos() - t0);
  return Status::OK();
}

Status StateManager::CommitAll(int64_t epoch) {
  // Ephemeral stores are only opened by fold tasks, which end their epochs.
  if (!durable_) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  // Fold tasks have checkpointed every shard they finished; this only
  // writes the shards no task reached.
  for (auto& [key, store] : stores_) {
    (void)key;
    SS_RETURN_IF_ERROR(store->Commit(epoch));
  }
  if (metrics_ != nullptr) {
    const int64_t bytes =
        SumShards([](const StateStore& s) { return s.bytes_written(); });
    const int64_t entries =
        SumShards([](const StateStore& s) { return s.size(); });
    metrics_->GetCounter("sstreaming_state_checkpoint_bytes_total")
        ->Increment(bytes - reported_bytes_);
    reported_bytes_ = bytes;
    metrics_->GetCounter("sstreaming_state_commits_total")->Increment();
    metrics_->GetGauge("sstreaming_state_entries")->Set(entries);
  }
  return Status::OK();
}

Status StateManager::PurgeBefore(int64_t keep) {
  if (!durable_) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, store] : stores_) {
    SS_RETURN_IF_ERROR(ShardedStateStore::PurgeBefore(
        StoreDir(key.first, key.second), keep));
  }
  return Status::OK();
}

int64_t StateManager::MinLoadedVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t min_version = version_;
  for (const auto& [key, store] : stores_) {
    (void)key;
    if (store->loaded_version() < min_version) {
      min_version = store->loaded_version();
    }
  }
  return min_version;
}

std::map<int, std::vector<StateManager::OpStateSize>>
StateManager::PerOpShardSizes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, std::vector<OpStateSize>> out;
  for (const auto& [key, store] : stores_) {
    std::vector<OpStateSize>& sizes = out[key.first];
    const size_t n = static_cast<size_t>(store->num_shards());
    if (sizes.size() < n) sizes.resize(n);
    for (size_t s = 0; s < n; ++s) {
      const StateStore& shard = *store->shard(static_cast<int>(s));
      sizes[s].rows += shard.size();
      sizes[s].bytes += shard.ApproxBytes();
    }
  }
  return out;
}

int64_t StateManager::TotalEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SumShards([](const StateStore& s) { return s.size(); });
}

int64_t StateManager::TotalTrackedChanges() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SumShards([](const StateStore& s) { return s.tracked_changes(); });
}

int64_t StateManager::TotalBytesWritten() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SumShards([](const StateStore& s) { return s.bytes_written(); });
}

namespace {
void TreeStringRec(const PhysOp& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += op.name();
  *out += "\n";
  for (const PhysOpPtr& child : op.children()) {
    TreeStringRec(*child, depth + 1, out);
  }
}
}  // namespace

std::string PhysOp::TreeString() const {
  std::string out;
  TreeStringRec(*this, 0, &out);
  return out;
}

void PhysOp::CollectProfileNodes(std::vector<OpProfileNode>* out) const {
  OpProfileNode node;
  node.op_id = op_id_;
  node.name = name();
  node.is_source = is_source_scan();
  node.child_ids.reserve(children_.size());
  for (const PhysOpPtr& child : children_) {
    node.child_ids.push_back(child->op_id());
  }
  out->push_back(std::move(node));
}

Status ExecContext::RunStage(int op_id, const std::string& stage_name,
                             std::vector<std::function<Status()>> tasks) {
  StageWait wait;
  Status s = scheduler->RunStage(stage_name, std::move(tasks), &wait);
  // Merge even on failure: a stage that died after queueing is still
  // evidence for the doctor.
  std::lock_guard<std::mutex> lock(metrics_mu);
  OperatorProgress& op = op_progress[op_id];
  op.tasks += wait.tasks;
  op.stage_nanos += wait.stage_wall_nanos;
  op.queue_wait_nanos += wait.queue_wait_nanos;
  op.task_run_nanos += wait.run_nanos;
  op.max_task_run_nanos = std::max(op.max_task_run_nanos, wait.max_run_nanos);
  return s;
}

uint32_t PhysOp::ProfileLabel() const {
  if (!Profiler::active()) return 0;
  uint32_t label = profile_label_.load(std::memory_order_relaxed);
  if (label == 0) {
    label = Profiler::Instance().Intern(name());
    profile_label_.store(label, std::memory_order_relaxed);
  }
  return label;
}

void PhysOp::FinishRun(ExecContext* ctx, int64_t t0, int64_t rows,
                       int64_t batches, int64_t bytes) const {
  const int64_t dt = MonotonicNanos() - t0;
  {
    std::lock_guard<std::mutex> lock(ctx->metrics_mu);
    ctx->op_wall_nanos[op_id_] += dt;
    OperatorProgress& op = ctx->op_progress[op_id_];
    op.batches += batches;
    op.rows_out += rows;
    op.output_bytes += bytes;
  }
  if (ctx->tracer != nullptr) {
    ctx->tracer->AddSpan(name(), "operator", t0, dt, ctx->epoch);
  }
}

Result<std::vector<RecordBatchPtr>> PhysOp::Execute(ExecContext* ctx) {
  ProfileOpScope prof(ProfileLabel(), op_id_);
  const int64_t t0 = MonotonicNanos();
  Result<std::vector<RecordBatchPtr>> result = ExecuteImpl(ctx);
  int64_t rows = 0;
  int64_t batches = 0;
  int64_t bytes = 0;
  if (result.ok()) {
    batches = static_cast<int64_t>(result->size());
    for (const RecordBatchPtr& batch : *result) {
      rows += batch->num_rows();
      bytes += batch->ApproxBytes();
    }
  }
  FinishRun(ctx, t0, rows, batches, bytes);
  return result;
}

}  // namespace sstreaming

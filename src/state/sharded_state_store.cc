#include "state/sharded_state_store.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "analysis/diagnostics.h"
#include "common/logging.h"
#include "storage/fs.h"

namespace sstreaming {

namespace {

constexpr char kShardCountFile[] = "SHARDS";

std::string ShardDir(const std::string& dir, int shard) {
  return dir + "/s" + std::to_string(shard);
}

/// Shard subdirectories present under `dir`, as shard indices, sorted.
std::vector<int> ListShardDirs(const std::string& dir) {
  std::vector<int> shards;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) continue;
    std::string name = entry.path().filename().string();
    if (name.size() < 2 || name[0] != 's') continue;
    char* end = nullptr;
    long v = std::strtol(name.c_str() + 1, &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) continue;
    shards.push_back(static_cast<int>(v));
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

}  // namespace

Result<std::unique_ptr<ShardedStateStore>> ShardedStateStore::Open(
    const std::string& dir, int64_t version, Options options) {
  SS_RETURN_IF_ERROR(EnsureDir(dir));
  int num_shards = std::max(1, options.num_shards);
  const std::string meta_path = dir + "/" + kShardCountFile;
  if (FileExists(meta_path)) {
    SS_ASSIGN_OR_RETURN(std::string meta, ReadFile(meta_path));
    int on_disk = std::atoi(meta.c_str());
    if (on_disk < 1) {
      return Status::IOError("corrupt shard-count file: " + meta_path);
    }
    if (on_disk != num_shards) {
      // Pre-recovery, the plan-manifest gate (analysis/checkpoint_compat.h)
      // catches this as SS3004; this store-level check is defense in depth
      // for checkpoints that predate manifests or were opened directly.
      if (!options.allow_shard_count_mismatch) {
        return Status::FailedPrecondition(
            DiagCodeString(DiagCode::kCheckpointShardCountChanged) +
            ": state at " + dir + " was created with " +
            std::to_string(on_disk) + " shards but " +
            std::to_string(num_shards) +
            " were requested; resharding is not supported (set "
            "allow_checkpoint_incompatibility to adopt the on-disk count)");
      }
      SS_LOG(Warn) << "state at " << dir << " was created with "
                      << on_disk << " shards; ignoring requested "
                      << num_shards << " (resharding is not supported)";
    }
    num_shards = on_disk;
  } else {
    SS_RETURN_IF_ERROR(WriteFileAtomic(meta_path,
                                       std::to_string(num_shards) + "\n"));
  }
  std::vector<std::unique_ptr<LocalStateShard>> shards;
  shards.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    SS_ASSIGN_OR_RETURN(std::unique_ptr<LocalStateShard> shard,
                        LocalStateShard::Open(ShardDir(dir, s), version,
                                              options.shard_options));
    shards.push_back(std::move(shard));
  }
  return std::unique_ptr<ShardedStateStore>(
      new ShardedStateStore(std::move(shards)));
}

int64_t ShardedStateStore::loaded_version() const {
  int64_t min_version = INT64_MAX;
  for (const auto& shard : shards_) {
    min_version = std::min(min_version, shard->restored_version());
  }
  return shards_.empty() ? 0 : min_version;
}

Status ShardedStateStore::Commit(int64_t version) {
  // Shard errors propagate unchanged: wrapping would strip the failpoint
  // marker crash-injection tests use to recognize injected faults. A commit
  // that fails midway leaves earlier shards checkpointed at `version` —
  // safe, because recovery restores from the WAL-committed epoch and newer
  // shard files are ignored (then overwritten on replay). Shards already at
  // `version` (their fold task checkpointed them) are skipped.
  for (const auto& shard : shards_) {
    if (shard->restored_version() >= version) continue;
    SS_RETURN_IF_ERROR(shard->Snapshot(version));
  }
  return Status::OK();
}

int64_t ShardedStateStore::size() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->rows();
  return total;
}

int64_t ShardedStateStore::ApproxBytes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->ApproxBytes();
  return total;
}

int64_t ShardedStateStore::bytes_written() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->bytes_written();
  return total;
}

int64_t ShardedStateStore::tracked_changes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->tracked_changes();
  return total;
}

std::vector<ShardedStateStore::ShardSize> ShardedStateStore::PerShardSizes()
    const {
  std::vector<ShardSize> sizes(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    sizes[s].rows = shards_[s]->rows();
    sizes[s].bytes = shards_[s]->ApproxBytes();
  }
  return sizes;
}

Status ShardedStateStore::TruncateAfter(const std::string& dir,
                                        int64_t version) {
  for (int s : ListShardDirs(dir)) {
    SS_RETURN_IF_ERROR(StateStore::TruncateAfter(ShardDir(dir, s), version));
  }
  return Status::OK();
}

Status ShardedStateStore::PurgeBefore(const std::string& dir, int64_t keep) {
  for (int s : ListShardDirs(dir)) {
    SS_RETURN_IF_ERROR(StateStore::PurgeBefore(ShardDir(dir, s), keep));
  }
  return Status::OK();
}

}  // namespace sstreaming

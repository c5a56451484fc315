#include "state/sharded_state_store.h"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <optional>
#include <string_view>

#include "analysis/diagnostics.h"
#include "common/logging.h"
#include "storage/fs.h"
#include "testing/failpoints.h"

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
    const std::string name = entry.path().filename().string();
    if (name.empty() || name[0] != 's') continue;
    const std::optional<int64_t> shard =
        ParseDecimal(std::string_view(name).substr(1), INT_MAX);
    if (!shard.has_value()) continue;
    shards.push_back(static_cast<int>(*shard));
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

}  // namespace

Result<int> ShardedStateStore::ReadShardCount(const std::string& dir) {
  const std::string meta_path = dir + "/" + kShardCountFile;
  SS_ASSIGN_OR_RETURN(std::string meta, ReadFile(meta_path));
  std::string_view text(meta);
  if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
  const std::optional<int64_t> count = ParseDecimal(text, INT_MAX);
  if (!count.has_value() || *count < 1) {
    return Status::IOError("corrupt shard-count file: " + meta_path);
  }
  return static_cast<int>(*count);
}

Result<std::unique_ptr<ShardedStateStore>> ShardedStateStore::Open(
    const std::string& dir, int64_t version, Options options) {
  SS_RETURN_IF_ERROR(EnsureDir(dir));
  int num_shards = std::max(1, options.num_shards);
  const std::string meta_path = dir + "/" + kShardCountFile;
  if (FileExists(meta_path)) {
    SS_ASSIGN_OR_RETURN(const int on_disk, ReadShardCount(dir));
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
  std::vector<std::unique_ptr<StateStore>> shards;
  shards.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    SS_FAILPOINT("state.shard.restore");
    SS_ASSIGN_OR_RETURN(std::unique_ptr<StateStore> shard,
                        StateStore::Open(ShardDir(dir, s), version,
                                         options.shard_options));
    shards.push_back(std::move(shard));
  }
  return std::unique_ptr<ShardedStateStore>(
      new ShardedStateStore(std::move(shards)));
}

int64_t ShardedStateStore::loaded_version() const {
  int64_t min_version = INT64_MAX;
  for (const auto& shard : shards_) {
    min_version = std::min(min_version, shard->loaded_version());
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
    if (shard->loaded_version() >= version) continue;
    SS_RETURN_IF_ERROR(shard->Commit(version));
  }
  return Status::OK();
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

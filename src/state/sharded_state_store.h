#ifndef SSTREAMING_STATE_SHARDED_STATE_STORE_H_
#define SSTREAMING_STATE_SHARDED_STATE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "state/state_store.h"

namespace sstreaming {

/// One stateful operator-partition's keyed state, hash-partitioned into N
/// independent shards (docs/STATE_SHARDING.md). Each shard is a plain
/// StateStore with its own directory, checkpoint files and memory
/// accounting: the operators reach it through shard() and call its verbs
/// directly, so a stateful stage can fold shards as parallel scheduler
/// tasks and checkpoint/restore them independently. This class only hides
/// the on-disk layout.
///
/// Layout under `dir`:
///   SHARDS        - decimal shard count, written once at creation
///   s<K>/         - shard K's StateStore (K in [0, N))
///
/// The shard count is sticky: reopening adopts the on-disk count even if the
/// query now asks for a different one, because durable keys are already
/// routed by `hash % N`. (Operator output is shard-count-invariant, so this
/// only pins the layout, not the results.)
///
/// Routing: StateStore::HashKey (FNV-1a, fixed across platforms and
/// std::hash implementations) of the encoded key, mod N (ShardOf). Callers
/// route each key themselves and use shard() directly; the stateful
/// operators hand each shard to one task at a time — shards are
/// single-writer and unsynchronized.
class ShardedStateStore {
 public:
  struct Options {
    Options() {}
    /// Number of independent key-hash shards (>= 1).
    int num_shards = 4;
    /// A request that disagrees with the sticky on-disk SHARDS count is an
    /// SS3004 error by default (keys are already routed hash % N on disk).
    /// Setting this adopts the on-disk count with a warning instead — the
    /// QueryOptions::allow_checkpoint_incompatibility migration override
    /// plumbs through here.
    bool allow_shard_count_mismatch = false;
    StateStore::Options shard_options;
  };

  /// Opens (creating if needed) the shard group and restores every shard to
  /// the newest durable version <= `version`. The `state.shard.restore`
  /// seam fires before each shard's StateStore::Open. A corrupt SHARDS file
  /// is an IOError (ReadShardCount).
  static Result<std::unique_ptr<ShardedStateStore>> Open(
      const std::string& dir, int64_t version, Options options = Options());

  /// The count in `dir`'s SHARDS file; an IOError when the file does not
  /// hold a positive decimal count (one trailing newline allowed).
  static Result<int> ReadShardCount(const std::string& dir);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The shard of a key with hash `hash` (StateStore::HashKey) among
  /// `num_shards`: the one routing rule of the durable layout.
  static int ShardOf(uint64_t hash, int num_shards) {
    return static_cast<int>(hash % static_cast<uint64_t>(num_shards));
  }
  StateStore* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  const StateStore* shard(int i) const {
    return shards_[static_cast<size_t>(i)].get();
  }

  /// Oldest version any shard restored (shards checkpoint independently; a
  /// crash between shard snapshots is healed by replaying from the min).
  int64_t loaded_version() const;

  /// Commits every shard not yet at `version`, in shard order.
  Status Commit(int64_t version);

  /// Removes durable versions > `version` in every shard under `dir`
  /// (rollback).
  static Status TruncateAfter(const std::string& dir, int64_t version);

  /// Drops durable files not needed to restore versions >= `keep`, per
  /// shard.
  static Status PurgeBefore(const std::string& dir, int64_t keep);

 private:
  explicit ShardedStateStore(std::vector<std::unique_ptr<StateStore>> shards)
      : shards_(std::move(shards)) {}

  std::vector<std::unique_ptr<StateStore>> shards_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_STATE_SHARDED_STATE_STORE_H_

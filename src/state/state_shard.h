#ifndef SSTREAMING_STATE_STATE_SHARD_H_
#define SSTREAMING_STATE_STATE_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "state/state_store.h"

namespace sstreaming {

/// The narrow per-shard state protocol: everything a stateful operator (or
/// the checkpoint machinery) may ask of one shard of keyed state. The split
/// mirrors faabric's StateServer verbs — pull (Get/ForEach), push
/// (Put/Append/Remove/FindOrCreate/InsertIfAbsent), and snapshot/restore —
/// so a shard's backing can later move out of process without touching
/// the operators.
///
/// A shard is single-writer: within one epoch exactly one scheduler task
/// touches a given shard, so implementations need no internal locking.
class StateShardProtocol {
 public:
  virtual ~StateShardProtocol() = default;

  // -- pull --
  virtual std::optional<std::string> Get(const std::string& key) const = 0;
  /// Visits every live entry. Do not mutate during iteration.
  virtual void ForEach(
      const std::function<void(const std::string& key,
                               const std::string& value)>& fn) const = 0;

  // -- push --
  virtual void Put(const std::string& key, std::string value) = 0;
  /// Appends bytes to the value under `key` (creates the entry if absent).
  /// Returns a Status — unlike Put/Remove this verb ships deltas and is the
  /// one most likely to fail partially once shards go remote.
  virtual Status Append(const std::string& key, const std::string& tail) = 0;
  virtual void Remove(const std::string& key) = 0;
  /// Find-or-create for in-place update (StateStore::FindOrCreate): one
  /// probe, then the caller may rewrite the value through the returned
  /// slot until the next Snapshot; the snapshot records the final bytes.
  /// `hash` is the key's StableHashKey — the routing hash, which is also
  /// the table hash.
  virtual StateStore::Slot FindOrCreate(std::string_view key,
                                        uint64_t hash) = 0;
  /// Find-or-insert (StateStore::InsertIfAbsent): true when `key` was not
  /// live and now is, with an empty value; a live key stays untouched.
  virtual bool InsertIfAbsent(std::string_view key, uint64_t hash) = 0;

  // -- cache hints --
  /// StateStore::PrefetchSlot / PrefetchEntry for a key hash that the
  /// caller will probe soon; no effect on contents.
  virtual void PrefetchSlot(uint64_t hash) const = 0;
  virtual void PrefetchEntry(uint64_t hash) const = 0;

  // -- snapshot / restore --
  /// Durably checkpoints all changes since the last snapshot as `version`.
  virtual Status Snapshot(int64_t version) = 0;
  /// Ends an epoch of non-durable state: drops the change tracking without
  /// writing anything.
  virtual void ForgetChanges() = 0;
  /// The newest durable version the shard's contents match: the version it
  /// restored when opened, then each version it snapshots.
  virtual int64_t restored_version() const = 0;

  // -- accounting --
  virtual int64_t rows() const = 0;
  virtual int64_t ApproxBytes() const = 0;
  virtual int64_t bytes_written() const = 0;
};

/// In-process shard backed by a versioned StateStore in its own directory.
/// Carries the per-shard chaos seams: `state.shard.restore` fires before the
/// backing store is opened, `state.shard.checkpoint` before each durable
/// snapshot, and `state.shard.append` before each append — so fault
/// injection can strike one shard of a group independently.
class LocalStateShard final : public StateShardProtocol {
 public:
  static Result<std::unique_ptr<LocalStateShard>> Open(
      const std::string& dir, int64_t version,
      StateStore::Options options = StateStore::Options());

  std::optional<std::string> Get(const std::string& key) const override {
    return store_->Get(key);
  }
  void ForEach(const std::function<void(const std::string&,
                                        const std::string&)>& fn)
      const override {
    store_->ForEach(fn);
  }

  void Put(const std::string& key, std::string value) override {
    store_->Put(key, std::move(value));
  }
  Status Append(const std::string& key, const std::string& tail) override;
  void Remove(const std::string& key) override { store_->Remove(key); }
  StateStore::Slot FindOrCreate(std::string_view key,
                                uint64_t hash) override {
    return store_->FindOrCreate(key, hash);
  }
  bool InsertIfAbsent(std::string_view key, uint64_t hash) override {
    return store_->InsertIfAbsent(key, hash);
  }
  void PrefetchSlot(uint64_t hash) const override {
    store_->PrefetchSlot(hash);
  }
  void PrefetchEntry(uint64_t hash) const override {
    store_->PrefetchEntry(hash);
  }

  Status Snapshot(int64_t version) override;
  int64_t restored_version() const override {
    return store_->loaded_version();
  }
  void ForgetChanges() override { store_->ForgetChanges(); }
  int64_t tracked_changes() const { return store_->tracked_changes(); }

  int64_t rows() const override { return store_->size(); }
  int64_t ApproxBytes() const override { return store_->ApproxBytes(); }
  int64_t bytes_written() const override { return store_->bytes_written(); }

  /// Delta-vs-snapshot commit counters of the backing store (metrics).
  int64_t delta_commits() const { return store_->delta_commits(); }
  int64_t snapshot_commits() const { return store_->snapshot_commits(); }

 private:
  explicit LocalStateShard(std::unique_ptr<StateStore> store)
      : store_(std::move(store)) {}

  std::unique_ptr<StateStore> store_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_STATE_STATE_SHARD_H_

#ifndef SSTREAMING_STATE_STATE_STORE_H_
#define SSTREAMING_STATE_STATE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/key_index.h"
#include "common/status.h"
#include "types/value.h"

namespace sstreaming {

/// A versioned key-value store holding one stateful operator's state for one
/// partition (paper §6.1). The working copy is an in-memory flat table;
/// Commit(version) durably records the changes made since the previous commit
/// as an incremental delta file, writing a full snapshot every
/// `snapshot_interval` commits so recovery replays a bounded number of
/// deltas. Checkpoints are epoch-tagged: Open(dir, v) reconstructs the newest
/// durable version <= v, and reports which version it actually loaded so the
/// engine can replay the missing epochs from the write-ahead log (checkpoints
/// may legally lag the sink, §3 "written asynchronously ... may be behind").
///
/// Change tracking: state is held once. Each working-copy entry carries its
/// own dirty and removed marks, and a list of the dirty entries (in
/// first-change order) replaces a second map of pending changes. Put, Append,
/// Remove and FindOrCreate are one hash probe each; Remove leaves a
/// tombstone (an entry marked removed) so the next commit can record the
/// deletion. Commit writes the delta by walking the dirty list, then clears
/// the marks and erases the tombstones. State that is never checkpointed
/// (non-durable queries, batch runs) must call ForgetChanges() at each epoch
/// end instead, or the dirty list and the tombstones grow for the life of
/// the store.
///
/// Table layout (docs/DESIGN.md §9): entries live in a slab of fixed-size
/// chunks and never move, so Slot pointers stay valid while the table
/// grows. The engine's one key index (KeyIndex) maps keys to slab
/// positions; a probe touches an entry only on a hash-tag match. The table
/// hash is HashKey, so a caller that routed the key already can pass its
/// hash to the hashed verbs. Each entry also carries a 32-bit mark that the
/// store never reads: zero when the entry is inserted, then the caller's
/// (the keyed operators keep their per-epoch touched ordinal there).
/// ForEach and snapshots visit entries in slab order.
///
/// Layout under `dir`:
///   <version>.snapshot  - full contents at `version`
///   <version>.delta     - changes from the previous committed version, in
///                         first-change order
class StateStore {
 public:
  struct Options {
    Options() {}
    /// Write a full snapshot every N commits (1 = always snapshot).
    int snapshot_interval = 10;
  };

  /// Opens the store and restores the newest durable version <= `version`.
  /// `version` 0 (or a directory with no checkpoints) yields an empty store.
  static Result<std::unique_ptr<StateStore>> Open(const std::string& dir,
                                                  int64_t version,
                                                  Options options = Options());

  /// The version actually restored (<= the requested version).
  int64_t loaded_version() const { return loaded_version_; }

  /// Stable 64-bit FNV-1a of an encoded key: the table hash, and the
  /// routing hash of ShardedStateStore (fixed across platforms).
  static uint64_t HashKey(std::string_view key) {
    return HashBytes(key.data(), key.size(), 0);
  }

  /// The value under `key`, read in place, or null when the key is not
  /// live. The pointer stays valid until that key's Remove, Commit or
  /// ForgetChanges.
  const std::string* Get(const std::string& key) const;
  void Put(const std::string& key, std::string value);
  /// Appends `tail` to the value under `key` (creating the entry when
  /// absent) without copying the existing value out. The next commit
  /// records the full appended value, so durability is unchanged. The
  /// stream-stream join appends each new row's record this way, one call
  /// per row. Fails only at the `state.shard.append` seam, before any
  /// change.
  Status Append(const std::string& key, const std::string& tail);
  void Remove(const std::string& key);
  int64_t size() const { return live_; }

  /// An entry handed out for in-place update by FindOrCreate.
  struct Slot {
    const std::string* key;  // the store's copy of the key
    std::string* value;      // the stored value, writable in place
    uint32_t* mark;          // the entry's caller-owned mark
    bool created;            // the key was absent; *value is empty
  };
  /// Finds `key`'s entry, creating an empty one when absent, and marks it
  /// changed: the next commit records whatever the caller leaves in
  /// *value. One probe. Both pointers stay valid until the next Commit or
  /// ForgetChanges; do not write through them after removing the key.
  Slot FindOrCreate(const std::string& key) {
    return FindOrCreate(key, HashKey(key));
  }
  /// FindOrCreate with the key's HashKey already computed.
  Slot FindOrCreate(std::string_view key, uint64_t hash);

  /// Inserts `key` with an empty value when it is not live and returns
  /// true; a live key is left as it is — clean when it was — and false
  /// returned. One probe; `hash` is the key's HashKey.
  bool InsertIfAbsent(std::string_view key, uint64_t hash);

  /// Cache hints, a fixed distance ahead of a probe for `hash`: the index
  /// word at its home, then (once that word is cached) the entry it names.
  void PrefetchSlot(uint64_t hash) const { index_.PrefetchHome(hash); }
  void PrefetchEntry(uint64_t hash) const {
    index_.PrefetchMatch(hash, [this](uint32_t pos) {
      const char* e = reinterpret_cast<const char*>(&At(pos));
      __builtin_prefetch(e);
      __builtin_prefetch(e + sizeof(Entry) - 1);
    });
  }

  /// Approximate in-memory footprint of the working copy: key and value
  /// payloads plus a fixed per-entry overhead, over live entries. Exact
  /// even while FindOrCreate callers rewrite values in place: unchanged
  /// entries are charged incrementally and changed ones are summed on
  /// demand, so a call costs O(entries changed since the last commit) —
  /// nothing right after a commit, where the epoch loop reads it.
  int64_t ApproxBytes() const;

  /// Accounting charge per entry beyond the payload (slab entry, index
  /// word, string headers). A rough constant — the gauges are approximations.
  static constexpr int64_t kEntryOverheadBytes = 64;

  /// Entries changed since the last commit (or ForgetChanges), removed
  /// ones included.
  int64_t tracked_changes() const {
    return static_cast<int64_t>(dirty_.size());
  }

  /// Visits every live entry in slab order, with its mark. The visitor may
  /// Remove the visited key or rewrite its value through FindOrCreate, in
  /// place: entries never move, and a removed entry stays a tombstone until
  /// the next commit. It must not create or remove any other key.
  void ForEach(const std::function<void(const std::string& key,
                                        const std::string& value,
                                        uint32_t mark)>& fn);

  /// Durably commits all changes since the last commit as `version`.
  /// Versions must be strictly increasing across commits. A failed commit
  /// keeps its changes (and the snapshot schedule) for the retry. The
  /// `state.shard.checkpoint` seam fires first, so fault injection can
  /// strike one shard of a ShardedStateStore independently.
  Status Commit(int64_t version);

  /// Drops the change tracking (dirty marks, tombstones) without writing
  /// anything; the live contents are unchanged. Commit does this after its
  /// write; non-durable state calls it at each epoch end instead.
  void ForgetChanges();

  /// Removes durable versions > `version` (manual rollback support).
  static Status TruncateAfter(const std::string& dir, int64_t version);

  /// Removes durable files no longer needed to restore versions >= `keep`.
  static Status PurgeBefore(const std::string& dir, int64_t keep);

  /// Total bytes written to durable storage by this instance (metric).
  int64_t bytes_written() const { return bytes_written_; }
  /// Number of delta (vs snapshot) commits (metric).
  int64_t delta_commits() const { return delta_commits_; }
  int64_t snapshot_commits() const { return snapshot_commits_; }

 private:
  StateStore(std::string dir, Options options)
      : dir_(std::move(dir)), options_(options) {}

  // The probe reads only `key`, in the first 40 bytes.
  struct Entry {
    uint32_t mark = 0;     // Slot::mark; zeroed on insert
    bool dirty = false;    // listed in dirty_ (changed since the last commit)
    // Not live: a tombstone (dirty, erased by the next commit) or a free
    // slab slot (clean, on free_).
    bool removed = true;
    std::string key;
    std::string value;
  };
  // The slab: fixed chunks of kChunk entries, so a store wastes less than
  // one chunk however large it grows.
  static constexpr uint32_t kChunkBits = 6;
  static constexpr uint32_t kChunk = 1u << kChunkBits;
  Entry& At(uint32_t pos) const {
    return chunks_[pos >> kChunkBits][pos & (kChunk - 1)];
  }

  /// The slab position of `key`, or KeyIndex::kAbsent; `*slot` becomes its
  /// index slot, or the empty slot where it would go.
  uint32_t Find(std::string_view key, uint64_t hash, size_t* slot) const {
    return index_.Find(
        hash, [this, key](uint32_t pos) { return At(pos).key == key; }, slot);
  }
  /// The indexed entry for `key`, or null.
  Entry* Find(std::string_view key, uint64_t hash) const {
    size_t slot;
    const uint32_t pos = Find(key, hash, &slot);
    return pos == KeyIndex::kAbsent ? nullptr : &At(pos);
  }
  /// The indexed entry for `key`; when absent, a new one: clean, not live
  /// (removed), empty, with a zero mark.
  Entry& FindOrInsert(std::string_view key, uint64_t hash);
  /// Unindexes `entry` (backward shift) and returns it to the free list.
  void Erase(Entry* entry);

  Status LoadUpTo(int64_t version);
  /// Applies one state file's records to the table, untracked.
  Status ApplyLog(const std::string& data);

  /// Lists `entry` in dirty_ unless it already is, moving its charge out of
  /// clean_bytes_.
  void MarkDirty(Entry& entry);

  static int64_t Charge(const Entry& entry) {
    return static_cast<int64_t>(entry.key.size() + entry.value.size()) +
           kEntryOverheadBytes;
  }

  std::string dir_;
  Options options_;
  int64_t loaded_version_ = 0;
  int64_t live_ = 0;
  // Charge of the live entries that are not dirty; ApproxBytes adds the
  // dirty live ones.
  int64_t clean_bytes_ = 0;
  int64_t last_commit_version_ = 0;
  int commits_since_snapshot_ = 0;
  int64_t bytes_written_ = 0;
  int64_t delta_commits_ = 0;
  int64_t snapshot_commits_ = 0;

  // Working copy, tombstones included (see the class comment).
  KeyIndex index_;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  uint32_t slab_size_ = 0;     // positions handed out so far
  std::vector<uint32_t> free_;  // erased positions, reused first
  // Entries changed since the last commit, in first-change order.
  std::vector<Entry*> dirty_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_STATE_STATE_STORE_H_

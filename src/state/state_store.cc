#include "state/state_store.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "storage/fs.h"
#include "testing/failpoints.h"

namespace sstreaming {

namespace {

constexpr char kOpPut = 1;
constexpr char kOpRemove = 2;

void AppendPut(std::string* out, const std::string& key,
               const std::string& value) {
  out->push_back(kOpPut);
  PutFixed64(out, key.size());
  out->append(key);
  PutFixed64(out, value.size());
  out->append(value);
}

void AppendRemove(std::string* out, const std::string& key) {
  out->push_back(kOpRemove);
  PutFixed64(out, key.size());
  out->append(key);
}

struct VersionFile {
  int64_t version;
  bool is_snapshot;
};

Result<std::vector<VersionFile>> ListVersionFiles(const std::string& dir) {
  SS_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  std::vector<VersionFile> files;
  for (const std::string& name : names) {
    bool snapshot = name.size() > 9 &&
                    name.compare(name.size() - 9, 9, ".snapshot") == 0;
    bool delta =
        name.size() > 6 && name.compare(name.size() - 6, 6, ".delta") == 0;
    if (!snapshot && !delta) continue;
    const std::optional<int64_t> v =
        ParseDecimal(std::string_view(name).substr(0, name.rfind('.')));
    if (!v.has_value()) continue;
    files.push_back(VersionFile{*v, snapshot});
  }
  std::sort(files.begin(), files.end(),
            [](const VersionFile& a, const VersionFile& b) {
              if (a.version != b.version) return a.version < b.version;
              return a.is_snapshot < b.is_snapshot;
            });
  return files;
}

std::string VersionPath(const std::string& dir, int64_t version,
                        bool snapshot) {
  return dir + "/" + std::to_string(version) +
         (snapshot ? ".snapshot" : ".delta");
}

}  // namespace

Result<std::unique_ptr<StateStore>> StateStore::Open(const std::string& dir,
                                                     int64_t version,
                                                     Options options) {
  SS_RETURN_IF_ERROR(EnsureDir(dir));
  std::unique_ptr<StateStore> store(new StateStore(dir, options));
  if (version > 0) {
    SS_RETURN_IF_ERROR(store->LoadUpTo(version));
    // ApplyLog fills the table untracked; charge the restored contents once
    // here so the incremental accounting starts from truth.
    for (uint32_t p = 0; p < store->slab_size_; ++p) {
      const Entry& e = store->At(p);
      if (!e.removed) store->clean_bytes_ += Charge(e);
    }
    store->live_ = static_cast<int64_t>(store->index_.size());
  }
  store->last_commit_version_ = store->loaded_version_;
  return store;
}

Status StateStore::LoadUpTo(int64_t version) {
  SS_FAILPOINT("state.load");
  SS_ASSIGN_OR_RETURN(std::vector<VersionFile> files, ListVersionFiles(dir_));
  // Newest snapshot at or below `version`.
  int64_t base = 0;
  for (const VersionFile& f : files) {
    if (f.is_snapshot && f.version <= version) base = f.version;
  }
  if (base > 0) {
    SS_ASSIGN_OR_RETURN(std::string data,
                        ReadFile(VersionPath(dir_, base, true)));
    SS_RETURN_IF_ERROR(ApplyLog(data));
    loaded_version_ = base;
  }
  // Apply deltas in (base, version] in order.
  for (const VersionFile& f : files) {
    if (f.is_snapshot || f.version <= base || f.version > version) continue;
    SS_ASSIGN_OR_RETURN(std::string data,
                        ReadFile(VersionPath(dir_, f.version, false)));
    SS_RETURN_IF_ERROR(ApplyLog(data));
    loaded_version_ = f.version;
  }
  return Status::OK();
}

Status StateStore::ApplyLog(const std::string& data) {
  size_t pos = 0;
  while (pos < data.size()) {
    const char op = data[pos++];
    uint64_t klen;
    if (!GetFixed64(data, &pos, &klen) || klen > data.size() - pos) {
      return Status::IOError("corrupt state file (key)");
    }
    const std::string_view key(data.data() + pos, klen);
    pos += klen;
    const uint64_t hash = HashKey(key);
    if (op == kOpPut) {
      uint64_t vlen;
      if (!GetFixed64(data, &pos, &vlen) || vlen > data.size() - pos) {
        return Status::IOError("corrupt state file (value)");
      }
      Entry& e = FindOrInsert(key, hash);
      e.removed = false;
      e.value.assign(data, pos, vlen);
      pos += vlen;
    } else if (op == kOpRemove) {
      if (Entry* e = Find(key, hash)) Erase(e);
    } else {
      return Status::IOError("corrupt state file (op byte)");
    }
  }
  return Status::OK();
}

StateStore::Entry& StateStore::FindOrInsert(std::string_view key,
                                            uint64_t hash) {
  index_.Reserve();
  size_t slot;
  uint32_t pos = Find(key, hash, &slot);
  if (pos != KeyIndex::kAbsent) return At(pos);
  if (!free_.empty()) {
    pos = free_.back();
    free_.pop_back();
  } else {
    if (slab_size_ == chunks_.size() * kChunk) {
      chunks_.push_back(std::make_unique<Entry[]>(kChunk));
    }
    pos = slab_size_++;
  }
  // Free and fresh entries are already clean, not live and empty.
  Entry& e = At(pos);
  e.mark = 0;
  e.key.assign(key);
  index_.Insert(slot, hash, pos);
  return e;
}

void StateStore::Erase(Entry* entry) {
  size_t slot;
  const uint32_t pos = Find(entry->key, HashKey(entry->key), &slot);
  index_.Erase(slot);
  free_.push_back(pos);
  std::string().swap(entry->key);
  std::string().swap(entry->value);
  entry->dirty = false;
  entry->removed = true;
}

const std::string* StateStore::Get(const std::string& key) const {
  const Entry* e = Find(key, HashKey(key));
  return e == nullptr || e->removed ? nullptr : &e->value;
}

void StateStore::MarkDirty(Entry& entry) {
  if (entry.dirty) return;
  if (!entry.removed) clean_bytes_ -= Charge(entry);
  entry.dirty = true;
  dirty_.push_back(&entry);
}

StateStore::Slot StateStore::FindOrCreate(std::string_view key,
                                          uint64_t hash) {
  Entry& e = FindOrInsert(key, hash);
  MarkDirty(e);
  const bool created = e.removed;
  if (created) {
    e.removed = false;
    ++live_;
  }
  return Slot{&e.key, &e.value, &e.mark, created};
}

bool StateStore::InsertIfAbsent(std::string_view key, uint64_t hash) {
  Entry& e = FindOrInsert(key, hash);
  if (!e.removed) return false;
  MarkDirty(e);
  e.removed = false;  // a tombstone's value was cleared by Remove
  ++live_;
  return true;
}

void StateStore::Put(const std::string& key, std::string value) {
  *FindOrCreate(key).value = std::move(value);
}

Status StateStore::Append(const std::string& key, const std::string& tail) {
  SS_FAILPOINT("state.shard.append");
  FindOrCreate(key).value->append(tail);
  return Status::OK();
}

void StateStore::Remove(const std::string& key) {
  // An absent key was not live at the last commit either (committed
  // entries stay in the table until removed and committed), so there is
  // nothing to record.
  Entry* e = Find(key, HashKey(key));
  if (e == nullptr || e->removed) return;
  MarkDirty(*e);
  e->removed = true;
  e->value.clear();  // a revived tombstone starts empty
  --live_;
}

int64_t StateStore::ApproxBytes() const {
  int64_t bytes = clean_bytes_;
  for (const Entry* e : dirty_) {
    if (!e->removed) bytes += Charge(*e);
  }
  return bytes;
}

void StateStore::ForEach(
    const std::function<void(const std::string&, const std::string&,
                             uint32_t)>& fn) {
  for (uint32_t p = 0; p < slab_size_; ++p) {
    const Entry& e = At(p);
    if (!e.removed) fn(e.key, e.value, e.mark);
  }
}

void StateStore::ForgetChanges() {
  for (Entry* e : dirty_) {
    if (e->removed) {
      Erase(e);
      continue;
    }
    e->dirty = false;
    clean_bytes_ += Charge(*e);
  }
  dirty_.clear();
}

Status StateStore::Commit(int64_t version) {
  SS_FAILPOINT("state.shard.checkpoint");
  if (version <= last_commit_version_) {
    return Status::InvalidArgument(
        "state commit versions must increase: " + std::to_string(version) +
        " <= " + std::to_string(last_commit_version_));
  }
  const bool snapshot = commits_since_snapshot_ + 1 >=
                            options_.snapshot_interval ||
                        last_commit_version_ == 0;
  SS_FAILPOINT("state.commit.before_write");
  if (snapshot) SS_FAILPOINT("state.snapshot.before_write");
  std::string buf;
  if (snapshot) {
    ForEach([&buf](const std::string& key, const std::string& value,
                   uint32_t) { AppendPut(&buf, key, value); });
  } else {
    for (const Entry* e : dirty_) {
      if (e->removed) {
        AppendRemove(&buf, e->key);
      } else {
        AppendPut(&buf, e->key, e->value);
      }
    }
  }
  SS_RETURN_IF_ERROR(
      WriteFileAtomic(VersionPath(dir_, version, snapshot), buf));
  // Crash window after the version file is durable but before the store
  // adopts it: recovery must treat the on-disk version as authoritative.
  SS_FAILPOINT("state.commit.after_write");
  // Only an adopted write advances the snapshot schedule: a failed
  // snapshot is retried as a snapshot, not demoted to a delta.
  if (snapshot) {
    ++snapshot_commits_;
    commits_since_snapshot_ = 0;
  } else {
    ++delta_commits_;
    ++commits_since_snapshot_;
  }
  bytes_written_ += static_cast<int64_t>(buf.size());
  ForgetChanges();
  last_commit_version_ = version;
  loaded_version_ = version;
  return Status::OK();
}

Status StateStore::TruncateAfter(const std::string& dir, int64_t version) {
  SS_RETURN_IF_ERROR(EnsureDir(dir));
  SS_ASSIGN_OR_RETURN(std::vector<VersionFile> files, ListVersionFiles(dir));
  for (const VersionFile& f : files) {
    if (f.version > version) {
      SS_RETURN_IF_ERROR(
          RemoveFile(VersionPath(dir, f.version, f.is_snapshot)));
    }
  }
  return Status::OK();
}

Status StateStore::PurgeBefore(const std::string& dir, int64_t keep) {
  SS_ASSIGN_OR_RETURN(std::vector<VersionFile> files, ListVersionFiles(dir));
  // Keep the newest snapshot <= keep and everything after it.
  int64_t base = 0;
  for (const VersionFile& f : files) {
    if (f.is_snapshot && f.version <= keep) base = f.version;
  }
  for (const VersionFile& f : files) {
    if (f.version < base || (f.version == base && !f.is_snapshot)) {
      SS_RETURN_IF_ERROR(
          RemoveFile(VersionPath(dir, f.version, f.is_snapshot)));
    }
  }
  return Status::OK();
}

}  // namespace sstreaming

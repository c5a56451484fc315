#include "state/state_store.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <cstring>
#include <vector>

#include "storage/fs.h"
#include "testing/failpoints.h"

namespace sstreaming {

namespace {

constexpr char kOpPut = 1;
constexpr char kOpRemove = 2;

void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool GetFixed64(const std::string& data, size_t* pos, uint64_t* v) {
  if (*pos + 8 > data.size()) return false;
  std::memcpy(v, data.data() + *pos, 8);
  *pos += 8;
  return true;
}

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
    store->live_ = static_cast<int64_t>(store->indexed_);
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
    size_t slot;
    if (op == kOpPut) {
      uint64_t vlen;
      if (!GetFixed64(data, &pos, &vlen) || vlen > data.size() - pos) {
        return Status::IOError("corrupt state file (value)");
      }
      Reserve();
      Entry* e = Find(key, hash, &slot);
      if (e == nullptr) e = &Insert(key, hash, slot);
      e->value.assign(data, pos, vlen);
      pos += vlen;
    } else if (op == kOpRemove) {
      if (Entry* e = Find(key, hash, &slot)) Erase(e);
    } else {
      return Status::IOError("corrupt state file (op byte)");
    }
  }
  return Status::OK();
}

StateStore::Entry* StateStore::Find(std::string_view key, uint64_t hash,
                                    size_t* slot) const {
  *slot = 0;
  if (index_.empty()) return nullptr;
  const uint32_t tag = Tag(hash);
  const size_t mask = index_.size() - 1;
  for (size_t i = Home(tag);; i = (i + 1) & mask) {
    const uint64_t word = index_[i];
    if (word == 0) {
      *slot = i;
      return nullptr;
    }
    if (static_cast<uint32_t>(word >> 32) == tag) {
      Entry& e = At(static_cast<uint32_t>(word) - 1);
      if (e.key == key) {
        *slot = i;
        return &e;
      }
    }
  }
}

void StateStore::PrefetchEntry(uint64_t hash) const {
  if (index_.empty()) return;
  const uint32_t tag = Tag(hash);
  const size_t mask = index_.size() - 1;
  for (size_t i = Home(tag);; i = (i + 1) & mask) {
    const uint64_t word = index_[i];
    if (word == 0) return;
    if (static_cast<uint32_t>(word >> 32) == tag) {
      const char* e =
          reinterpret_cast<const char*>(&At(static_cast<uint32_t>(word) - 1));
      __builtin_prefetch(e);
      __builtin_prefetch(e + sizeof(Entry) - 1);
      return;
    }
  }
}

void StateStore::Reserve() {
  // Load factor at most 3/4: linear probes stay within a cache line or two.
  if ((indexed_ + 1) * 4 <= index_.size() * 3) return;
  std::vector<uint64_t> old = std::move(index_);
  const size_t cap = std::max<size_t>(16, 2 * old.size());
  index_.assign(cap, 0);
  index_shift_ = 32 - static_cast<uint32_t>(std::countr_zero(cap));
  const size_t mask = cap - 1;
  // Homes come from the tags: growth never touches the entries.
  for (uint64_t word : old) {
    if (word == 0) continue;
    size_t i = Home(static_cast<uint32_t>(word >> 32));
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = word;
  }
}

StateStore::Entry& StateStore::Insert(std::string_view key, uint64_t hash,
                                      size_t slot) {
  uint32_t pos;
  if (!free_.empty()) {
    pos = free_.back();
    free_.pop_back();
  } else {
    if (slab_size_ == chunks_.size() * kChunk) {
      chunks_.push_back(std::make_unique<Entry[]>(kChunk));
    }
    pos = slab_size_++;
  }
  Entry& e = At(pos);
  e.pos = pos;
  e.dirty = false;
  e.removed = false;
  e.key.assign(key);
  e.value.clear();
  index_[slot] = (static_cast<uint64_t>(Tag(hash)) << 32) | (pos + 1);
  ++indexed_;
  return e;
}

void StateStore::Erase(Entry* entry) {
  const size_t mask = index_.size() - 1;
  const uint32_t tag = Tag(HashKey(entry->key));
  const uint64_t word = (static_cast<uint64_t>(tag) << 32) | (entry->pos + 1);
  size_t hole = Home(tag);
  while (index_[hole] != word) hole = (hole + 1) & mask;
  // Backward shift: pull each later member of the probe cluster into the
  // hole when the hole lies between its home and its slot.
  for (size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
    const uint64_t w = index_[j];
    if (w == 0) break;
    const size_t home = Home(static_cast<uint32_t>(w >> 32));
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = w;
      hole = j;
    }
  }
  index_[hole] = 0;
  --indexed_;
  std::string().swap(entry->key);
  std::string().swap(entry->value);
  entry->dirty = false;
  entry->removed = true;
  free_.push_back(entry->pos);
}

std::optional<std::string> StateStore::Get(const std::string& key) const {
  size_t slot;
  const Entry* e = Find(key, HashKey(key), &slot);
  if (e == nullptr || e->removed) return std::nullopt;
  return e->value;
}

void StateStore::MarkDirty(Entry& entry) {
  if (entry.dirty) return;
  if (!entry.removed) clean_bytes_ -= Charge(entry);
  entry.dirty = true;
  dirty_.push_back(&entry);
}

StateStore::Slot StateStore::FindOrCreate(std::string_view key,
                                          uint64_t hash) {
  Reserve();
  size_t slot;
  Entry* e = Find(key, hash, &slot);
  if (e == nullptr) {
    e = &Insert(key, hash, slot);
    e->removed = true;  // not live until revived below
  }
  MarkDirty(*e);
  const bool created = e->removed;
  if (created) {
    e->removed = false;
    ++live_;
  }
  return Slot{&e->key, &e->value, created};
}

bool StateStore::InsertIfAbsent(std::string_view key, uint64_t hash) {
  Reserve();
  size_t slot;
  Entry* e = Find(key, hash, &slot);
  if (e != nullptr && !e->removed) return false;
  if (e == nullptr) {
    e = &Insert(key, hash, slot);
    e->removed = true;  // not live until revived below
  }
  MarkDirty(*e);
  e->removed = false;  // a tombstone's value was cleared by Remove
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
  size_t slot;
  Entry* e = Find(key, HashKey(key), &slot);
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
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  for (uint32_t p = 0; p < slab_size_; ++p) {
    const Entry& e = At(p);
    if (!e.removed) fn(e.key, e.value);
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
    ForEach([&buf](const std::string& key, const std::string& value) {
      AppendPut(&buf, key, value);
    });
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

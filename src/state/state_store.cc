#include "state/state_store.h"

#include <algorithm>
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

template <typename Map>
Status ApplyLog(const std::string& data, Map* map) {
  size_t pos = 0;
  while (pos < data.size()) {
    char op = data[pos++];
    uint64_t klen;
    if (!GetFixed64(data, &pos, &klen) || pos + klen > data.size()) {
      return Status::IOError("corrupt state file (key)");
    }
    std::string key = data.substr(pos, klen);
    pos += klen;
    if (op == kOpPut) {
      uint64_t vlen;
      if (!GetFixed64(data, &pos, &vlen) || pos + vlen > data.size()) {
        return Status::IOError("corrupt state file (value)");
      }
      (*map)[std::move(key)].value = data.substr(pos, vlen);
      pos += vlen;
    } else if (op == kOpRemove) {
      map->erase(key);
    } else {
      return Status::IOError("corrupt state file (op byte)");
    }
  }
  return Status::OK();
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
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(name.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '.') continue;
    files.push_back(VersionFile{static_cast<int64_t>(v), snapshot});
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
    // ApplyLog fills data_ directly; charge the restored contents once here
    // so the incremental accounting starts from truth.
    for (const Node& node : store->data_) store->clean_bytes_ += Charge(node);
    store->live_ = static_cast<int64_t>(store->data_.size());
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
    SS_RETURN_IF_ERROR(ApplyLog(data, &data_));
    loaded_version_ = base;
  }
  // Apply deltas in (base, version] in order.
  for (const VersionFile& f : files) {
    if (f.is_snapshot || f.version <= base || f.version > version) continue;
    SS_ASSIGN_OR_RETURN(std::string data,
                        ReadFile(VersionPath(dir_, f.version, false)));
    SS_RETURN_IF_ERROR(ApplyLog(data, &data_));
    loaded_version_ = f.version;
  }
  return Status::OK();
}

std::optional<std::string> StateStore::Get(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end() || it->second.removed) return std::nullopt;
  return it->second.value;
}

void StateStore::MarkDirty(Node& node) {
  if (node.second.dirty) return;
  if (!node.second.removed) clean_bytes_ -= Charge(node);
  node.second.dirty = true;
  dirty_.push_back(&node);
}

StateStore::Slot StateStore::FindOrCreate(const std::string& key) {
  auto [it, inserted] = data_.try_emplace(key);
  Node& node = *it;
  if (inserted) node.second.removed = true;  // not live until revived below
  MarkDirty(node);
  const bool created = node.second.removed;
  if (created) {
    node.second.removed = false;
    ++live_;
  }
  return Slot{&node.first, &node.second.value, created};
}

void StateStore::Put(const std::string& key, std::string value) {
  *FindOrCreate(key).value = std::move(value);
}

void StateStore::Append(const std::string& key, const std::string& tail) {
  FindOrCreate(key).value->append(tail);
}

void StateStore::Remove(const std::string& key) {
  // An absent key was not live at the last commit either (committed
  // entries stay in the map until removed and committed), so there is
  // nothing to record.
  auto it = data_.find(key);
  if (it == data_.end() || it->second.removed) return;
  MarkDirty(*it);
  it->second.removed = true;
  it->second.value.clear();  // a revived tombstone starts empty
  --live_;
}

bool StateStore::Contains(const std::string& key) const {
  auto it = data_.find(key);
  return it != data_.end() && !it->second.removed;
}

int64_t StateStore::ApproxBytes() const {
  int64_t bytes = clean_bytes_;
  for (const Node* node : dirty_) {
    if (!node->second.removed) bytes += Charge(*node);
  }
  return bytes;
}

void StateStore::ForEach(
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  for (const auto& [key, entry] : data_) {
    if (!entry.removed) fn(key, entry.value);
  }
}

void StateStore::ForgetChanges() {
  for (Node* node : dirty_) {
    if (node->second.removed) {
      data_.erase(data_.find(node->first));
      continue;
    }
    node->second.dirty = false;
    clean_bytes_ += Charge(*node);
  }
  dirty_.clear();
}

Status StateStore::Commit(int64_t version) {
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
    for (const Node& node : data_) {
      if (!node.second.removed) AppendPut(&buf, node.first, node.second.value);
    }
  } else {
    for (const Node* node : dirty_) {
      if (node->second.removed) {
        AppendRemove(&buf, node->first);
      } else {
        AppendPut(&buf, node->first, node->second.value);
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

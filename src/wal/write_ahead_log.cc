#include "wal/write_ahead_log.h"

#include <algorithm>
#include <cstdio>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "storage/fs.h"
#include "testing/failpoints.h"

namespace sstreaming {

namespace {

// Epoch filenames are zero-padded so lexicographic order == numeric order
// (convenient for administrators listing the directory).
std::string EpochFileName(int64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012lld.json",
                static_cast<long long>(epoch));
  return buf;
}

// Only the exact name EpochFileName writes parses: a stray ` 9.json`,
// `+9.json` or unpadded `9.json` is not epoch 9.
Result<int64_t> ParseEpochFileName(const std::string& name) {
  const std::optional<int64_t> v =
      ParseDecimal(std::string_view(name).substr(0, name.find('.')));
  if (!v.has_value() || EpochFileName(*v) != name) {
    return Status::InvalidArgument("not an epoch file: " + name);
  }
  return *v;
}

Result<std::vector<int64_t>> ListEpochFiles(const std::string& dir) {
  SS_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  std::vector<int64_t> epochs;
  for (const std::string& name : names) {
    auto e = ParseEpochFileName(name);
    if (e.ok()) epochs.push_back(*e);  // skip temp/stray files
  }
  std::sort(epochs.begin(), epochs.end());
  return epochs;
}

}  // namespace

Json EpochPlan::ToJson() const {
  Json obj = Json::Object();
  obj.Set("epoch", Json::Int(epoch));
  if (watermark_micros != INT64_MIN) {
    obj.Set("watermarkMicros", Json::Int(watermark_micros));
  }
  Json srcs = Json::Array();
  for (const SourceOffsets& s : sources) {
    Json src = Json::Object();
    src.Set("source", Json::Str(s.source_name));
    Json start = Json::Array();
    for (int64_t v : s.start) start.Append(Json::Int(v));
    Json end = Json::Array();
    for (int64_t v : s.end) end.Append(Json::Int(v));
    src.Set("startOffsets", std::move(start));
    src.Set("endOffsets", std::move(end));
    srcs.Append(std::move(src));
  }
  obj.Set("sources", std::move(srcs));
  return obj;
}

Result<EpochPlan> EpochPlan::FromJson(const Json& json) {
  if (!json.is_object() || !json.Has("epoch") || !json.Has("sources")) {
    return Status::InvalidArgument("malformed epoch plan JSON");
  }
  EpochPlan plan;
  plan.epoch = json.Get("epoch").int_value();
  plan.watermark_micros = json.Has("watermarkMicros")
                              ? json.Get("watermarkMicros").int_value()
                              : INT64_MIN;
  for (const Json& src : json.Get("sources").array_items()) {
    SourceOffsets s;
    s.source_name = src.Get("source").string_value();
    for (const Json& v : src.Get("startOffsets").array_items()) {
      s.start.push_back(v.int_value());
    }
    for (const Json& v : src.Get("endOffsets").array_items()) {
      s.end.push_back(v.int_value());
    }
    if (s.start.size() != s.end.size()) {
      return Status::InvalidArgument("epoch plan: ragged offsets for " +
                                     s.source_name);
    }
    plan.sources.push_back(std::move(s));
  }
  return plan;
}

Result<WriteAheadLog> WriteAheadLog::Open(const std::string& dir) {
  WriteAheadLog log(dir);
  SS_RETURN_IF_ERROR(EnsureDir(log.offsets_dir()));
  SS_RETURN_IF_ERROR(EnsureDir(log.commits_dir()));
  return log;
}

Status WriteAheadLog::WriteEntryTimed(const std::string& path,
                                      const std::string& body) {
  if (metrics_ == nullptr) return WriteFileAtomic(path, body);
  int64_t t0 = MonotonicNanos();
  Status s = WriteFileAtomic(path, body);
  metrics_->GetHistogram("sstreaming_wal_sync_nanos")
      ->Record(MonotonicNanos() - t0);
  if (s.ok()) {
    metrics_->GetCounter("sstreaming_wal_bytes_total")
        ->Increment(static_cast<int64_t>(body.size()));
    metrics_->GetCounter("sstreaming_wal_writes_total")->Increment();
  }
  return s;
}

Status WriteAheadLog::WritePlan(const EpochPlan& plan) {
  SS_FAILPOINT("wal.plan.before_write");
  SS_RETURN_IF_ERROR(
      WriteEntryTimed(offsets_dir() + "/" + EpochFileName(plan.epoch),
                      plan.ToJson().DumpPretty()));
  // Crash window between making the plan durable and acting on it.
  SS_FAILPOINT("wal.plan.after_write");
  return Status::OK();
}

Result<EpochPlan> WriteAheadLog::ReadPlan(int64_t epoch) const {
  SS_FAILPOINT("wal.replay.read_plan");
  std::string path = offsets_dir() + "/" + EpochFileName(epoch);
  if (!FileExists(path)) {
    return Status::NotFound("no plan for epoch " + std::to_string(epoch));
  }
  SS_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  SS_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return EpochPlan::FromJson(json);
}

Status WriteAheadLog::WriteCommit(int64_t epoch, int64_t watermark_micros) {
  SS_FAILPOINT("wal.commit.before_write");
  Json obj = Json::Object();
  obj.Set("epoch", Json::Int(epoch));
  if (watermark_micros != INT64_MIN) {
    obj.Set("watermarkMicros", Json::Int(watermark_micros));
  }
  SS_RETURN_IF_ERROR(WriteEntryTimed(
      commits_dir() + "/" + EpochFileName(epoch), obj.DumpPretty()));
  SS_FAILPOINT("wal.commit.after_write");
  return Status::OK();
}

Result<int64_t> WriteAheadLog::ReadCommitWatermark(int64_t epoch) const {
  std::string path = commits_dir() + "/" + EpochFileName(epoch);
  if (!FileExists(path)) {
    return Status::NotFound("no commit for epoch " + std::to_string(epoch));
  }
  SS_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  SS_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return json.Has("watermarkMicros") ? json.Get("watermarkMicros").int_value()
                                     : INT64_MIN;
}

bool WriteAheadLog::IsCommitted(int64_t epoch) const {
  return FileExists(commits_dir() + "/" + EpochFileName(epoch));
}

Result<std::optional<int64_t>> WriteAheadLog::LatestPlannedEpoch() const {
  SS_ASSIGN_OR_RETURN(std::vector<int64_t> epochs,
                      ListEpochFiles(offsets_dir()));
  if (epochs.empty()) return std::optional<int64_t>();
  return std::optional<int64_t>(epochs.back());
}

Result<std::optional<int64_t>> WriteAheadLog::LatestCommittedEpoch() const {
  SS_ASSIGN_OR_RETURN(std::vector<int64_t> epochs,
                      ListEpochFiles(commits_dir()));
  if (epochs.empty()) return std::optional<int64_t>();
  return std::optional<int64_t>(epochs.back());
}

Result<std::vector<int64_t>> WriteAheadLog::ListPlannedEpochs() const {
  return ListEpochFiles(offsets_dir());
}

Status WriteAheadLog::PurgeBefore(int64_t keep) {
  SS_ASSIGN_OR_RETURN(std::vector<int64_t> planned,
                      ListEpochFiles(offsets_dir()));
  for (int64_t e : planned) {
    if (e < keep) {
      SS_RETURN_IF_ERROR(RemoveFile(offsets_dir() + "/" + EpochFileName(e)));
    }
  }
  SS_ASSIGN_OR_RETURN(std::vector<int64_t> committed,
                      ListEpochFiles(commits_dir()));
  for (int64_t e : committed) {
    if (e < keep) {
      SS_RETURN_IF_ERROR(RemoveFile(commits_dir() + "/" + EpochFileName(e)));
    }
  }
  return Status::OK();
}

Status WriteAheadLog::TruncateAfter(int64_t epoch) {
  SS_FAILPOINT("wal.truncate");
  SS_ASSIGN_OR_RETURN(std::vector<int64_t> planned,
                      ListEpochFiles(offsets_dir()));
  for (int64_t e : planned) {
    if (e > epoch) {
      SS_RETURN_IF_ERROR(RemoveFile(offsets_dir() + "/" + EpochFileName(e)));
    }
  }
  SS_ASSIGN_OR_RETURN(std::vector<int64_t> committed,
                      ListEpochFiles(commits_dir()));
  for (int64_t e : committed) {
    if (e > epoch) {
      SS_RETURN_IF_ERROR(RemoveFile(commits_dir() + "/" + EpochFileName(e)));
    }
  }
  return Status::OK();
}

Result<int> WriteAheadLog::RepairTornTail() {
  // A crash while an entry was being made durable can leave a partial file
  // under the final name (on filesystems weaker than our temp+rename
  // idealization — modeled by the fs.write.torn failpoint). Only the tail
  // can legally be torn: entries are written in epoch order, so the newest
  // file is the only one that was in flight. Removing it merely undoes an
  // epoch that never took effect; replay recomputes it.
  int removed = 0;
  for (bool is_plan : {true, false}) {
    const std::string dir = is_plan ? offsets_dir() : commits_dir();
    while (true) {
      SS_ASSIGN_OR_RETURN(std::vector<int64_t> epochs, ListEpochFiles(dir));
      if (epochs.empty()) break;
      const std::string path = dir + "/" + EpochFileName(epochs.back());
      auto text = ReadFile(path);
      bool intact = false;
      if (text.ok()) {
        auto json = Json::Parse(*text);
        if (json.ok()) {
          intact = is_plan ? EpochPlan::FromJson(*json).ok()
                           : json->is_object() && json->Has("epoch");
        }
      } else {
        return text.status();  // cannot read at all: surface, don't delete
      }
      if (intact) break;
      SS_LOG(Warn) << "WAL: removing torn " << (is_plan ? "plan" : "commit")
                   << " entry for epoch " << epochs.back() << " (" << path
                   << "); it will be recomputed";
      SS_RETURN_IF_ERROR(RemoveFile(path));
      ++removed;
    }
  }
  return removed;
}

}  // namespace sstreaming

#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/clock.h"

namespace sstreaming {

std::atomic<bool> Profiler::active_flag_{false};

namespace {

constexpr const char* kOverflowLabel = "<label-overflow>";

}  // namespace

Profiler& Profiler::Instance() {
  static Profiler* instance = new Profiler();  // leaked: usable at exit
  return *instance;
}

uint32_t Profiler::Intern(const std::string& label) {
  std::lock_guard<std::mutex> lock(intern_mu_);
  if (labels_.empty()) labels_.push_back("");  // id 0 = unattributed
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  if (labels_.size() >= 0xffff) {
    // Label space exhausted: everything else shares the overflow bucket.
    auto overflow = label_ids_.find(kOverflowLabel);
    if (overflow != label_ids_.end()) return overflow->second;
    labels_.push_back(kOverflowLabel);
    uint32_t id = static_cast<uint32_t>(labels_.size() - 1);
    label_ids_[kOverflowLabel] = id;
    return id;
  }
  labels_.push_back(label);
  uint32_t id = static_cast<uint32_t>(labels_.size() - 1);
  label_ids_[label] = id;
  return id;
}

std::string Profiler::LabelName(uint32_t id) const {
  std::lock_guard<std::mutex> lock(intern_mu_);
  if (id >= labels_.size()) return "";
  return labels_[id];
}

Profiler::ThreadSlot* Profiler::Slot() {
  // Registers this thread's slot on first use and unregisters it when the
  // thread exits. The shared_ptr keeps the slot alive for any sampler tick
  // racing the unregister (the registry drops its reference under the lock).
  struct SlotHolder {
    std::shared_ptr<ThreadSlot> slot;
    ~SlotHolder() {
      if (slot != nullptr) Instance().UnregisterSlot(slot.get());
    }
  };
  thread_local SlotHolder holder;
  if (holder.slot == nullptr) {
    holder.slot = std::make_shared<ThreadSlot>();
    Instance().RegisterSlot(holder.slot);
  }
  return holder.slot.get();
}

void Profiler::RegisterSlot(const std::shared_ptr<ThreadSlot>& slot) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(slot);
}

void Profiler::UnregisterSlot(const ThreadSlot* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = slots_.begin(); it != slots_.end(); ++it) {
    if (it->get() == slot) {
      slots_.erase(it);
      return;
    }
  }
}

void Profiler::Arm(double hz) {
  std::lock_guard<std::mutex> lock(control_mu_);
  if (armed_count_++ > 0) return;  // already running; join at current rate
  hz_ = std::min(1000.0, std::max(1.0, hz));
  stop_.store(false, std::memory_order_relaxed);
  active_flag_.store(true, std::memory_order_relaxed);
  sampler_ = std::thread([this] { SamplerLoop(); });
}

void Profiler::Disarm() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    if (armed_count_ == 0) return;
    if (--armed_count_ > 0) return;
    active_flag_.store(false, std::memory_order_relaxed);
    stop_.store(true, std::memory_order_relaxed);
    to_join = std::move(sampler_);
  }
  if (to_join.joinable()) to_join.join();
}

void Profiler::SamplerLoop() {
  double hz;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    hz = hz_;
  }
  const auto period =
      std::chrono::nanoseconds(static_cast<int64_t>(1e9 / hz));
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(period);
    std::lock_guard<std::mutex> lock(mu_);
    ++ticks_;
    for (const std::shared_ptr<ThreadSlot>& slot : slots_) {
      uint64_t word = slot->word.load(std::memory_order_relaxed);
      if (word != 0) ++counts_[word];
    }
  }
}

void Profiler::CountsSnapshot(std::map<uint64_t, int64_t>* counts,
                              int64_t* ticks) const {
  std::lock_guard<std::mutex> lock(mu_);
  *counts = counts_;
  *ticks = ticks_;
}

ProfileSnapshot Profiler::BuildSnapshot(
    const std::map<uint64_t, int64_t>& counts, int64_t ticks) const {
  ProfileSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    snap.hz = hz_;
  }
  snap.ticks = ticks;
  int64_t period_nanos =
      snap.hz > 0 ? static_cast<int64_t>(1e9 / snap.hz) : 0;
  for (const auto& [word, samples] : counts) {
    ProfileEntry e;
    e.query = LabelName(
        static_cast<uint32_t>((word >> kQueryShift) & 0xffff));
    e.stage = LabelName(
        static_cast<uint32_t>((word >> kStageShift) & 0xffff));
    e.op = LabelName(
        static_cast<uint32_t>((word >> kOpLabelShift) & 0xffff));
    e.op_id = static_cast<int>(word & 0xffff);
    e.samples = samples;
    e.self_nanos = samples * period_nanos;
    snap.total_samples += samples;
    snap.entries.push_back(std::move(e));
  }
  std::stable_sort(snap.entries.begin(), snap.entries.end(),
                   [](const ProfileEntry& a, const ProfileEntry& b) {
                     return a.samples > b.samples;
                   });
  return snap;
}

ProfileSnapshot Profiler::Snapshot() const {
  std::map<uint64_t, int64_t> counts;
  int64_t ticks = 0;
  CountsSnapshot(&counts, &ticks);
  return BuildSnapshot(counts, ticks);
}

ProfileSnapshot Profiler::Collect(int64_t duration_millis, double hz) {
  Arm(hz);
  std::map<uint64_t, int64_t> before;
  int64_t ticks_before = 0;
  CountsSnapshot(&before, &ticks_before);
  int64_t t0 = MonotonicNanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_millis));
  std::map<uint64_t, int64_t> after;
  int64_t ticks_after = 0;
  CountsSnapshot(&after, &ticks_after);
  int64_t duration = MonotonicNanos() - t0;
  Disarm();
  std::map<uint64_t, int64_t> delta;
  for (const auto& [word, samples] : after) {
    auto it = before.find(word);
    int64_t d = samples - (it == before.end() ? 0 : it->second);
    if (d > 0) delta[word] = d;
  }
  ProfileSnapshot snap = BuildSnapshot(delta, ticks_after - ticks_before);
  snap.duration_nanos = duration;
  return snap;
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.clear();
  ticks_ = 0;
}

uint64_t Profiler::CurrentWord() {
  return Slot()->word.load(std::memory_order_relaxed);
}

uint64_t Profiler::TaskWord(const std::string& stage_name) {
  if (!active()) return 0;
  return WithField(CurrentWord(), kStageShift, Intern(stage_name));
}

void ProfileScopeBase::Engage(uint64_t word) {
  Profiler::ThreadSlot* slot = Profiler::Slot();
  slot_ = slot;
  saved_ = slot->word.load(std::memory_order_relaxed);
  slot->word.store(word, std::memory_order_relaxed);
}

uint64_t ProfileScopeBase::PeekWord() { return Profiler::CurrentWord(); }

Json ProfileSnapshot::ToJson() const {
  Json obj = Json::Object();
  obj.Set("hz", Json::Double(hz));
  obj.Set("ticks", Json::Int(ticks));
  obj.Set("totalSamples", Json::Int(total_samples));
  obj.Set("durationNanos", Json::Int(duration_nanos));
  Json rows = Json::Array();
  Json collapsed = Json::Array();
  for (const ProfileEntry& e : entries) {
    Json row = Json::Object();
    row.Set("query", Json::Str(e.query));
    row.Set("stage", Json::Str(e.stage));
    row.Set("op", Json::Str(e.op));
    row.Set("opId", Json::Int(e.op_id));
    row.Set("samples", Json::Int(e.samples));
    row.Set("selfNanos", Json::Int(e.self_nanos));
    rows.Append(std::move(row));
    std::string frame = e.query.empty() ? "<untracked>" : e.query;
    frame += ";";
    frame += e.stage.empty() ? "<no-stage>" : e.stage;
    if (!e.op.empty()) {
      frame += ";";
      frame += e.op;
    }
    frame += ' ';
    frame += std::to_string(e.samples);
    collapsed.Append(Json::Str(frame));
  }
  obj.Set("entries", std::move(rows));
  obj.Set("collapsed", std::move(collapsed));
  return obj;
}

std::string ProfileSnapshot::Collapsed() const {
  std::string out;
  for (const ProfileEntry& e : entries) {
    out += e.query.empty() ? "<untracked>" : e.query;
    out += ";";
    out += e.stage.empty() ? "<no-stage>" : e.stage;
    if (!e.op.empty()) {
      out += ";";
      out += e.op;
    }
    out += ' ';
    out += std::to_string(e.samples);
    out += '\n';
  }
  return out;
}

}  // namespace sstreaming

#include "reference.h"

#include <cstdlib>

#include "workloads/yahoo.h"

namespace perfbench {

using sstreaming::Result;
using sstreaming::Row;

namespace {

constexpr int64_t kMicrosPerSecond = 1000 * 1000;

// (campaign_id, window_start in seconds) packed into one hash key.
uint64_t YahooKey(int64_t campaign, int64_t window_start_sec) {
  return static_cast<uint64_t>(campaign) << 40 |
         static_cast<uint64_t>(window_start_sec);
}

}  // namespace

Result<Reference> Reference::FromBus(QueryKind kind,
                                     const sstreaming::MessageBus& bus,
                                     const std::string& topic,
                                     const std::vector<Row>& campaigns) {
  SS_ASSIGN_OR_RETURN(std::vector<int64_t> ends, bus.EndOffsets(topic));
  Reference ref(kind);
  for (size_t p = 0; p < ends.size(); ++p) {
    SS_ASSIGN_OR_RETURN(std::vector<Row> events,
                        bus.Read(topic, static_cast<int>(p), 0, ends[p]));
    if (kind == QueryKind::kUserCounts) {
      for (const Row& e : events) {
        ++ref.counts_[static_cast<uint64_t>(e[0].int64_value())];
      }
      continue;
    }
    for (const auto& [key, count] :
         sstreaming::YahooReferenceCounts(events, campaigns)) {
      ref.counts_[YahooKey(key.first, key.second)] += count;
    }
  }
  return ref;
}

int64_t Reference::CountMismatches(const sstreaming::Schema& schema,
                                   const std::vector<Row>& rows) const {
  const int count_col = schema.IndexOf("count");
  const int key_col = schema.IndexOf(
      kind_ == QueryKind::kUserCounts ? "user_id" : "campaign_id");
  const int window_col = schema.IndexOf("window_start");
  if (count_col < 0 || key_col < 0 ||
      (kind_ == QueryKind::kYahooWindowCounts && window_col < 0)) {
    return -1;
  }
  std::unordered_map<uint64_t, int64_t> seen;
  int64_t mismatched = 0;
  for (const Row& row : rows) {
    const int64_t key = row[static_cast<size_t>(key_col)].int64_value();
    const uint64_t k =
        kind_ == QueryKind::kUserCounts
            ? static_cast<uint64_t>(key)
            : YahooKey(key, row[static_cast<size_t>(window_col)].int64_value() /
                                kMicrosPerSecond);
    const int64_t got = row[static_cast<size_t>(count_col)].int64_value();
    if (!seen.emplace(k, got).second) {
      mismatched += got;  // a key upserted twice: its second row is extra
      continue;
    }
    auto it = counts_.find(k);
    mismatched += std::llabs(got - (it == counts_.end() ? 0 : it->second));
  }
  for (const auto& [k, want] : counts_) {
    if (seen.find(k) == seen.end()) mismatched += want;
  }
  return mismatched;
}

}  // namespace perfbench

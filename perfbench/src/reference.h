// The independent reference check.
//
// Each workload's expected sink table is counted single-threaded from the
// events on the bus, without the engine: views per (campaign, 10 s window)
// through sstreaming::YahooReferenceCounts, or events per user_id.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bus/message_bus.h"
#include "common/status.h"
#include "types/row.h"
#include "types/schema.h"

namespace perfbench {

/// The query a workload runs.
enum class QueryKind { kYahooWindowCounts, kUserCounts };

/// Expected sink table of one query, as key -> count.
class Reference {
 public:
  /// Counts every event of `topic`; `campaigns` is the Yahoo join table.
  static sstreaming::Result<Reference> FromBus(
      QueryKind kind, const sstreaming::MessageBus& bus,
      const std::string& topic, const std::vector<sstreaming::Row>& campaigns);

  /// Compares an update-mode sink snapshot (rows of `schema`) against the
  /// expected table. Returns how many input events the snapshot loses,
  /// duplicates or miscounts: the sum over keys of |sink - expected|, with
  /// a missing key counting its whole expected count and an unexpected key
  /// its whole sink count. -1 when the snapshot's shape is not the query's.
  int64_t CountMismatches(const sstreaming::Schema& schema,
                          const std::vector<sstreaming::Row>& rows) const;

 private:
  explicit Reference(QueryKind kind) : kind_(kind) {}

  QueryKind kind_;
  std::unordered_map<uint64_t, int64_t> counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

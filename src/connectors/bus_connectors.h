#ifndef SSTREAMING_CONNECTORS_BUS_CONNECTORS_H_
#define SSTREAMING_CONNECTORS_BUS_CONNECTORS_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "common/thread_annotations.h"
#include "connectors/sink.h"
#include "connectors/source.h"

namespace sstreaming {

/// Streaming source over a MessageBus topic (the Kafka connector analogue).
class BusSource : public Source {
 public:
  BusSource(MessageBus* bus, std::string topic, SchemaPtr schema);

  const std::string& name() const override { return name_; }
  SchemaPtr schema() const override { return schema_; }
  int num_partitions() const override { return num_partitions_; }
  Result<std::vector<int64_t>> LatestOffsets() const override;
  Result<RecordBatchPtr> ReadPartition(int partition, int64_t start,
                                       int64_t end) const override;
  /// Materializes only the requested columns from the broker records.
  Result<RecordBatchPtr> ReadPartitionProjected(
      int partition, int64_t start, int64_t end,
      const std::vector<int>& columns) const override;
  /// Broker arrival time of the oldest record in the range (0 when the bus
  /// has no ingest clock).
  int64_t OldestIngestMicros(int partition, int64_t start,
                             int64_t end) const override;

 private:
  MessageBus* bus_;
  std::string topic_;
  std::string name_;
  SchemaPtr schema_;
  int num_partitions_ = 0;
};

/// Sink writing result rows back to a MessageBus topic, partitioned by
/// HashRow of the row (computed column by column with Column::HashInto) and
/// appended as one columnar batch per partition. Like the real Kafka sink, cross-restart delivery is
/// at-least-once (the bus has no atomic multi-partition commit); within one
/// process lifetime re-commits of an epoch are suppressed, so tests observe
/// exactly-once under task retries.
class BusSink : public Sink {
 public:
  BusSink(MessageBus* bus, std::string topic);

  bool SupportsMode(OutputMode mode) const override {
    return mode != OutputMode::kComplete;
  }

  Status CommitEpoch(int64_t epoch, OutputMode mode, int num_key_columns,
                     const std::vector<RecordBatchPtr>& batches) override;

 private:
  MessageBus* bus_;
  std::string topic_;
  std::mutex mu_;
  std::map<int64_t, bool> committed_ SS_GUARDED_BY(mu_);
};

/// Sink invoking a user callback per committed epoch (foreachBatch).
class ForeachSink : public Sink {
 public:
  using Callback = std::function<Status(int64_t epoch, OutputMode mode,
                                        const std::vector<Row>& rows)>;

  explicit ForeachSink(Callback callback) : callback_(std::move(callback)) {}

  bool SupportsMode(OutputMode) const override { return true; }

  Status CommitEpoch(int64_t epoch, OutputMode mode, int /*num_key_columns*/,
                     const std::vector<RecordBatchPtr>& batches) override {
    std::vector<Row> rows;
    for (const auto& b : batches) {
      auto brows = b->ToRows();
      rows.insert(rows.end(), brows.begin(), brows.end());
    }
    return callback_(epoch, mode, rows);
  }

 private:
  Callback callback_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_CONNECTORS_BUS_CONNECTORS_H_

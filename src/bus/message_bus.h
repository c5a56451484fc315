#ifndef SSTREAMING_BUS_MESSAGE_BUS_H_
#define SSTREAMING_BUS_MESSAGE_BUS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bus/partition_log.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "types/record_batch.h"
#include "types/row.h"

namespace sstreaming {

/// An in-process, Kafka-like replayable message bus: topics divided into
/// partitions, each an append-only log addressed by offset. This is the only
/// property the engine requires of its sources (paper §3: "input sources must
/// be replayable") and stands in for Kafka/Kinesis. Each partition stores its
/// records column-major as typed engine Columns (a PartitionLog), the way
/// Kafka keeps producer batches as contiguous record batches: the engine's
/// source copies a range of the projected columns with one bulk copy per
/// column and never builds a per-record object. A column takes the type of
/// its first non-null value; appends whose arity or value types disagree
/// with the partition are rejected whole. Producers may still hand in Rows,
/// and Read() boxes Rows back out for the record-at-a-time baselines.
///
/// Thread safety: all operations are safe under concurrent producers and
/// consumers; each partition has its own lock.
class MessageBus {
 public:
  MessageBus() = default;
  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// When set, every appended record is stamped with clock->NowMicros()
  /// (broker arrival time, like Kafka's LogAppendTime) so consumers can
  /// measure end-to-end latency and backlog age; records appended without a
  /// clock read as undated (ingest 0). Set before producing — the bus does
  /// not take ownership and the clock must outlive it.
  void set_ingest_clock(const Clock* clock) { ingest_clock_ = clock; }

  Status CreateTopic(const std::string& topic, int num_partitions);
  bool HasTopic(const std::string& topic) const;
  Result<int> NumPartitions(const std::string& topic) const;

  /// Appends one record; returns its offset within the partition.
  /// InvalidArgument (nothing appended) when its arity or a value's type
  /// disagrees with the partition's columns.
  Result<int64_t> Append(const std::string& topic, int partition, Row row);

  /// Appends many records (single lock acquisition — the batched-producer
  /// path). Returns the offset of the first appended record. All-or-nothing:
  /// one mismatched record rejects the whole batch.
  Result<int64_t> AppendBatch(const std::string& topic, int partition,
                              std::vector<Row> rows);

  /// Appends a batch's rows column by column (no boxing). A column holding
  /// only nulls fits any partition column; otherwise types must match
  /// exactly. Returns the offset of the first appended record.
  Result<int64_t> AppendBatch(const std::string& topic, int partition,
                              const RecordBatch& batch);

  /// Reads records [start, end) from a partition, boxed as Rows. `end`
  /// beyond the log end is clamped.
  Result<std::vector<Row>> Read(const std::string& topic, int partition,
                                int64_t start, int64_t end) const;

  /// Reads records [start, end) directly into a columnar batch (a bulk
  /// range copy per column) — the batched-consumer path used by the
  /// engine's source.
  /// `projection`: indices into the stored record to materialize (schema
  /// must describe exactly those fields, in order); null = all fields.
  /// A field reads a stored column of the same physical kind (int64 and
  /// timestamp share one); an all-null column reads as nulls of any type;
  /// any other mismatch is InvalidArgument.
  Result<RecordBatchPtr> ReadBatch(const std::string& topic, int partition,
                                   int64_t start, int64_t end,
                                   const SchemaPtr& schema,
                                   const std::vector<int>* projection =
                                       nullptr) const;

  /// Arrival stamp (clock micros) of the oldest record in [start, end) of a
  /// partition, or 0 when no record in the range is dated. Errors only on
  /// unknown topic/partition.
  Result<int64_t> OldestIngestMicros(const std::string& topic, int partition,
                                     int64_t start, int64_t end) const;

  /// One past the last offset in a partition.
  Result<int64_t> EndOffset(const std::string& topic, int partition) const;

  /// End offsets for all partitions of a topic.
  Result<std::vector<int64_t>> EndOffsets(const std::string& topic) const;

  /// Total record count across partitions (monitoring convenience).
  Result<int64_t> TotalRecords(const std::string& topic) const;

 private:
  struct Partition {
    mutable std::mutex mu;
    PartitionLog log SS_GUARDED_BY(mu);
  };
  struct Topic {
    // The vector is append-never after CreateTopic; partitions synchronize
    // themselves.
    std::vector<std::unique_ptr<Partition>> partitions;
  };

  Result<const Topic*> FindTopic(const std::string& topic) const
      SS_EXCLUDES(topics_mu_);
  Result<Partition*> FindPartition(const std::string& topic,
                                   int partition) const
      SS_EXCLUDES(topics_mu_);

  const Clock* ingest_clock_ = nullptr;
  mutable std::mutex topics_mu_;
  std::map<std::string, Topic> topics_ SS_GUARDED_BY(topics_mu_);
};

}  // namespace sstreaming

#endif  // SSTREAMING_BUS_MESSAGE_BUS_H_

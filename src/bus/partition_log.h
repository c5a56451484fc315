#ifndef SSTREAMING_BUS_PARTITION_LOG_H_
#define SSTREAMING_BUS_PARTITION_LOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "types/column.h"
#include "types/record_batch.h"
#include "types/row.h"

namespace sstreaming {

/// One partition of an append-only record log, stored column-major: one
/// typed Column per record field, plus the ingest stamps as runs (every
/// append stamps all its records alike, so one run per append, merged with
/// the run before it when the stamps are equal). The storage behind
/// MessageBus partitions and MemoryStream partitions.
///
/// Typing: a column takes the TypeId of the first non-null value appended to
/// it; until then it is a kNull column, retyped (and back-filled with nulls)
/// on its first non-null value. Nulls fit any column. The first record fixes
/// the arity. Appends validate every record before touching the log, so a
/// rejected append leaves it unchanged.
///
/// Reads copy a range of the requested columns with one bulk copy per
/// storage array; no per-record object is built.
///
/// Not synchronized: the owner holds its own lock around every call.
class PartitionLog {
 public:
  /// Number of records (one past the last offset).
  int64_t size() const { return size_; }

  /// Appends boxed records, all stamped `ingest_micros` (0 = undated).
  /// InvalidArgument, appending nothing, when a record's arity or a value's
  /// exact type disagrees with the log.
  Status AppendRows(std::span<const Row> rows, int64_t ingest_micros);

  /// Appends the logical rows of `batch`, all stamped `ingest_micros`. A
  /// column holding only nulls fits any column; any other column must have
  /// the exact type of the log's column. InvalidArgument, appending nothing,
  /// on a mismatch.
  Status AppendBatch(const RecordBatch& batch, int64_t ingest_micros);

  /// Copies records [start, end) into a batch of `schema`. `projection`
  /// maps each schema field to a stored column (null = the first
  /// num_fields columns). A stored column reads as a field whose type has
  /// the same physical kind (int64 and timestamp share one); an all-null
  /// column reads as nulls of any type. InvalidArgument on any other
  /// mismatch. Precondition: 0 <= start, end <= size().
  Result<RecordBatchPtr> ReadBatch(int64_t start, int64_t end,
                                   const SchemaPtr& schema,
                                   const std::vector<int>* projection) const;

  /// Boxes records [start, end) as Rows of the stored types.
  /// Precondition: 0 <= start, end <= size().
  std::vector<Row> ReadRows(int64_t start, int64_t end) const;

  /// Oldest non-zero ingest stamp in [start, end) (clamped), or 0. A binary
  /// search for the run holding `start`, then the runs up to `end`.
  int64_t OldestIngestMicros(int64_t start, int64_t end) const;

 private:
  /// The stored column types padded with kNull to `arity` (an empty log has
  /// no columns yet).
  std::vector<TypeId> ColumnTypes(size_t arity) const;
  /// After validation: creates the columns of an empty log and retypes
  /// still-kNull columns (back-filled with nulls) to `types`.
  void AdoptTypes(const std::vector<TypeId>& types);

  /// Records `n` appended records stamped `ingest_micros`.
  void AddStamps(int64_t n, int64_t ingest_micros);

  /// Records [first, next run's first) are stamped `micros`.
  struct IngestRun {
    int64_t first;
    int64_t micros;
  };

  std::vector<Column> columns_;
  std::vector<IngestRun> ingest_;  // ascending `first`, the first at 0
  int64_t size_ = 0;
};

}  // namespace sstreaming

#endif  // SSTREAMING_BUS_PARTITION_LOG_H_

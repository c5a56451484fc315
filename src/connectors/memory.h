#ifndef SSTREAMING_CONNECTORS_MEMORY_H_
#define SSTREAMING_CONNECTORS_MEMORY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bus/partition_log.h"
#include "common/clock.h"
#include "common/key_index.h"
#include "common/thread_annotations.h"
#include "connectors/sink.h"
#include "connectors/source.h"
#include "types/record_batch.h"
#include "types/row.h"

namespace sstreaming {

/// An in-memory replayable source, primarily for tests and examples: data is
/// added explicitly with AddData() and retained forever, so any offset range
/// can be re-read (the strongest form of replayability). Added rows are
/// checked against the schema and stored in typed PartitionLogs, the same
/// column-major storage as a MessageBus partition.
class MemoryStream : public Source {
 public:
  MemoryStream(std::string name, SchemaPtr schema, int num_partitions = 1);

  /// When set, every added row gets an ingest stamp of clock->NowMicros()
  /// (arrival time) for e2e-latency and backlog-age tracking; rows added
  /// without a clock read as undated (ingest 0). Set before adding data —
  /// the stream does not take ownership and the clock must outlive it.
  void set_ingest_clock(const Clock* clock) { ingest_clock_ = clock; }

  /// Appends rows round-robin across partitions (deterministic). Rows whose
  /// arity or value types do not fit the schema (RecordBatch::FromRows)
  /// are rejected with InvalidArgument and nothing is added.
  Status AddData(const std::vector<Row>& rows);

  const std::string& name() const override { return name_; }
  SchemaPtr schema() const override { return schema_; }
  int num_partitions() const override { return num_partitions_; }
  Result<std::vector<int64_t>> LatestOffsets() const override;
  Result<RecordBatchPtr> ReadPartition(int partition, int64_t start,
                                       int64_t end) const override;
  int64_t OldestIngestMicros(int partition, int64_t start,
                             int64_t end) const override;

 private:
  std::string name_;
  SchemaPtr schema_;
  const Clock* ingest_clock_ = nullptr;
  const int num_partitions_;
  mutable std::mutex mu_;
  std::vector<PartitionLog> partitions_ SS_GUARDED_BY(mu_);
  int next_partition_ SS_GUARDED_BY(mu_) = 0;
};

/// An in-memory table sink that exposes only *committed* epochs — the
/// mechanism behind the paper's "interactive queries on consistent snapshots
/// of stream output" (§1): a reader always sees a prefix-consistent table.
///
/// Update mode keeps the upserted result table in typed columns, one per
/// output column. A row's identity is the values of its first
/// `num_key_columns` columns compared as their encoded bytes would be
/// (Column::ValueEquals, the identity the state store groups by), so NaN
/// keys are well defined and -0.0 and 0.0 stay distinct, exactly as the
/// stateful aggregate keeps them. The table finds rows through KeyIndex,
/// the same index the state store keeps over its slab, probed with the key
/// columns' hash. The column types come from the first batch; a batch
/// column of another type is rejected with the whole commit, except that a
/// null-typed column fits any type and a column that held only nulls takes
/// the first real type it meets.
/// Commits of an epoch at or below the last committed one are ignored in
/// update and complete mode: recovery re-delivers epochs the sink already
/// applied, and re-applying an older epoch would show a table that matches
/// no prefix.
class MemorySink : public Sink {
 public:
  bool SupportsMode(OutputMode) const override { return true; }

  Status CommitEpoch(int64_t epoch, OutputMode mode, int num_key_columns,
                     const std::vector<RecordBatchPtr>& batches) override;

  /// The committed result table: append rows in epoch order, update rows in
  /// the order their keys were first inserted, complete rows as delivered.
  std::vector<Row> Snapshot() const;
  /// Rows sorted for deterministic assertions.
  std::vector<Row> SortedSnapshot() const;
  int64_t num_committed_epochs() const;
  int64_t last_committed_epoch() const;

 private:
  /// Update-mode table: one typed Column per output column, row r being
  /// position r of each, in first-insertion order, indexed by KeyIndex
  /// over the key columns. An upsert costs one probe that compares typed
  /// values; a new key appends its cells, a known key overwrites its
  /// non-key cells in place. Rows are boxed only when Snapshot() reads them.
  class UpdateTable {
   public:
    /// Checks `batch` against the column types `types` (the table's, then
    /// those of the batches checked before it in the same commit) and
    /// merges its types into them. A null-typed column fits any type and
    /// takes the first other type it meets; any other mismatch, or another
    /// arity, is InvalidArgument.
    static Status CheckBatch(const RecordBatch& batch,
                             std::vector<TypeId>* types);
    /// The column types; empty until the first row.
    std::vector<TypeId> types() const;
    /// Upserts every row of `batch`. Precondition: CheckBatch accepted it.
    void Upsert(const RecordBatch& batch, int num_key_columns);
    /// Boxes the rows, in first-insertion order, onto `out`.
    void AppendRowsTo(std::vector<Row>* out) const;

   private:
    int64_t num_rows() const {
      return columns_.empty() ? 0 : columns_[0].size();
    }

    std::vector<Column> columns_;
    KeyIndex index_;  // key columns' hash -> row
    // Per-batch scratch: the key columns' hash of each physical row,
    // computed before the probe loop so it can prefetch.
    std::vector<uint64_t> batch_hashes_;
  };

  mutable std::mutex mu_;
  // Append mode: per-epoch row sets (idempotent re-commit replaces).
  std::map<int64_t, std::vector<Row>> append_epochs_ SS_GUARDED_BY(mu_);
  UpdateTable update_table_ SS_GUARDED_BY(mu_);
  // Complete mode: the latest table.
  std::vector<Row> complete_table_ SS_GUARDED_BY(mu_);
  int64_t last_epoch_ SS_GUARDED_BY(mu_) = -1;
  int64_t committed_count_ SS_GUARDED_BY(mu_) = 0;
};

}  // namespace sstreaming

#endif  // SSTREAMING_CONNECTORS_MEMORY_H_

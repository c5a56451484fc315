#include "connectors/memory.h"

#include <algorithm>

#include "common/logging.h"
#include "testing/failpoints.h"

namespace sstreaming {

MemoryStream::MemoryStream(std::string name, SchemaPtr schema,
                           int num_partitions)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      num_partitions_(num_partitions) {
  SS_CHECK(num_partitions >= 1);
  partitions_.resize(static_cast<size_t>(num_partitions));
}

Status MemoryStream::AddData(const std::vector<Row>& rows) {
  SS_ASSIGN_OR_RETURN(RecordBatchPtr batch,
                      RecordBatch::FromRows(schema_, rows));
  const int n = num_partitions_;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = ingest_clock_ ? ingest_clock_->NowMicros() : 0;
  // Row k goes to partition (next_partition_ + k) % n.
  for (int k = 0; k < n && k < batch->num_rows(); ++k) {
    std::vector<int32_t> indices;
    for (int64_t i = k; i < batch->num_rows(); i += n) {
      indices.push_back(static_cast<int32_t>(i));
    }
    const int p = (next_partition_ + k) % n;
    SS_RETURN_IF_ERROR(partitions_[static_cast<size_t>(p)].AppendBatch(
        *batch->Gather(indices), now));
  }
  next_partition_ =
      static_cast<int>((next_partition_ + batch->num_rows()) % n);
  return Status::OK();
}

Status MemoryStream::AddDataToPartition(int partition,
                                        const std::vector<Row>& rows) {
  if (partition < 0 || partition >= num_partitions_) {
    return Status::OutOfRange("bad partition");
  }
  SS_ASSIGN_OR_RETURN(RecordBatchPtr batch,
                      RecordBatch::FromRows(schema_, rows));
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = ingest_clock_ ? ingest_clock_->NowMicros() : 0;
  return partitions_[static_cast<size_t>(partition)].AppendBatch(*batch, now);
}

Result<std::vector<int64_t>> MemoryStream::LatestOffsets() const {
  SS_FAILPOINT("source.get_offsets");
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> out;
  out.reserve(partitions_.size());
  for (const PartitionLog& log : partitions_) out.push_back(log.size());
  return out;
}

Result<RecordBatchPtr> MemoryStream::ReadPartition(int partition,
                                                   int64_t start,
                                                   int64_t end) const {
  SS_FAILPOINT("source.get_batch");
  if (partition < 0 || partition >= num_partitions_) {
    return Status::OutOfRange("bad partition");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const PartitionLog& log = partitions_[static_cast<size_t>(partition)];
  if (start < 0 || start > log.size() || end < start) {
    return Status::OutOfRange("bad offset range");
  }
  return log.ReadBatch(start, std::min(end, log.size()), schema_, nullptr);
}

int64_t MemoryStream::OldestIngestMicros(int partition, int64_t start,
                                         int64_t end) const {
  if (partition < 0 || partition >= num_partitions_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_[static_cast<size_t>(partition)].OldestIngestMicros(
      start, end);
}

Status MemorySink::CommitEpoch(int64_t epoch, OutputMode mode,
                               int num_key_columns,
                               const std::vector<RecordBatchPtr>& batches) {
  // Before any state mutates: a crash here loses the whole delivery.
  SS_FAILPOINT("sink.commit.before_apply");
  std::lock_guard<std::mutex> lock(mu_);
  switch (mode) {
    case OutputMode::kAppend: {
      std::vector<Row> rows;
      for (const auto& b : batches) {
        auto brows = b->ToRows();
        rows.insert(rows.end(), brows.begin(), brows.end());
      }
      append_epochs_[epoch] = std::move(rows);  // idempotent by epoch
      break;
    }
    case OutputMode::kUpdate: {
      if (num_key_columns <= 0) {
        return Status::InvalidArgument(
            "update mode requires key columns for upsert");
      }
      // Validate every batch before applying any: a rejected commit
      // leaves the table as it was.
      std::vector<TypeId> types = update_table_.types();
      for (const auto& b : batches) {
        if (num_key_columns > b->num_columns()) {
          return Status::InvalidArgument(
              "update mode has more key columns than the batch");
        }
        SS_RETURN_IF_ERROR(UpdateTable::CheckBatch(*b, &types));
      }
      if (epoch <= last_epoch_) break;  // stale recommit of an applied epoch
      for (const auto& b : batches) {
        update_table_.Upsert(*b, num_key_columns);
      }
      break;
    }
    case OutputMode::kComplete: {
      if (epoch < last_epoch_) break;  // stale recommit of an older epoch
      std::vector<Row> rows;
      for (const auto& b : batches) {
        auto brows = b->ToRows();
        rows.insert(rows.end(), brows.begin(), brows.end());
      }
      complete_table_ = std::move(rows);
      break;
    }
  }
  if (epoch > last_epoch_) last_epoch_ = epoch;
  ++committed_count_;
  // After the sink applied the epoch but before the engine learns it did:
  // recovery must re-deliver and the sink's idempotence must absorb it.
  SS_FAILPOINT("sink.commit.after_apply");
  return Status::OK();
}

Status MemorySink::UpdateTable::CheckBatch(const RecordBatch& batch,
                                           std::vector<TypeId>* types) {
  const size_t arity = static_cast<size_t>(batch.num_columns());
  if (types->empty()) types->assign(arity, TypeId::kNull);
  if (arity != types->size()) {
    return Status::InvalidArgument(
        "update mode batch has " + std::to_string(arity) +
        " columns, the table has " + std::to_string(types->size()));
  }
  for (size_t c = 0; c < arity; ++c) {
    const TypeId type = batch.column(static_cast<int>(c))->type();
    TypeId& have = (*types)[c];
    if (type == TypeId::kNull || type == have) continue;
    if (have == TypeId::kNull) {
      have = type;
      continue;
    }
    const std::string& name = batch.schema()->field(static_cast<int>(c)).name;
    return Status::InvalidArgument("update mode column " + name + " is " +
                                   TypeName(type) + ", the table's is " +
                                   TypeName(have));
  }
  return Status::OK();
}

std::vector<TypeId> MemorySink::UpdateTable::types() const {
  std::vector<TypeId> out;
  for (const Column& column : columns_) out.push_back(column.type());
  return out;
}

void MemorySink::UpdateTable::Upsert(const RecordBatch& batch,
                                     int num_key_columns) {
  const int64_t n = batch.num_rows();
  if (n == 0) return;
  const size_t arity = static_cast<size_t>(batch.num_columns());
  const size_t num_keys = static_cast<size_t>(num_key_columns);
  std::vector<const Column*> src(arity);
  for (size_t c = 0; c < arity; ++c) {
    src[c] = batch.column(static_cast<int>(c)).get();
  }
  if (columns_.empty()) columns_.assign(arity, Column(TypeId::kNull));
  for (size_t c = 0; c < arity; ++c) {
    // A column that holds only nulls takes the first real type it meets.
    if (columns_[c].type() == TypeId::kNull &&
        src[c]->type() != TypeId::kNull) {
      Column typed(src[c]->type());
      typed.AppendNulls(num_rows());
      columns_[c] = std::move(typed);
    }
  }
  // Hash the whole batch's keys first, one column kernel per key column:
  // the probe loop then knows every home slot in advance and prefetches a
  // fixed distance ahead.
  batch_hashes_.assign(static_cast<size_t>(batch.physical_rows()), 0);
  for (size_t c = 0; c < num_keys; ++c) src[c]->HashInto(&batch_hashes_);
  // Room for every row to be new, so no growth moves the slots mid-batch.
  index_.Reserve(static_cast<size_t>(n));
  constexpr int64_t kHomeAhead = 16;
  constexpr int64_t kRowAhead = 8;
  auto prefetch_row = [this](uint32_t r) {
    for (const Column& column : columns_) column.PrefetchValue(r);
  };
  for (int64_t i = 0; i < n; ++i) {
    if (i + kHomeAhead < n) {
      const int64_t ahead = batch.PhysIndex(i + kHomeAhead);
      index_.PrefetchHome(batch_hashes_[static_cast<size_t>(ahead)]);
    }
    if (i + kRowAhead < n) {
      const int64_t ahead = batch.PhysIndex(i + kRowAhead);
      index_.PrefetchMatch(batch_hashes_[static_cast<size_t>(ahead)],
                           prefetch_row);
    }
    const int64_t phys = batch.PhysIndex(i);
    const uint64_t hash = batch_hashes_[static_cast<size_t>(phys)];
    auto same_key = [&](uint32_t r) {
      for (size_t c = 0; c < num_keys; ++c) {
        if (!columns_[c].ValueEquals(r, *src[c], phys)) return false;
      }
      return true;
    };
    size_t slot;
    const uint32_t r = index_.Find(hash, same_key, &slot);
    if (r == KeyIndex::kAbsent) {
      index_.Insert(slot, hash, static_cast<uint32_t>(num_rows()));
      for (size_t c = 0; c < arity; ++c) columns_[c].AppendFrom(*src[c], phys);
      continue;
    }
    for (size_t c = num_keys; c < arity; ++c) {
      columns_[c].SetFrom(r, *src[c], phys);
    }
  }
}

void MemorySink::UpdateTable::AppendRowsTo(std::vector<Row>* out) const {
  const int64_t rows = num_rows();
  out->reserve(out->size() + static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    Row row;
    row.reserve(columns_.size());
    for (const Column& column : columns_) row.push_back(column.ValueAt(r));
    out->push_back(std::move(row));
  }
}

std::vector<Row> MemorySink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> out;
  for (const auto& [epoch, rows] : append_epochs_) {
    (void)epoch;
    out.insert(out.end(), rows.begin(), rows.end());
  }
  update_table_.AppendRowsTo(&out);
  out.insert(out.end(), complete_table_.begin(), complete_table_.end());
  return out;
}

std::vector<Row> MemorySink::SortedSnapshot() const {
  std::vector<Row> out = Snapshot();
  std::sort(out.begin(), out.end(), RowLess());
  return out;
}

int64_t MemorySink::num_committed_epochs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_count_;
}

int64_t MemorySink::last_committed_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_epoch_;
}

}  // namespace sstreaming

#include "connectors/memory.h"

#include <algorithm>
#include <string_view>

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
      int arity = update_table_.arity();
      for (const auto& b : batches) {
        if (num_key_columns > b->num_columns()) {
          return Status::InvalidArgument(
              "update mode has more key columns than the batch");
        }
        if (arity >= 0 && b->num_columns() != arity) {
          return Status::InvalidArgument(
              "update mode batch has " + std::to_string(b->num_columns()) +
              " columns, the table has " + std::to_string(arity));
        }
        arity = b->num_columns();
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

void MemorySink::UpdateTable::Upsert(const RecordBatch& batch,
                                     int num_key_columns) {
  const int64_t n = batch.num_rows();
  if (n == 0) return;
  arity_ = batch.num_columns();
  // Encode and hash the whole batch's keys first: the probe loop then
  // knows every home slot in advance and prefetches a fixed distance ahead.
  batch_keys_.clear();
  batch_ends_.clear();
  batch_hashes_.clear();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t phys = batch.PhysIndex(i);
    const size_t begin = batch_keys_.size();
    for (int c = 0; c < num_key_columns; ++c) {
      batch.column(c)->EncodeValueTo(phys, &batch_keys_);
    }
    batch_ends_.push_back(batch_keys_.size());
    batch_hashes_.push_back(HashBytes(batch_keys_.data() + begin,
                                      batch_keys_.size() - begin, 0));
  }
  // Room for every row to be new, so no growth moves the slots mid-batch.
  index_.Reserve(static_cast<size_t>(n));
  auto key_of = [this](uint32_t r) {
    return std::string_view(keys_).substr(
        key_offsets_[r], key_offsets_[r + 1] - key_offsets_[r]);
  };
  constexpr int64_t kPrefetchDistance = 16;
  size_t key_begin = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      const size_t ahead = static_cast<size_t>(i + kPrefetchDistance);
      index_.PrefetchHome(batch_hashes_[ahead]);
    }
    const size_t key_end = batch_ends_[static_cast<size_t>(i)];
    const std::string_view key(batch_keys_.data() + key_begin,
                               key_end - key_begin);
    key_begin = key_end;
    const uint64_t hash = batch_hashes_[static_cast<size_t>(i)];
    const int64_t phys = batch.PhysIndex(i);
    size_t slot;
    const uint32_t r = index_.Find(key, hash, key_of, &slot);
    if (r == KeyIndex::kAbsent) {
      index_.Insert(slot, hash, static_cast<uint32_t>(num_rows()));
      for (int c = 0; c < arity_; ++c) {
        cells_.push_back(batch.column(c)->ValueAt(phys));
      }
      keys_ += key;
      key_offsets_.push_back(keys_.size());
      continue;
    }
    Value* row = &cells_[r * static_cast<size_t>(arity_)];
    for (int c = num_key_columns; c < arity_; ++c) {
      row[c] = batch.column(c)->ValueAt(phys);
    }
  }
}

void MemorySink::UpdateTable::AppendRowsTo(std::vector<Row>* out) const {
  out->reserve(out->size() + num_rows());
  for (auto cell = cells_.begin(); cell != cells_.end(); cell += arity_) {
    out->emplace_back(cell, cell + arity_);
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

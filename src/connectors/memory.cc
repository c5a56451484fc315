#include "connectors/memory.h"

#include <algorithm>
#include <bit>
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
      for (const auto& b : batches) {
        if (num_key_columns > b->num_columns()) {
          return Status::InvalidArgument(
              "update mode has more key columns than the batch");
        }
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
  const int num_columns = batch.num_columns();
  std::string key;
  for (int64_t i = 0; i < batch.num_rows(); ++i) {
    const int64_t phys = batch.PhysIndex(i);
    key.clear();
    for (int c = 0; c < num_key_columns; ++c) {
      batch.column(c)->EncodeValueTo(phys, &key);
    }
    const uint64_t hash = HashBytes(key.data(), key.size(), 0);
    if ((rows_.size() + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t s = Home(hash);; s = (s + 1) & mask) {
      Slot& slot = slots_[s];
      if (slot.row < 0) {
        slot.hash = hash;
        slot.row = static_cast<int64_t>(rows_.size());
        rows_.push_back(batch.RowAt(i));
        keys_ += key;
        key_offsets_.push_back(keys_.size());
        break;
      }
      if (slot.hash != hash) continue;
      const size_t r = static_cast<size_t>(slot.row);
      const size_t begin = key_offsets_[r];
      if (std::string_view(keys_).substr(begin, key_offsets_[r + 1] - begin) !=
          key) {
        continue;
      }
      Row& row = rows_[r];
      for (int c = num_key_columns; c < num_columns; ++c) {
        row[static_cast<size_t>(c)] = batch.column(c)->ValueAt(phys);
      }
      break;
    }
  }
}

void MemorySink::UpdateTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  shift_ = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.row < 0) continue;
    size_t s = Home(slot.hash);
    while (slots_[s].row >= 0) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

std::vector<Row> MemorySink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> out;
  for (const auto& [epoch, rows] : append_epochs_) {
    (void)epoch;
    out.insert(out.end(), rows.begin(), rows.end());
  }
  const std::vector<Row>& updated = update_table_.rows();
  out.insert(out.end(), updated.begin(), updated.end());
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

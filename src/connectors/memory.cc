#include "connectors/memory.h"

#include <algorithm>
#include <array>
#include <type_traits>

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

namespace {

// One column of an upsert: the table's column, the batch's, and whether
// either holds a null (else the cell kernels touch no validity byte).
struct UpsertColumn {
  Column* dst;
  const Column* src;
  bool nulls;
};

// An upsert's columns grouped by physical kind (indexed by PhysicalKind),
// the key columns apart from the rest. The grouping is the batch's one kind
// dispatch: the row loop runs each group's typed cell kernels over its
// columns.
using KindGroups = std::array<std::vector<UpsertColumn>, 5>;
struct UpsertColumns {
  KindGroups keys;
  KindGroups values;
};

// The row loop's cell work over the kind groups Ks (the others are empty).
template <PhysicalKind... Ks>
struct UpsertKernels {
  // Calls f(column, kind) for each column of the groups Ks, in kind order,
  // until f returns false; true if it never did.
  template <typename F>
  [[gnu::always_inline]] static bool ForEach(const KindGroups& groups,
                                             const F& f) {
    auto group = [&](auto kind) {
      for (const UpsertColumn& c : groups[static_cast<size_t>(kind.value)]) {
        if (!f(c, kind)) return false;
      }
      return true;
    };
    return (group(std::integral_constant<PhysicalKind, Ks>()) && ...);
  }
  // The key columns of table row r equal those of batch row j.
  [[gnu::always_inline]] static bool SameKey(const UpsertColumns& cols,
                                             uint32_t r, int64_t j) {
    return ForEach(cols.keys, [&](const UpsertColumn& c, auto kind) {
      return c.dst->template CellEquals<decltype(kind)::value>(r, *c.src, j,
                                                               c.nulls);
    });
  }
  // Overwrites table row r's non-key cells with batch row j's.
  [[gnu::always_inline]] static void Set(const UpsertColumns& cols,
                                         uint32_t r, int64_t j) {
    ForEach(cols.values, [&](const UpsertColumn& c, auto kind) {
      c.dst->template SetCell<decltype(kind)::value>(r, *c.src, j, c.nulls);
      return true;
    });
  }
  // Appends batch row j as a new table row.
  [[gnu::always_inline]] static void Append(const UpsertColumns& cols,
                                            int64_t j) {
    auto append = [&](const UpsertColumn& c, auto kind) {
      c.dst->template AppendCell<decltype(kind)::value>(*c.src, j, c.nulls);
      return true;
    };
    ForEach(cols.keys, append);
    ForEach(cols.values, append);
  }
  // Cache hint for table row r's cells.
  [[gnu::always_inline]] static void Prefetch(const UpsertColumns& cols,
                                              uint32_t r) {
    auto prefetch = [&](const UpsertColumn& c, auto kind) {
      c.dst->template PrefetchCell<decltype(kind)::value>(r, c.nulls);
      return true;
    };
    ForEach(cols.keys, prefetch);
    ForEach(cols.values, prefetch);
  }
};

// The upsert's row loop, over the kind groups `Kernels` visits. One pass:
// each row's probe, key compare and overwrite run while the prefetched
// row's lines are in cache.
template <typename Kernels>
void UpsertRows(const RecordBatch& batch, const UpsertColumns& cols,
                const std::vector<uint64_t>& hashes, const Column& first,
                KeyIndex* index) {
  constexpr int64_t kHomeAhead = 16;
  constexpr int64_t kRowAhead = 8;
  auto prefetch_row = [&cols](uint32_t r) { Kernels::Prefetch(cols, r); };
  const int64_t n = batch.num_rows();
  for (int64_t i = 0; i < n; ++i) {
    if (i + kHomeAhead < n) {
      const int64_t ahead = batch.PhysIndex(i + kHomeAhead);
      index->PrefetchHome(hashes[static_cast<size_t>(ahead)]);
    }
    if (i + kRowAhead < n) {
      const int64_t ahead = batch.PhysIndex(i + kRowAhead);
      index->PrefetchMatch(hashes[static_cast<size_t>(ahead)], prefetch_row);
    }
    const int64_t phys = batch.PhysIndex(i);
    const uint64_t hash = hashes[static_cast<size_t>(phys)];
    size_t slot;
    const uint32_t r = index->Find(
        hash, [&](uint32_t row) { return Kernels::SameKey(cols, row, phys); },
        &slot);
    if (r == KeyIndex::kAbsent) {
      index->Insert(slot, hash, static_cast<uint32_t>(first.size()));
      Kernels::Append(cols, phys);
      continue;
    }
    Kernels::Set(cols, r, phys);
  }
}

}  // namespace

void MemorySink::UpdateTable::Upsert(const RecordBatch& batch,
                                     int num_key_columns) {
  const int64_t n = batch.num_rows();
  if (n == 0) return;
  const size_t arity = static_cast<size_t>(batch.num_columns());
  const size_t num_keys = static_cast<size_t>(num_key_columns);
  if (columns_.empty()) columns_.assign(arity, Column(TypeId::kNull));
  UpsertColumns cols;
  bool all_int64 = true;
  for (size_t c = 0; c < arity; ++c) {
    const Column* src = batch.column(static_cast<int>(c)).get();
    // A column that holds only nulls takes the first real type it meets.
    if (columns_[c].type() == TypeId::kNull &&
        src->type() != TypeId::kNull) {
      Column typed(src->type());
      typed.AppendNulls(num_rows());
      columns_[c] = std::move(typed);
    }
    Column* dst = &columns_[c];
    const PhysicalKind kind = PhysicalKindOf(dst->type());
    all_int64 = all_int64 && kind == PhysicalKind::kInt64;
    auto& groups = c < num_keys ? cols.keys : cols.values;
    groups[static_cast<size_t>(kind)].push_back(
        UpsertColumn{dst, src, dst->has_nulls() || src->has_nulls()});
  }
  // Hash the whole batch's keys first, one column kernel per key column:
  // the probe loop then knows every home slot in advance and prefetches a
  // fixed distance ahead.
  batch_hashes_.assign(static_cast<size_t>(batch.physical_rows()), 0);
  for (size_t c = 0; c < num_keys; ++c) {
    batch.column(static_cast<int>(c))->HashInto(&batch_hashes_);
  }
  // Room for every row to be new, so no growth moves the slots mid-batch.
  index_.Reserve(static_cast<size_t>(n));
  // Int64-backed columns only (ints, timestamps, counts, window bounds:
  // the common result table) visit one kind group per row; any other mix
  // visits all five.
  if (all_int64) {
    UpsertRows<UpsertKernels<PhysicalKind::kInt64>>(batch, cols, batch_hashes_,
                                                    columns_[0], &index_);
  } else {
    UpsertRows<UpsertKernels<PhysicalKind::kNone, PhysicalKind::kBool,
                             PhysicalKind::kInt64, PhysicalKind::kFloat64,
                             PhysicalKind::kString>>(
        batch, cols, batch_hashes_, columns_[0], &index_);
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

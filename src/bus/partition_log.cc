#include "bus/partition_log.h"

#include <algorithm>
#include <string>

namespace sstreaming {

namespace {

Status ArityMismatch(size_t got, size_t want) {
  return Status::InvalidArgument("record arity " + std::to_string(got) +
                                 " does not match partition arity " +
                                 std::to_string(want));
}

Status TypeMismatch(size_t column, TypeId got, TypeId want) {
  return Status::InvalidArgument(
      std::string("value of type ") + TypeName(got) + " does not fit column " +
      std::to_string(column) + " of type " + TypeName(want));
}

// Folds a non-null value's type into the type its column will hold (kNull =
// not yet typed); false on a conflict.
bool Unify(TypeId* column, TypeId value) {
  if (*column == TypeId::kNull) *column = value;
  return *column == value;
}

}  // namespace

std::vector<TypeId> PartitionLog::ColumnTypes(size_t arity) const {
  std::vector<TypeId> types(arity, TypeId::kNull);
  for (size_t c = 0; c < columns_.size(); ++c) types[c] = columns_[c].type();
  return types;
}

void PartitionLog::AdoptTypes(const std::vector<TypeId>& types) {
  columns_.resize(types.size(), Column(TypeId::kNull));
  for (size_t c = 0; c < types.size(); ++c) {
    if (columns_[c].type() == types[c]) continue;
    Column retyped(types[c]);
    retyped.AppendNulls(size());
    columns_[c] = std::move(retyped);
  }
}

Status PartitionLog::AppendRows(std::span<const Row> rows,
                                int64_t ingest_micros) {
  if (rows.empty()) return Status::OK();
  const size_t arity = size() > 0 ? columns_.size() : rows[0].size();
  std::vector<TypeId> types = ColumnTypes(arity);
  for (const Row& row : rows) {
    if (row.size() != arity) return ArityMismatch(row.size(), arity);
    for (size_t c = 0; c < arity; ++c) {
      const Value& v = row[c];
      if (!v.is_null() && !Unify(&types[c], v.type())) {
        return TypeMismatch(c, v.type(), types[c]);
      }
    }
  }
  AdoptTypes(types);
  for (size_t c = 0; c < arity; ++c) {
    Column& column = columns_[c];
    for (const Row& row : rows) column.AppendValue(row[c]);
  }
  AddStamps(static_cast<int64_t>(rows.size()), ingest_micros);
  return Status::OK();
}

Status PartitionLog::AppendBatch(const RecordBatch& batch,
                                 int64_t ingest_micros) {
  const int64_t n = batch.num_rows();
  if (n == 0) return Status::OK();
  const size_t arity = static_cast<size_t>(batch.num_columns());
  if (size() > 0 && arity != columns_.size()) {
    return ArityMismatch(arity, columns_.size());
  }
  std::vector<TypeId> types = ColumnTypes(arity);
  for (size_t c = 0; c < arity; ++c) {
    const Column& in = *batch.column(static_cast<int>(c));
    if (in.null_count() < in.size() && !Unify(&types[c], in.type())) {
      return TypeMismatch(c, in.type(), types[c]);
    }
  }
  AdoptTypes(types);
  for (size_t c = 0; c < arity; ++c) {
    batch.AppendColumnRange(static_cast<int>(c), 0, n, &columns_[c]);
  }
  AddStamps(n, ingest_micros);
  return Status::OK();
}

Result<RecordBatchPtr> PartitionLog::ReadBatch(
    int64_t start, int64_t end, const SchemaPtr& schema,
    const std::vector<int>* projection) const {
  if (end <= start) return RecordBatch::Empty(schema);
  std::vector<ColumnPtr> out;
  out.reserve(static_cast<size_t>(schema->num_fields()));
  for (int f = 0; f < schema->num_fields(); ++f) {
    const Field& field = schema->field(f);
    const size_t src = static_cast<size_t>(
        projection == nullptr ? f : (*projection)[static_cast<size_t>(f)]);
    if (src >= columns_.size()) {
      return Status::InvalidArgument("record arity does not match schema");
    }
    const Column& stored = columns_[src];
    if (stored.type() != TypeId::kNull &&
        PhysicalKindOf(stored.type()) != PhysicalKindOf(field.type)) {
      return Status::InvalidArgument(
          std::string("stored column of type ") + TypeName(stored.type()) +
          " cannot be read as field '" + field.name + "' of type " +
          TypeName(field.type));
    }
    ColumnPtr column = Column::Make(field.type);
    column->AppendRange(stored, start, end - start);
    out.push_back(std::move(column));
  }
  return RecordBatch::Make(schema, std::move(out));
}

std::vector<Row> PartitionLog::ReadRows(int64_t start, int64_t end) const {
  std::vector<Row> rows;
  if (end <= start) return rows;
  rows.resize(static_cast<size_t>(end - start));
  for (int64_t i = start; i < end; ++i) {
    Row& row = rows[static_cast<size_t>(i - start)];
    row.reserve(columns_.size());
    for (const Column& column : columns_) row.push_back(column.ValueAt(i));
  }
  return rows;
}

void PartitionLog::AddStamps(int64_t n, int64_t ingest_micros) {
  if (ingest_.empty() || ingest_.back().micros != ingest_micros) {
    ingest_.push_back(IngestRun{size_, ingest_micros});
  }
  size_ += n;
}

int64_t PartitionLog::OldestIngestMicros(int64_t start, int64_t end) const {
  if (start < 0) start = 0;
  if (end > size()) end = size();
  if (start >= end) return 0;
  // The run holding `start`: the last one that begins at or before it.
  auto run = std::upper_bound(
      ingest_.begin(), ingest_.end(), start,
      [](int64_t offset, const IngestRun& r) { return offset < r.first; });
  --run;
  // Undated records (stamp 0) don't pull the minimum to zero.
  int64_t oldest = 0;
  for (; run != ingest_.end() && run->first < end; ++run) {
    const int64_t s = run->micros;
    if (s > 0 && (oldest == 0 || s < oldest)) oldest = s;
  }
  return oldest;
}

}  // namespace sstreaming

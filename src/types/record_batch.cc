#include "types/record_batch.h"

#include <cstring>

#include "common/logging.h"

namespace sstreaming {

RecordBatch::RecordBatch(SchemaPtr schema, std::vector<ColumnPtr> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  SS_CHECK(schema_ != nullptr);
  SS_CHECK(static_cast<int>(columns_.size()) == schema_->num_fields())
      << "batch has " << columns_.size() << " columns but schema has "
      << schema_->num_fields();
  num_rows_ = columns_.empty() ? 0 : columns_[0]->size();
  for (const ColumnPtr& c : columns_) {
    SS_CHECK(c->size() == num_rows_) << "ragged batch";
  }
}

std::shared_ptr<RecordBatch> RecordBatch::Empty(SchemaPtr schema) {
  std::vector<ColumnPtr> columns;
  columns.reserve(static_cast<size_t>(schema->num_fields()));
  for (const Field& f : schema->fields()) {
    columns.push_back(Column::Make(f.type));
  }
  return Make(std::move(schema), std::move(columns));
}

Result<std::shared_ptr<RecordBatch>> RecordBatch::FromRows(
    SchemaPtr schema, const std::vector<Row>& rows) {
  BatchBuilder builder(std::move(schema));
  builder.Reserve(static_cast<int64_t>(rows.size()));
  for (const Row& row : rows) SS_RETURN_IF_ERROR(builder.AppendRow(row));
  return builder.Finish();
}

RecordBatchPtr RecordBatch::MakeView(const RecordBatchPtr& base,
                                     SelectionVector selection) {
  SS_CHECK(base != nullptr);
  if (base->has_selection_) {
    // Compose: incoming indices are logical rows of `base`; rebase them
    // onto physical storage so views never chain.
    std::vector<int32_t> composed(static_cast<size_t>(selection.size));
    for (int64_t i = 0; i < selection.size; ++i) {
      composed[static_cast<size_t>(i)] =
          base->selection_.data[selection.data[i]];
    }
    selection = SelectionVector::FromVector(std::move(composed));
  }
  auto view = std::make_shared<RecordBatch>(base->schema_, base->columns_);
  view->num_rows_ = selection.size;
  view->has_selection_ = true;
  view->selection_ = std::move(selection);
  view->ingest_micros_ = base->ingest_micros_;
  return view;
}

RecordBatchPtr RecordBatch::Materialize(const RecordBatchPtr& batch) {
  if (batch == nullptr || !batch->has_selection_) return batch;
  std::vector<ColumnPtr> out_columns;
  out_columns.reserve(batch->columns_.size());
  for (const ColumnPtr& in : batch->columns_) {
    ColumnPtr out = Column::Make(in->type());
    out->Reserve(batch->num_rows_);
    out->AppendGather(*in, batch->selection_.data, batch->num_rows_);
    out_columns.push_back(std::move(out));
  }
  auto compact = Make(batch->schema_, std::move(out_columns));
  compact->set_ingest_micros(batch->ingest_micros_);
  return compact;
}

Row RecordBatch::RowAt(int64_t i) const {
  Row row;
  row.reserve(columns_.size());
  const int64_t p = PhysIndex(i);
  for (const ColumnPtr& c : columns_) row.push_back(c->ValueAt(p));
  return row;
}

std::vector<Row> RecordBatch::ToRows() const {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(num_rows_));
  for (int64_t i = 0; i < num_rows_; ++i) rows.push_back(RowAt(i));
  return rows;
}

std::shared_ptr<RecordBatch> RecordBatch::Filter(
    const std::vector<uint8_t>& mask) const {
  SS_CHECK(static_cast<int64_t>(mask.size()) == num_rows_);
  std::vector<int32_t> rows;
  for (int64_t i = 0; i < num_rows_; ++i) {
    if (mask[static_cast<size_t>(i)]) {
      rows.push_back(static_cast<int32_t>(PhysIndex(i)));
    }
  }
  return GatherPhysical(rows);
}

std::shared_ptr<RecordBatch> RecordBatch::SelectColumns(
    const std::vector<int>& indices) const {
  std::vector<Field> fields;
  std::vector<ColumnPtr> cols;
  fields.reserve(indices.size());
  cols.reserve(indices.size());
  for (int idx : indices) {
    SS_CHECK(idx >= 0 && idx < num_columns());
    fields.push_back(schema_->field(idx));
    cols.push_back(columns_[static_cast<size_t>(idx)]);
  }
  auto out = Make(Schema::Make(std::move(fields)), std::move(cols));
  if (has_selection_) {
    // Column sharing keeps the physical storage; the selection rides along.
    out->num_rows_ = num_rows_;
    out->has_selection_ = true;
    out->selection_ = selection_;
  }
  out->set_ingest_micros(ingest_micros_);
  return out;
}

std::shared_ptr<RecordBatch> RecordBatch::Slice(int64_t start,
                                                int64_t length) const {
  SS_CHECK(start >= 0 && start + length <= num_rows_);
  std::vector<ColumnPtr> out_columns;
  out_columns.reserve(columns_.size());
  for (int c = 0; c < num_columns(); ++c) {
    ColumnPtr out = Column::Make(columns_[static_cast<size_t>(c)]->type());
    AppendColumnRange(c, start, length, out.get());
    out_columns.push_back(std::move(out));
  }
  auto sliced = Make(schema_, std::move(out_columns));
  sliced->set_ingest_micros(ingest_micros_);
  return sliced;
}

void RecordBatch::AppendColumnRange(int c, int64_t start, int64_t length,
                                    Column* out) const {
  const Column& in = *columns_[static_cast<size_t>(c)];
  if (!has_selection_) {
    out->AppendRange(in, start, length);
    return;
  }
  out->AppendGather(in, selection_.data + start, length);
}

std::shared_ptr<RecordBatch> RecordBatch::Gather(
    const std::vector<int32_t>& indices) const {
  if (!has_selection_) return GatherPhysical(indices);
  // Gather indices address logical rows; map them through the selection
  // once, then every column gathers physical rows.
  std::vector<int32_t> rows(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    rows[i] = selection_.data[indices[i]];
  }
  return GatherPhysical(rows);
}

RecordBatchPtr RecordBatch::GatherPhysical(
    const std::vector<int32_t>& rows) const {
  const auto n = static_cast<int64_t>(rows.size());
  std::vector<ColumnPtr> out_columns;
  out_columns.reserve(columns_.size());
  for (const ColumnPtr& in : columns_) {
    ColumnPtr out = Column::Make(in->type());
    out->Reserve(n);
    out->AppendGather(*in, rows.data(), n);
    out_columns.push_back(std::move(out));
  }
  auto gathered = Make(schema_, std::move(out_columns));
  gathered->set_ingest_micros(ingest_micros_);
  return gathered;
}

std::shared_ptr<RecordBatch> RecordBatch::Concat(
    SchemaPtr schema,
    const std::vector<std::shared_ptr<RecordBatch>>& batches) {
  if (batches.size() == 1) return batches[0];
  int64_t total_rows = 0;
  for (const auto& batch : batches) total_rows += batch->num_rows();
  std::vector<ColumnPtr> columns;
  columns.reserve(static_cast<size_t>(schema->num_fields()));
  for (int ci = 0; ci < schema->num_fields(); ++ci) {
    ColumnPtr out = Column::Make(schema->field(ci).type);
    out->Reserve(total_rows);
    for (const auto& batch : batches) {
      batch->AppendColumnRange(ci, 0, batch->num_rows(), out.get());
    }
    columns.push_back(std::move(out));
  }
  auto merged = Make(std::move(schema), std::move(columns));
  // Oldest contributing record wins: latency must not shrink by merging.
  int64_t oldest = 0;
  for (const auto& batch : batches) {
    int64_t m = batch->ingest_micros();
    if (m > 0 && (oldest == 0 || m < oldest)) oldest = m;
  }
  merged->set_ingest_micros(oldest);
  return merged;
}

int64_t RecordBatch::ApproxBytes() const {
  int64_t total = 0;
  for (const ColumnPtr& col : columns_) total += col->ApproxBytes();
  return total;
}

std::string RecordBatch::ToString() const {
  std::string out = schema_->ToString();
  out += "\n";
  for (int64_t i = 0; i < num_rows_; ++i) {
    out += RowToString(RowAt(i));
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// BatchBuilder
// ---------------------------------------------------------------------------

BatchBuilder::BatchBuilder(SchemaPtr schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_->num_fields()));
  for (const Field& f : schema_->fields()) {
    columns_.push_back(Column::Make(f.type));
  }
}

void BatchBuilder::Reserve(int64_t rows) {
  for (const ColumnPtr& c : columns_) c->Reserve(rows);
}

Status BatchBuilder::CheckFits(int i, TypeId got) const {
  const Field& field = schema_->field(i);
  const TypeId expect = field.type;
  const bool compatible =
      got == expect || (expect == TypeId::kFloat64 && IsNumeric(got)) ||
      (PhysicalKindOf(expect) == PhysicalKind::kInt64 &&
       PhysicalKindOf(got) == PhysicalKind::kInt64);
  if (compatible) return Status::OK();
  return Status::InvalidArgument(std::string("value of type ") +
                                 TypeName(got) + " does not fit column '" +
                                 field.name + "' of type " + TypeName(expect));
}

Status BatchBuilder::AppendRow(const Row& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match schema arity " +
        std::to_string(schema_->num_fields()));
  }
  // Check the whole row first: a rejected row appends nothing.
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null()) {
      SS_RETURN_IF_ERROR(CheckFits(static_cast<int>(i), row[i].type()));
    }
  }
  for (size_t i = 0; i < row.size(); ++i) columns_[i]->AppendValue(row[i]);
  return Status::OK();
}

Status BatchBuilder::AppendCell(int i, const Value& v) {
  if (!v.is_null()) SS_RETURN_IF_ERROR(CheckFits(i, v.type()));
  column(i).AppendValue(v);
  return Status::OK();
}

Status BatchBuilder::AppendEncoded(int i, std::string_view data,
                                   size_t* pos) {
  EncodedValue v;
  SS_RETURN_IF_ERROR(ReadEncodedValue(data, pos, &v));
  return AppendEncoded(i, v);
}

Status BatchBuilder::AppendEncoded(int i, const EncodedValue& v) {
  Column& col = column(i);
  if (v.type == TypeId::kNull) {
    col.AppendNull();
    return Status::OK();
  }
  SS_RETURN_IF_ERROR(CheckFits(i, v.type));
  switch (PhysicalKindOf(v.type)) {
    case PhysicalKind::kBool:
      col.AppendBool(v.bits != 0);
      break;
    case PhysicalKind::kInt64:
      if (col.type() == TypeId::kFloat64) {
        col.AppendFloat64(static_cast<double>(static_cast<int64_t>(v.bits)));
      } else {
        col.AppendInt64(static_cast<int64_t>(v.bits));
      }
      break;
    case PhysicalKind::kFloat64: {
      double d;
      std::memcpy(&d, &v.bits, 8);
      col.AppendFloat64(d);
      break;
    }
    case PhysicalKind::kString:
      col.AppendString(std::string(v.str));
      break;
    case PhysicalKind::kNone:
      break;
  }
  return Status::OK();
}

RecordBatchPtr BatchBuilder::Finish() {
  return RecordBatch::Make(schema_, std::move(columns_));
}

}  // namespace sstreaming

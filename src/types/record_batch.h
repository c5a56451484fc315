#ifndef SSTREAMING_TYPES_RECORD_BATCH_H_
#define SSTREAMING_TYPES_RECORD_BATCH_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "types/column.h"
#include "types/row.h"
#include "types/schema.h"
#include "types/selection_vector.h"

namespace sstreaming {

class RecordBatch;
using RecordBatchPtr = std::shared_ptr<RecordBatch>;

/// A horizontal slice of a table: a schema plus one Column per field, all of
/// equal length. Batches are immutable after construction and shared by
/// pointer between operators.
///
/// A batch may carry a selection vector (docs/VECTORIZED_EXEC.md): the
/// columns then hold physical_rows() rows of which only the selected
/// num_rows() are logically present, in selection order. All row-level
/// accessors (RowAt, Filter, Slice, Gather, Concat, ToRows, ToString) see
/// the logical view; Column-level accessors (column(i)->Int64At etc.) see
/// physical storage and must be indexed through selection() — or the batch
/// materialized first. Vectorized expression evaluation (Expr::EvalBatch)
/// requires a batch WITHOUT a selection.
class RecordBatch {
 public:
  RecordBatch(SchemaPtr schema, std::vector<ColumnPtr> columns);

  static std::shared_ptr<RecordBatch> Make(SchemaPtr schema,
                                           std::vector<ColumnPtr> columns) {
    return std::make_shared<RecordBatch>(std::move(schema),
                                         std::move(columns));
  }

  /// An empty batch with the given schema.
  static std::shared_ptr<RecordBatch> Empty(SchemaPtr schema);

  /// Builds a batch by boxing rows (test/constructor convenience).
  static Result<std::shared_ptr<RecordBatch>> FromRows(
      SchemaPtr schema, const std::vector<Row>& rows);

  const SchemaPtr& schema() const { return schema_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }
  const ColumnPtr& column(int i) const {
    return columns_[static_cast<size_t>(i)];
  }
  const std::vector<ColumnPtr>& columns() const { return columns_; }

  /// Boxes row i. Not for inner loops.
  Row RowAt(int64_t i) const;
  /// Boxes all rows.
  std::vector<Row> ToRows() const;

  /// Keeps rows where mask[i] != 0. `mask` must have num_rows entries.
  std::shared_ptr<RecordBatch> Filter(const std::vector<uint8_t>& mask) const;

  /// Projects the given column indices (with the matching schema).
  std::shared_ptr<RecordBatch> SelectColumns(
      const std::vector<int>& indices) const;

  /// Rows [start, start+length).
  std::shared_ptr<RecordBatch> Slice(int64_t start, int64_t length) const;

  /// Rows at the given indices, in order (typed gather, no boxing).
  std::shared_ptr<RecordBatch> Gather(
      const std::vector<int32_t>& indices) const;

  /// Appends logical rows [start, start+length) of column `c` to `out`: one
  /// bulk range copy (Column::AppendRange) without a selection, a typed
  /// gather through it otherwise.
  void AppendColumnRange(int c, int64_t start, int64_t length,
                         Column* out) const;

  /// Concatenates batches sharing a schema. Empty input yields Empty(schema).
  static std::shared_ptr<RecordBatch> Concat(
      SchemaPtr schema,
      const std::vector<std::shared_ptr<RecordBatch>>& batches);

  // --- Selection vectors (docs/VECTORIZED_EXEC.md) ---

  /// Zero-copy restriction of `base` to the physical row indices in
  /// `selection` (logical order). Shares `base`'s column storage. If `base`
  /// itself carries a selection, the indices are interpreted as *logical*
  /// rows of `base` and composed, so the result always indexes physical
  /// storage directly.
  static RecordBatchPtr MakeView(const RecordBatchPtr& base,
                                 SelectionVector selection);

  /// Compacts a selection view into a plain batch (one typed gather per
  /// column). Returns `batch` unchanged — no copy — when it carries no
  /// selection. Preserves ingest_micros.
  static RecordBatchPtr Materialize(const RecordBatchPtr& batch);

  bool has_selection() const { return has_selection_; }
  const SelectionVector& selection() const { return selection_; }
  /// Rows physically present in the columns (== num_rows() when there is no
  /// selection).
  int64_t physical_rows() const {
    return columns_.empty() ? 0 : columns_[0]->size();
  }
  /// Physical storage index of logical row i.
  int64_t PhysIndex(int64_t i) const {
    return has_selection_ ? selection_.data[i] : i;
  }

  /// Approximate in-memory footprint in bytes (sum of the columns' payload
  /// sizes; O(num_columns)). Feeds the per-operator output-bytes actuals and
  /// the memory-accounting gauges.
  int64_t ApproxBytes() const;

  /// Ingest timestamp (clock micros) of the oldest source record that
  /// contributed to this batch, or 0 when unknown. Stamped once by the
  /// source scan and carried through row-shape transformations (filter,
  /// project, slice, gather, concat); operators that materialize entirely
  /// new batches (aggregation, state flush) drop the stamp and the epoch's
  /// minimum is used as a fallback for sink-side latency measurement.
  int64_t ingest_micros() const { return ingest_micros_; }
  void set_ingest_micros(int64_t micros) { ingest_micros_ = micros; }

  /// Debug table rendering (header + all rows).
  std::string ToString() const;

 private:
  /// Rows at the given physical storage indices, in order: one
  /// Column::AppendGather per column. Keeps ingest_micros.
  RecordBatchPtr GatherPhysical(const std::vector<int32_t>& rows) const;

  SchemaPtr schema_;
  std::vector<ColumnPtr> columns_;
  /// Logical row count: selection size when a selection is engaged,
  /// otherwise the columns' physical length.
  int64_t num_rows_;
  bool has_selection_ = false;
  SelectionVector selection_;
  /// Latency provenance, not data: excluded from equality/rendering. The one
  /// mutable-after-construction field, set only before a batch is shared.
  int64_t ingest_micros_ = 0;
};

/// Builds a batch of `schema` cell by cell. Typed producers append straight
/// to column(i); AppendRow boxes a whole row and AppendCell one value, both
/// with FromRows' type checks; AppendEncoded decodes one value of the state
/// codec (Value::EncodeTo) into its column without boxing. A value whose
/// type does not fit its column is InvalidArgument and appends nothing, so
/// no column is ever silently mis-typed. Finish hands the columns to a
/// batch; the caller keeps them equal in length.
class BatchBuilder {
 public:
  explicit BatchBuilder(SchemaPtr schema);

  Column& column(int i) { return *columns_[static_cast<size_t>(i)]; }
  /// Rows appended so far (the first column's length; 0 without columns).
  int64_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0]->size();
  }
  void Reserve(int64_t rows);

  Status AppendRow(const Row& row);
  Status AppendCell(int i, const Value& v);
  /// Decodes the value at data[*pos] into column i, advancing *pos.
  Status AppendEncoded(int i, std::string_view data, size_t* pos);
  /// Appends a value read in place (ReadEncodedValue) to column i.
  Status AppendEncoded(int i, const EncodedValue& v);

  RecordBatchPtr Finish();

 private:
  /// FromRows' rule: a non-null value of type `got` fits column i.
  Status CheckFits(int i, TypeId got) const;

  SchemaPtr schema_;
  std::vector<ColumnPtr> columns_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_TYPES_RECORD_BATCH_H_

#ifndef SSTREAMING_EXPR_AGGREGATE_H_
#define SSTREAMING_EXPR_AGGREGATE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "expr/expression.h"
#include "types/column.h"
#include "types/record_batch.h"
#include "types/schema.h"

namespace sstreaming {

/// Supported aggregate functions (paper §4.1 uses count and avg; windowed
/// counts drive the Yahoo! benchmark).
enum class AggFunc { kCount, kCountAll, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc func);

/// One aggregate in an Aggregate plan node: a function over an argument
/// expression (null for count(*)), with an output column name.
struct AggSpec {
  AggFunc func;
  ExprPtr arg;       // nullptr for kCountAll
  std::string name;  // output column name

  std::string ToString() const;
};

AggSpec CountAll(std::string name = "count");
AggSpec CountOf(ExprPtr arg, std::string name = "count");
AggSpec SumOf(ExprPtr arg, std::string name = "sum");
AggSpec MinOf(ExprPtr arg, std::string name = "min");
AggSpec MaxOf(ExprPtr arg, std::string name = "max");
AggSpec AvgOf(ExprPtr arg, std::string name = "avg");

/// Output type of an aggregate given its (resolved) argument type.
Result<TypeId> AggOutputType(AggFunc func, TypeId arg_type);

/// Number of state slots an aggregate keeps in the state codec: avg keeps
/// its sum and its count, the rest keep one slot. A group's stored state is
/// the concatenation of each spec's slots, encoded as a row (EncodeRow), so
/// checkpoints hold one value-codec row per group.
int AggStateArity(AggFunc func);

/// One aggregate's running state over one group, fixed width: the typed
/// form of its state slots. `count` is the count of count and count(*), or
/// avg's count; `type` and `bits` are the value slot of sum, min, max and
/// avg's sum: its codec type (kNull while the slot is null) and its payload
/// (the int64 or bool value, or the float64's bit pattern). A string
/// min/max keeps its value in the record's string for the spec.
struct AggCell {
  int64_t count = 0;
  uint64_t bits = 0;
  TypeId type = TypeId::kNull;
};

/// Folds value `row` of the argument column `arg` into `cell` (and `str`,
/// the spec's string, for a string min/max). Null for count(*)'s `arg`.
using AggFoldFn = void (*)(AggCell* cell, std::string* str, const Column* arg,
                           int64_t row);

/// The aggregate state of a group as records: one AggCell per spec, plus
/// one string per min/max spec. The kernels fold rows into a record; Decode
/// and Encode move it from and to the state codec byte for byte, so a
/// checkpoint written through records reads as one written from rows and
/// back; AppendFinal writes the finalized aggregates as typed cells.
class AggRecords {
 public:
  explicit AggRecords(const std::vector<AggSpec>& specs);

  size_t num_cells() const { return funcs_.size(); }
  size_t num_strings() const { return num_strings_; }

  /// The kernel of spec `s` over an argument column of `arg_type` (any
  /// type for count(*)); InvalidArgument for a type the function does not
  /// take. The kernel reads a validity byte only when `arg` holds nulls.
  Result<AggFoldFn> Kernel(size_t s, TypeId arg_type) const;
  /// The offset of spec `s`'s string within a record's strings (0 when the
  /// spec keeps none).
  size_t string_index(size_t s) const { return string_index_[s]; }

  /// Sets a record to the empty state: counts 0, values null.
  void Init(AggCell* cells, std::string* strings) const;
  /// Reads a record from its encoded state row; InvalidArgument when the
  /// bytes are not a state of these specs.
  Status Decode(std::string_view state, AggCell* cells,
                std::string* strings) const;
  /// Appends the record's encoded state row to `out`.
  void Encode(const AggCell* cells, const std::string* strings,
              std::string* out) const;
  /// Appends the finalized aggregates (avg as the sum over the count, null
  /// when empty), typed, to columns [first, first + num_cells()) of `out`.
  Status AppendFinal(const AggCell* cells, const std::string* strings,
                     int first, BatchBuilder* out) const;

 private:
  std::vector<AggFunc> funcs_;
  std::vector<size_t> string_index_;
  size_t num_strings_ = 0;
  size_t arity_ = 0;  // state slots: the encoded row's arity
};

}  // namespace sstreaming

#endif  // SSTREAMING_EXPR_AGGREGATE_H_

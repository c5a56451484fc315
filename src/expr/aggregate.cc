#include "expr/aggregate.h"

#include <cstring>

#include "common/logging.h"

namespace sstreaming {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kCountAll:
      return "count(*)";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

std::string AggSpec::ToString() const {
  std::string out = AggFuncName(func);
  if (func != AggFunc::kCountAll) {
    out += "(";
    out += arg ? arg->ToString() : "?";
    out += ")";
  }
  out += " AS " + name;
  return out;
}

AggSpec CountAll(std::string name) {
  return AggSpec{AggFunc::kCountAll, nullptr, std::move(name)};
}
AggSpec CountOf(ExprPtr arg, std::string name) {
  return AggSpec{AggFunc::kCount, std::move(arg), std::move(name)};
}
AggSpec SumOf(ExprPtr arg, std::string name) {
  return AggSpec{AggFunc::kSum, std::move(arg), std::move(name)};
}
AggSpec MinOf(ExprPtr arg, std::string name) {
  return AggSpec{AggFunc::kMin, std::move(arg), std::move(name)};
}
AggSpec MaxOf(ExprPtr arg, std::string name) {
  return AggSpec{AggFunc::kMax, std::move(arg), std::move(name)};
}
AggSpec AvgOf(ExprPtr arg, std::string name) {
  return AggSpec{AggFunc::kAvg, std::move(arg), std::move(name)};
}

Result<TypeId> AggOutputType(AggFunc func, TypeId arg_type) {
  switch (func) {
    case AggFunc::kCount:
    case AggFunc::kCountAll:
      return TypeId::kInt64;
    case AggFunc::kSum:
      if (!IsNumeric(arg_type)) {
        return Status::AnalysisError("sum() requires a numeric argument");
      }
      return arg_type == TypeId::kFloat64 ? TypeId::kFloat64 : TypeId::kInt64;
    case AggFunc::kAvg:
      if (!IsNumeric(arg_type)) {
        return Status::AnalysisError("avg() requires a numeric argument");
      }
      return TypeId::kFloat64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg_type;
  }
  return Status::Internal("bad agg func");
}

int AggStateArity(AggFunc func) { return func == AggFunc::kAvg ? 2 : 1; }

namespace {

double DoubleOf(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

uint64_t BitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  return bits;
}

// A numeric value slot widened to double (Value::AsDouble).
double CellAsDouble(const AggCell& cell) {
  return cell.type == TypeId::kFloat64
             ? DoubleOf(cell.bits)
             : static_cast<double>(static_cast<int64_t>(cell.bits));
}

bool IsNull(const Column& arg, int64_t row) {
  return arg.has_nulls() && arg.IsNull(row);
}

// Adds value `row` of a numeric column of kind K to a sum slot: a null sum
// takes the value (a timestamp as int64), a float64 on either side makes the
// sum float64, and int64 sums wrap around.
template <PhysicalKind K>
void AddToSum(AggCell* cell, const Column& arg, int64_t row) {
  if constexpr (K == PhysicalKind::kInt64) {
    const int64_t v = arg.Int64At(row);
    if (cell->type == TypeId::kNull) {
      cell->type = TypeId::kInt64;
      cell->bits = static_cast<uint64_t>(v);
    } else if (cell->type == TypeId::kFloat64) {
      cell->bits = BitsOf(DoubleOf(cell->bits) + static_cast<double>(v));
    } else {
      cell->bits += static_cast<uint64_t>(v);
    }
  } else {
    const double v = arg.Float64At(row);
    if (cell->type == TypeId::kNull) {
      cell->bits = BitsOf(v);
    } else {
      cell->bits = BitsOf(CellAsDouble(*cell) + v);
    }
    cell->type = TypeId::kFloat64;
  }
}

void FoldCountAll(AggCell* cell, std::string*, const Column*, int64_t) {
  ++cell->count;
}

void FoldCount(AggCell* cell, std::string*, const Column* arg, int64_t row) {
  if (!IsNull(*arg, row)) ++cell->count;
}

void FoldNothing(AggCell*, std::string*, const Column*, int64_t) {}

template <PhysicalKind K>
void FoldSum(AggCell* cell, std::string*, const Column* arg, int64_t row) {
  if (!IsNull(*arg, row)) AddToSum<K>(cell, *arg, row);
}

template <PhysicalKind K>
void FoldAvg(AggCell* cell, std::string*, const Column* arg, int64_t row) {
  if (IsNull(*arg, row)) return;
  AddToSum<K>(cell, *arg, row);
  ++cell->count;
}

// Value::Compare of value `row` of `arg` (kind K, non-null) against a
// non-null value slot of another type: numerics by value, anything else by
// type id.
template <PhysicalKind K>
int CompareAcrossTypes(const Column& arg, int64_t row, const AggCell& cell) {
  if constexpr (K == PhysicalKind::kInt64 || K == PhysicalKind::kFloat64) {
    if (IsNumeric(cell.type)) {
      double a;
      if constexpr (K == PhysicalKind::kInt64) {
        if (cell.type != TypeId::kFloat64) {
          const int64_t x = arg.Int64At(row);
          const auto y = static_cast<int64_t>(cell.bits);
          return x < y ? -1 : (x > y ? 1 : 0);
        }
        a = static_cast<double>(arg.Int64At(row));
      } else {
        a = arg.Float64At(row);
      }
      const double b = CellAsDouble(cell);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  }
  return static_cast<int>(arg.type()) < static_cast<int>(cell.type) ? -1 : 1;
}

// min (kMax false) or max: a non-null value replaces a null slot, or a slot
// it compares below (above) by Value::Compare, so NaN never replaces and is
// never replaced, and -0.0 and 0.0 keep the first seen.
template <bool kMax, PhysicalKind K>
void FoldMinMax(AggCell* cell, std::string* str, const Column* arg,
                int64_t row) {
  if (IsNull(*arg, row)) return;
  auto better = [](const auto& v, const auto& have) {
    return kMax ? have < v : v < have;
  };
  if (cell->type == arg->type()) {
    if constexpr (K == PhysicalKind::kString) {
      if (!better(arg->StringAt(row), *str)) return;
    } else if constexpr (K == PhysicalKind::kFloat64) {
      if (!better(arg->Float64At(row), DoubleOf(cell->bits))) return;
    } else if constexpr (K == PhysicalKind::kInt64) {
      if (!better(arg->Int64At(row), static_cast<int64_t>(cell->bits))) {
        return;
      }
    } else {
      if (!better(arg->BoolAt(row), cell->bits != 0)) return;
    }
  } else if (cell->type != TypeId::kNull) {
    if (!better(CompareAcrossTypes<K>(*arg, row, *cell), 0)) return;
  }
  cell->type = arg->type();
  if constexpr (K == PhysicalKind::kString) {
    *str = arg->StringAt(row);
  } else if constexpr (K == PhysicalKind::kFloat64) {
    cell->bits = BitsOf(arg->Float64At(row));
  } else if constexpr (K == PhysicalKind::kInt64) {
    cell->bits = static_cast<uint64_t>(arg->Int64At(row));
  } else {
    cell->bits = arg->BoolAt(row) ? 1 : 0;
  }
}

template <bool kMax>
AggFoldFn MinMaxKernel(PhysicalKind kind) {
  switch (kind) {
    case PhysicalKind::kBool:
      return FoldMinMax<kMax, PhysicalKind::kBool>;
    case PhysicalKind::kInt64:
      return FoldMinMax<kMax, PhysicalKind::kInt64>;
    case PhysicalKind::kFloat64:
      return FoldMinMax<kMax, PhysicalKind::kFloat64>;
    case PhysicalKind::kString:
      return FoldMinMax<kMax, PhysicalKind::kString>;
    case PhysicalKind::kNone:
      break;
  }
  return FoldNothing;
}

// The value slot's codec bytes (Value::EncodeTo); `str` is a string
// slot's value.
void EncodeSlot(const AggCell& cell, std::string_view str, std::string* out) {
  out->push_back(static_cast<char>(cell.type));
  char buf[8];
  switch (PhysicalKindOf(cell.type)) {
    case PhysicalKind::kNone:
      return;
    case PhysicalKind::kBool:
      out->push_back(cell.bits != 0 ? 1 : 0);
      return;
    case PhysicalKind::kInt64:
    case PhysicalKind::kFloat64:
      std::memcpy(buf, &cell.bits, 8);
      out->append(buf, 8);
      return;
    case PhysicalKind::kString: {
      const uint64_t n = str.size();
      std::memcpy(buf, &n, 8);
      out->append(buf, 8);
      out->append(str);
      return;
    }
  }
}

// A count slot's codec bytes: always an int64.
void EncodeCount(int64_t count, std::string* out) {
  out->push_back(static_cast<char>(TypeId::kInt64));
  char buf[8];
  std::memcpy(buf, &count, 8);
  out->append(buf, 8);
}

Status CorruptState() {
  return Status::InvalidArgument("corrupt aggregate state");
}

}  // namespace

AggRecords::AggRecords(const std::vector<AggSpec>& specs) {
  for (const AggSpec& s : specs) {
    funcs_.push_back(s.func);
    arity_ += static_cast<size_t>(AggStateArity(s.func));
    const bool keeps_string =
        s.func == AggFunc::kMin || s.func == AggFunc::kMax;
    string_index_.push_back(keeps_string ? num_strings_++ : 0);
  }
}

Result<AggFoldFn> AggRecords::Kernel(size_t s, TypeId arg_type) const {
  const AggFunc func = funcs_[s];
  const PhysicalKind kind = PhysicalKindOf(arg_type);
  switch (func) {
    case AggFunc::kCountAll:
      return FoldCountAll;
    case AggFunc::kCount:
      return FoldCount;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (kind == PhysicalKind::kInt64) {
        return func == AggFunc::kSum ? FoldSum<PhysicalKind::kInt64>
                                     : FoldAvg<PhysicalKind::kInt64>;
      }
      if (kind == PhysicalKind::kFloat64) {
        return func == AggFunc::kSum ? FoldSum<PhysicalKind::kFloat64>
                                     : FoldAvg<PhysicalKind::kFloat64>;
      }
      if (kind == PhysicalKind::kNone) return FoldNothing;  // all null
      return Status::InvalidArgument(std::string(AggFuncName(func)) +
                                     "() over a " + TypeName(arg_type) +
                                     " column");
    case AggFunc::kMin:
      return MinMaxKernel<false>(kind);
    case AggFunc::kMax:
      return MinMaxKernel<true>(kind);
  }
  return Status::Internal("bad agg func");
}

void AggRecords::Init(AggCell* cells, std::string* strings) const {
  for (size_t s = 0; s < funcs_.size(); ++s) cells[s] = AggCell();
  for (size_t k = 0; k < num_strings_; ++k) strings[k].clear();
}

Status AggRecords::Decode(std::string_view state, AggCell* cells,
                          std::string* strings) const {
  if (state.empty() || static_cast<unsigned char>(state[0]) != arity_) {
    return CorruptState();
  }
  size_t pos = 1;
  EncodedValue v;
  auto read_count = [&](int64_t* count) -> Status {
    SS_RETURN_IF_ERROR(ReadEncodedValue(state, &pos, &v));
    if (v.type != TypeId::kInt64) return CorruptState();
    *count = static_cast<int64_t>(v.bits);
    return Status::OK();
  };
  for (size_t s = 0; s < funcs_.size(); ++s) {
    AggCell& cell = cells[s];
    cell = AggCell();
    const AggFunc func = funcs_[s];
    if (func == AggFunc::kCount || func == AggFunc::kCountAll) {
      SS_RETURN_IF_ERROR(read_count(&cell.count));
      continue;
    }
    SS_RETURN_IF_ERROR(ReadEncodedValue(state, &pos, &v));
    cell.type = v.type;
    cell.bits = v.bits;
    if (func == AggFunc::kMin || func == AggFunc::kMax) {
      strings[string_index_[s]].assign(
          v.type == TypeId::kString ? v.str : std::string_view());
    } else if (v.type != TypeId::kNull && v.type != TypeId::kInt64 &&
               v.type != TypeId::kFloat64) {
      return CorruptState();  // a sum is null, int64 or float64
    }
    if (func == AggFunc::kAvg) SS_RETURN_IF_ERROR(read_count(&cell.count));
  }
  return pos == state.size() ? Status::OK() : CorruptState();
}

void AggRecords::Encode(const AggCell* cells, const std::string* strings,
                        std::string* out) const {
  out->push_back(static_cast<char>(arity_));
  for (size_t s = 0; s < funcs_.size(); ++s) {
    const AggCell& cell = cells[s];
    switch (funcs_[s]) {
      case AggFunc::kCount:
      case AggFunc::kCountAll:
        EncodeCount(cell.count, out);
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        EncodeSlot(cell, strings[string_index_[s]], out);
        break;
      case AggFunc::kSum:
        EncodeSlot(cell, {}, out);
        break;
      case AggFunc::kAvg:
        EncodeSlot(cell, {}, out);
        EncodeCount(cell.count, out);
        break;
    }
  }
}

Status AggRecords::AppendFinal(const AggCell* cells,
                               const std::string* strings, int first,
                               BatchBuilder* out) const {
  for (size_t s = 0; s < funcs_.size(); ++s) {
    const AggCell& cell = cells[s];
    Column& col = out->column(first + static_cast<int>(s));
    switch (funcs_[s]) {
      case AggFunc::kCount:
      case AggFunc::kCountAll:
        col.AppendInt64(cell.count);
        break;
      case AggFunc::kAvg:
        if (cell.count == 0 || cell.type == TypeId::kNull) {
          col.AppendNull();
        } else {
          col.AppendFloat64(CellAsDouble(cell) /
                            static_cast<double>(cell.count));
        }
        break;
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax: {
        EncodedValue v;
        v.type = cell.type;
        v.bits = cell.bits;
        if (cell.type == TypeId::kString) v.str = strings[string_index_[s]];
        SS_RETURN_IF_ERROR(out->AppendEncoded(first + static_cast<int>(s), v));
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace sstreaming

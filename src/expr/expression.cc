#include "expr/expression.h"

#include <cmath>
#include <functional>
#include <type_traits>

#include "common/logging.h"

namespace sstreaming {

namespace {

// Floor division (rounds toward negative infinity) for window arithmetic on
// possibly-negative timestamps.
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

// + - * on double, or on int64 wrapping in two's complement (Spark's
// non-ANSI arithmetic): computed on uint64_t, where overflow is defined.
template <BinaryOp Op>
struct Arith {
  template <typename T>
  T operator()(T x, T y) const {
    using U = std::conditional_t<std::is_integral_v<T>, uint64_t, T>;
    const U a = static_cast<U>(x);
    const U b = static_cast<U>(y);
    if constexpr (Op == BinaryOp::kAdd) return static_cast<T>(a + b);
    if constexpr (Op == BinaryOp::kSub) return static_cast<T>(a - b);
    if constexpr (Op == BinaryOp::kMul) return static_cast<T>(a * b);
  }
};

template <typename Fn>
constexpr bool kIsArith = false;
template <BinaryOp Op>
constexpr bool kIsArith<Arith<Op>> = true;

// The one op -> functor dispatch, shared by the typed loop and
// EvalBinaryScalar: calls f(fn) with a comparison functor (applied to two
// cells, or to a three-way result and 0) or an Arith. Returns false for
// AND, OR, / and %, which have none.
template <typename F>
bool DispatchOp(BinaryOp op, const F& f) {
  switch (op) {
    case BinaryOp::kEq:
      f(std::equal_to<>());
      break;
    case BinaryOp::kNe:
      f(std::not_equal_to<>());
      break;
    case BinaryOp::kLt:
      f(std::less<>());
      break;
    case BinaryOp::kLe:
      f(std::less_equal<>());
      break;
    case BinaryOp::kGt:
      f(std::greater<>());
      break;
    case BinaryOp::kGe:
      f(std::greater_equal<>());
      break;
    case BinaryOp::kAdd:
      f(Arith<BinaryOp::kAdd>());
      break;
    case BinaryOp::kSub:
      f(Arith<BinaryOp::kSub>());
      break;
    case BinaryOp::kMul:
      f(Arith<BinaryOp::kMul>());
      break;
    default:
      return false;
  }
  return true;
}

// --- Scalar (boxed) binary evaluation; the single source of truth for
// binary-op semantics. The vectorized kernels must agree with this. ---
Result<Value> EvalBinaryScalar(BinaryOp op, const Value& a, const Value& b,
                               TypeId result_type) {
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    // Kleene three-valued logic.
    auto tri = [](const Value& v) -> int {  // -1 null, 0 false, 1 true
      if (v.is_null()) return -1;
      return v.bool_value() ? 1 : 0;
    };
    int x = tri(a);
    int y = tri(b);
    if (op == BinaryOp::kAnd) {
      if (x == 0 || y == 0) return Value::Bool(false);
      if (x == -1 || y == -1) return Value::Null();
      return Value::Bool(true);
    }
    if (x == 1 || y == 1) return Value::Bool(true);
    if (x == -1 || y == -1) return Value::Null();
    return Value::Bool(false);
  }

  if (a.is_null() || b.is_null()) return Value::Null();

  if (op == BinaryOp::kDiv) {
    double denom = b.AsDouble();
    if (denom == 0.0) return Value::Null();  // SQL: x/0 is NULL
    return Value::Float64(a.AsDouble() / denom);
  }
  if (op == BinaryOp::kMod) {
    if (result_type == TypeId::kFloat64) {
      const double denom = b.AsDouble();
      if (denom == 0.0) return Value::Null();
      return Value::Float64(std::fmod(a.AsDouble(), denom));
    }
    const int64_t denom = b.int64_value();
    if (denom == 0) return Value::Null();
    // x % -1 is 0 for every x; computing INT64_MIN % -1 overflows (and
    // traps on x86).
    if (denom == -1) return Value::Int64(0);
    return Value::Int64(a.int64_value() % denom);
  }
  Value out;
  const bool known = DispatchOp(op, [&](auto fn) {
    if constexpr (!kIsArith<decltype(fn)>) {
      out = Value::Bool(fn(SqlCompare(a, b), 0));
    } else if (result_type == TypeId::kFloat64) {
      out = Value::Float64(fn(a.AsDouble(), b.AsDouble()));
    } else {
      const int64_t r = fn(a.int64_value(), b.int64_value());
      out = result_type == TypeId::kTimestamp ? Value::Timestamp(r)
                                              : Value::Int64(r);
    }
  });
  if (!known) return Status::Internal("unhandled binary op");
  return out;
}

Result<Value> EvalUnaryScalar(UnaryOp op, const Value& v, TypeId result_type) {
  switch (op) {
    case UnaryOp::kIsNull:
      return Value::Bool(v.is_null());
    case UnaryOp::kIsNotNull:
      return Value::Bool(!v.is_null());
    case UnaryOp::kNot:
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.bool_value());
    case UnaryOp::kNeg:
      if (v.is_null()) return Value::Null();
      if (result_type == TypeId::kFloat64) {
        return Value::Float64(-v.AsDouble());
      }
      return Value::Int64(
          Arith<BinaryOp::kSub>()(int64_t{0}, v.int64_value()));
  }
  return Status::Internal("bad unary op");
}

// A double truncated toward zero into an int64 value (`make` boxes it);
// NULL for NaN, the infinities and values outside int64's range, whose
// conversion is undefined.
Value FloatToInt64(double d, Value (*make)(int64_t)) {
  if (!(d >= -0x1p63 && d < 0x1p63)) return Value::Null();
  return make(static_cast<int64_t>(d));
}

Result<Value> CastScalar(const Value& v, TypeId target) {
  if (v.is_null()) return Value::Null();
  if (v.type() == target) return v;
  switch (target) {
    case TypeId::kInt64:
      switch (v.type()) {
        case TypeId::kBool:
          return Value::Int64(v.bool_value() ? 1 : 0);
        case TypeId::kTimestamp:
          return Value::Int64(v.int64_value());
        case TypeId::kFloat64:
          return FloatToInt64(v.float64_value(), Value::Int64);
        case TypeId::kString: {
          errno = 0;
          char* end = nullptr;
          long long x = std::strtoll(v.string_value().c_str(), &end, 10);
          if (errno != 0 || end == nullptr || *end != '\0' ||
              v.string_value().empty()) {
            return Value::Null();  // unparseable casts yield NULL (SQL-ish)
          }
          return Value::Int64(x);
        }
        default:
          return Value::Null();
      }
    case TypeId::kFloat64:
      if (IsNumeric(v.type())) return Value::Float64(v.AsDouble());
      if (v.type() == TypeId::kBool) {
        return Value::Float64(v.bool_value() ? 1.0 : 0.0);
      }
      if (v.type() == TypeId::kString) {
        char* end = nullptr;
        double d = std::strtod(v.string_value().c_str(), &end);
        if (end == nullptr || *end != '\0' || v.string_value().empty()) {
          return Value::Null();
        }
        return Value::Float64(d);
      }
      return Value::Null();
    case TypeId::kTimestamp:
      if (v.type() == TypeId::kInt64) return Value::Timestamp(v.int64_value());
      if (v.type() == TypeId::kFloat64) {
        return FloatToInt64(v.float64_value(), Value::Timestamp);
      }
      return Value::Null();
    case TypeId::kString:
      return Value::Str(v.ToString());
    case TypeId::kBool:
      if (v.type() == TypeId::kInt64) return Value::Bool(v.int64_value() != 0);
      return Value::Null();
    case TypeId::kNull:
      return Value::Null();
  }
  return Value::Null();
}

}  // namespace

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// --- ColumnRefExpr ---

ColumnRefExpr::ColumnRefExpr(std::string name) : Expr(Kind::kColumnRef),
                                                 name_(std::move(name)) {
  output_name_ = name_;
}

Result<ExprPtr> ColumnRefExpr::Resolve(const Schema& schema) const {
  SS_ASSIGN_OR_RETURN(int idx, schema.Resolve(name_));
  auto out = std::make_shared<ColumnRefExpr>(name_);
  out->index_ = idx;
  out->type_ = schema.field(idx).type;
  out->resolved_ = true;
  return ExprPtr(out);
}

Result<ColumnPtr> ColumnRefExpr::EvalBatch(const RecordBatch& batch) const {
  SS_DCHECK(resolved_);
  return batch.column(index_);
}

Result<Value> ColumnRefExpr::EvalRow(const Row& row) const {
  SS_DCHECK(resolved_);
  return row[static_cast<size_t>(index_)];
}

void ColumnRefExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  out->push_back(name_);
}

void ColumnRefExpr::CollectColumnIndices(std::vector<int>* out) const {
  out->push_back(index_);
}

// --- LiteralExpr ---

LiteralExpr::LiteralExpr(Value value) : Expr(Kind::kLiteral),
                                        value_(std::move(value)) {
  type_ = value_.type();
  resolved_ = true;
  output_name_ = value_.ToString();
}

Result<ExprPtr> LiteralExpr::Resolve(const Schema&) const {
  return ExprPtr(std::make_shared<LiteralExpr>(value_));
}

Result<ColumnPtr> LiteralExpr::EvalBatch(const RecordBatch& batch) const {
  ColumnPtr col = Column::Make(type_);
  col->Reserve(batch.num_rows());
  for (int64_t i = 0; i < batch.num_rows(); ++i) col->AppendValue(value_);
  return col;
}

Result<Value> LiteralExpr::EvalRow(const Row&) const { return value_; }

// --- BinaryExpr ---

BinaryExpr::BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
    : Expr(Kind::kBinary),
      op_(op),
      left_(std::move(left)),
      right_(std::move(right)) {
  output_name_ = ToString();
}

Result<ExprPtr> BinaryExpr::Resolve(const Schema& schema) const {
  SS_ASSIGN_OR_RETURN(ExprPtr l, left_->Resolve(schema));
  SS_ASSIGN_OR_RETURN(ExprPtr r, right_->Resolve(schema));
  TypeId lt = l->type();
  TypeId rt = r->type();
  TypeId result = TypeId::kBool;
  auto type_error = [&]() {
    return Status::AnalysisError(std::string("operator '") +
                                 BinaryOpName(op_) +
                                 "' cannot be applied to types " +
                                 TypeName(lt) + " and " + TypeName(rt));
  };
  // Untyped nulls are compatible with anything.
  const bool l_null = lt == TypeId::kNull;
  const bool r_null = rt == TypeId::kNull;
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    if ((lt != TypeId::kBool && !l_null) || (rt != TypeId::kBool && !r_null)) {
      return type_error();
    }
    result = TypeId::kBool;
  } else if (IsComparison(op_)) {
    bool compatible = l_null || r_null || lt == rt ||
                      (IsNumeric(lt) && IsNumeric(rt));
    if (!compatible) return type_error();
    result = TypeId::kBool;
  } else {  // arithmetic
    if ((!IsNumeric(lt) && !l_null) || (!IsNumeric(rt) && !r_null)) {
      return type_error();
    }
    if (op_ == BinaryOp::kDiv) {
      result = TypeId::kFloat64;
    } else if (op_ == BinaryOp::kMod) {
      result = lt == TypeId::kFloat64 || rt == TypeId::kFloat64
                   ? TypeId::kFloat64
                   : TypeId::kInt64;
    } else if ((op_ == BinaryOp::kAdd || op_ == BinaryOp::kSub) &&
               (lt == TypeId::kTimestamp || rt == TypeId::kTimestamp)) {
      // ts + delta / ts - delta stays a timestamp; ts - ts is a duration.
      // A delta is whole microseconds: ts +/- float64 is a type error.
      if (lt == TypeId::kFloat64 || rt == TypeId::kFloat64) return type_error();
      result = (lt == TypeId::kTimestamp && rt == TypeId::kTimestamp)
                   ? TypeId::kInt64
                   : TypeId::kTimestamp;
    } else {
      result = CommonNumericType(l_null ? TypeId::kInt64 : lt,
                                 r_null ? TypeId::kInt64 : rt);
    }
  }
  auto out = std::make_shared<BinaryExpr>(op_, std::move(l), std::move(r));
  out->type_ = result;
  out->resolved_ = true;
  return ExprPtr(out);
}

namespace {

// One operand of a binary expression over a batch: a column, or a
// constant read as its Value (never materialized into a column).
struct Operand {
  ColumnPtr col;                    // null for a constant
  const Value* constant = nullptr;  // set for a constant

  TypeId type() const { return col ? col->type() : constant->type(); }
  bool has_nulls() const { return col && col->has_nulls(); }
  // Value i, boxed for the scalar loop, which sees a string constant only
  // against an untyped NULL; any other constant is cheap to copy.
  Value At(int64_t i) const { return col ? col->ValueAt(i) : *constant; }
};

Result<Operand> EvalOperand(const Expr& e, const RecordBatch& batch) {
  if (e.kind() == Expr::Kind::kLiteral) {
    return Operand{nullptr, &static_cast<const LiteralExpr&>(e).value()};
  }
  SS_ASSIGN_OR_RETURN(ColumnPtr col, e.EvalBatch(batch));
  return Operand{std::move(col)};
}

// Calls f(std::true_type()) or f(std::false_type()).
template <typename F>
void DispatchBool(bool b, const F& f) {
  if (b) {
    f(std::true_type());
  } else {
    f(std::false_type());
  }
}

// The one typed loop: out[i] = fn(l[i], r[i]) over operands of physical
// kind K (int64-backed or string), a constant read at index 0 on either
// side (kLConst, kRConst); with kNulls, null where either input is null.
template <PhysicalKind K, bool kLConst, bool kRConst, bool kNulls, typename Fn>
void TypedLoop(const Operand& l, const Operand& r, int64_t n, Fn fn,
               Column* out) {
  auto cells = [](const Operand& o, int64_t* scratch) {
    if constexpr (K == PhysicalKind::kString) {
      return o.col ? o.col->strings().data() : &o.constant->string_value();
    } else {
      if (!o.col) *scratch = o.constant->int64_value();
      return o.col ? o.col->ints().data() : scratch;
    }
  };
  int64_t l_scratch = 0;
  int64_t r_scratch = 0;
  const auto* a = cells(l, &l_scratch);
  const auto* b = cells(r, &r_scratch);
  for (int64_t i = 0; i < n; ++i) {
    if (kNulls && ((!kLConst && l.col->IsNull(i)) ||
                   (!kRConst && r.col->IsNull(i)))) {
      out->AppendNull();
    } else if constexpr (kIsArith<Fn>) {
      out->AppendInt64(fn(a[kLConst ? 0 : i], b[kRConst ? 0 : i]));
    } else {
      out->AppendBool(fn(a[kLConst ? 0 : i], b[kRConst ? 0 : i]));
    }
  }
}

// Runs the typed loop, dispatched once per batch, when both operands are
// int64-backed or both strings (comparisons only) and the op has a
// functor. Returns false for every other case.
bool RunTypedLoop(BinaryOp op, const Operand& l, const Operand& r, int64_t n,
                  Column* out) {
  const PhysicalKind kind = PhysicalKindOf(l.type());
  const bool typed = kind == PhysicalKindOf(r.type()) &&
                     (kind == PhysicalKind::kInt64 ||
                      (kind == PhysicalKind::kString && IsComparison(op)));
  return typed && DispatchOp(op, [&](auto fn) {
    using Fn = decltype(fn);
    DispatchKind(kind, [&](auto k) {
      constexpr PhysicalKind K = decltype(k)::value;
      if constexpr (K == PhysicalKind::kInt64 ||
                    (K == PhysicalKind::kString && !kIsArith<Fn>)) {
        DispatchBool(!l.col, [&](auto lc) {
          DispatchBool(!r.col, [&](auto rc) {
            DispatchBool(l.has_nulls() || r.has_nulls(), [&](auto nulls) {
              TypedLoop<K, decltype(lc)::value, decltype(rc)::value,
                        decltype(nulls)::value>(l, r, n, fn, out);
            });
          });
        });
      }
    });
  });
}

}  // namespace

Result<ColumnPtr> BinaryExpr::EvalBatch(const RecordBatch& batch) const {
  SS_DCHECK(resolved_);
  SS_ASSIGN_OR_RETURN(Operand l, EvalOperand(*left_, batch));
  SS_ASSIGN_OR_RETURN(Operand r, EvalOperand(*right_, batch));
  const int64_t n = batch.num_rows();
  ColumnPtr out = Column::Make(type_);
  out->Reserve(n);
  if (RunTypedLoop(op_, l, r, n, out.get())) return out;
  // The one scalar loop: AND/OR, / and %, float64, bool and mixed kinds.
  for (int64_t i = 0; i < n; ++i) {
    SS_ASSIGN_OR_RETURN(Value v,
                        EvalBinaryScalar(op_, l.At(i), r.At(i), type_));
    out->AppendValue(v);
  }
  return out;
}

Result<Value> BinaryExpr::EvalRow(const Row& row) const {
  SS_DCHECK(resolved_);
  SS_ASSIGN_OR_RETURN(Value l, left_->EvalRow(row));
  SS_ASSIGN_OR_RETURN(Value r, right_->EvalRow(row));
  return EvalBinaryScalar(op_, l, r, type_);
}

void BinaryExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  left_->CollectColumnRefs(out);
  right_->CollectColumnRefs(out);
}

void BinaryExpr::CollectColumnIndices(std::vector<int>* out) const {
  left_->CollectColumnIndices(out);
  right_->CollectColumnIndices(out);
}

std::string BinaryExpr::ToString() const {
  return "(" + left_->ToString() + " " + BinaryOpName(op_) + " " +
         right_->ToString() + ")";
}

// --- UnaryExpr ---

UnaryExpr::UnaryExpr(UnaryOp op, ExprPtr child)
    : Expr(Kind::kUnary), op_(op), child_(std::move(child)) {
  output_name_ = ToString();
}

Result<ExprPtr> UnaryExpr::Resolve(const Schema& schema) const {
  SS_ASSIGN_OR_RETURN(ExprPtr c, child_->Resolve(schema));
  TypeId ct = c->type();
  TypeId result = TypeId::kBool;
  switch (op_) {
    case UnaryOp::kNot:
      if (ct != TypeId::kBool && ct != TypeId::kNull) {
        return Status::AnalysisError("NOT requires a bool operand, got " +
                                     std::string(TypeName(ct)));
      }
      result = TypeId::kBool;
      break;
    case UnaryOp::kIsNull:
    case UnaryOp::kIsNotNull:
      result = TypeId::kBool;
      break;
    case UnaryOp::kNeg:
      if (!IsNumeric(ct) && ct != TypeId::kNull) {
        return Status::AnalysisError("negation requires a numeric operand");
      }
      result = ct == TypeId::kFloat64 ? TypeId::kFloat64 : TypeId::kInt64;
      break;
  }
  auto out = std::make_shared<UnaryExpr>(op_, std::move(c));
  out->type_ = result;
  out->resolved_ = true;
  return ExprPtr(out);
}

Result<ColumnPtr> UnaryExpr::EvalBatch(const RecordBatch& batch) const {
  SS_DCHECK(resolved_);
  SS_ASSIGN_OR_RETURN(ColumnPtr c, child_->EvalBatch(batch));
  const int64_t n = batch.num_rows();
  ColumnPtr out = Column::Make(type_);
  out->Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    SS_ASSIGN_OR_RETURN(Value v, EvalUnaryScalar(op_, c->ValueAt(i), type_));
    out->AppendValue(v);
  }
  return out;
}

Result<Value> UnaryExpr::EvalRow(const Row& row) const {
  SS_DCHECK(resolved_);
  SS_ASSIGN_OR_RETURN(Value v, child_->EvalRow(row));
  return EvalUnaryScalar(op_, v, type_);
}

void UnaryExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  child_->CollectColumnRefs(out);
}

void UnaryExpr::CollectColumnIndices(std::vector<int>* out) const {
  child_->CollectColumnIndices(out);
}

std::string UnaryExpr::ToString() const {
  switch (op_) {
    case UnaryOp::kNot:
      return "NOT " + child_->ToString();
    case UnaryOp::kIsNull:
      return child_->ToString() + " IS NULL";
    case UnaryOp::kIsNotNull:
      return child_->ToString() + " IS NOT NULL";
    case UnaryOp::kNeg:
      return "-" + child_->ToString();
  }
  return "?";
}

// --- CastExpr ---

CastExpr::CastExpr(ExprPtr child, TypeId target)
    : Expr(Kind::kCast), child_(std::move(child)), target_(target) {
  output_name_ = ToString();
}

Result<ExprPtr> CastExpr::Resolve(const Schema& schema) const {
  SS_ASSIGN_OR_RETURN(ExprPtr c, child_->Resolve(schema));
  auto out = std::make_shared<CastExpr>(std::move(c), target_);
  out->type_ = target_;
  out->resolved_ = true;
  return ExprPtr(out);
}

Result<ColumnPtr> CastExpr::EvalBatch(const RecordBatch& batch) const {
  SS_DCHECK(resolved_);
  SS_ASSIGN_OR_RETURN(ColumnPtr c, child_->EvalBatch(batch));
  const int64_t n = batch.num_rows();
  ColumnPtr out = Column::Make(type_);
  out->Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    SS_ASSIGN_OR_RETURN(Value v, CastScalar(c->ValueAt(i), target_));
    out->AppendValue(v);
  }
  return out;
}

Result<Value> CastExpr::EvalRow(const Row& row) const {
  SS_DCHECK(resolved_);
  SS_ASSIGN_OR_RETURN(Value v, child_->EvalRow(row));
  return CastScalar(v, target_);
}

void CastExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  child_->CollectColumnRefs(out);
}

void CastExpr::CollectColumnIndices(std::vector<int>* out) const {
  child_->CollectColumnIndices(out);
}

std::string CastExpr::ToString() const {
  return "CAST(" + child_->ToString() + " AS " + TypeName(target_) + ")";
}

// --- WindowExpr ---

WindowExpr::WindowExpr(ExprPtr time, int64_t size_micros, int64_t slide_micros)
    : Expr(Kind::kWindow),
      time_(std::move(time)),
      size_micros_(size_micros),
      slide_micros_(slide_micros) {
  output_name_ = "window";
}

void WindowExpr::EnumerateWindowStarts(int64_t ts,
                                       std::vector<int64_t>* out) const {
  const int64_t last = FloorDiv(ts, slide_micros_) * slide_micros_;
  const int64_t first =
      (FloorDiv(ts - size_micros_, slide_micros_) + 1) * slide_micros_;
  for (int64_t s = first; s <= last; s += slide_micros_) out->push_back(s);
}

Result<ExprPtr> WindowExpr::Resolve(const Schema& schema) const {
  if (size_micros_ <= 0 || slide_micros_ <= 0 ||
      slide_micros_ > size_micros_) {
    return Status::AnalysisError(
        "window() requires 0 < slide <= size; got size=" +
        std::to_string(size_micros_) +
        " slide=" + std::to_string(slide_micros_));
  }
  SS_ASSIGN_OR_RETURN(ExprPtr t, time_->Resolve(schema));
  if (t->type() != TypeId::kTimestamp) {
    return Status::AnalysisError(
        "window() requires a timestamp column, got " +
        std::string(TypeName(t->type())));
  }
  auto out =
      std::make_shared<WindowExpr>(std::move(t), size_micros_, slide_micros_);
  out->type_ = TypeId::kTimestamp;
  out->resolved_ = true;
  return ExprPtr(out);
}

Result<ColumnPtr> WindowExpr::EvalBatch(const RecordBatch& batch) const {
  SS_DCHECK(resolved_);
  SS_ASSIGN_OR_RETURN(ColumnPtr c, time_->EvalBatch(batch));
  const int64_t n = batch.num_rows();
  ColumnPtr out = Column::Make(TypeId::kTimestamp);
  out->Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    if (c->IsNull(i)) {
      out->AppendNull();
    } else {
      out->AppendInt64(FloorDiv(c->Int64At(i), slide_micros_) * slide_micros_);
    }
  }
  return out;
}

Result<Value> WindowExpr::EvalRow(const Row& row) const {
  SS_DCHECK(resolved_);
  SS_ASSIGN_OR_RETURN(Value v, time_->EvalRow(row));
  if (v.is_null()) return Value::Null();
  return Value::Timestamp(FloorDiv(v.int64_value(), slide_micros_) *
                          slide_micros_);
}

void WindowExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  time_->CollectColumnRefs(out);
}

void WindowExpr::CollectColumnIndices(std::vector<int>* out) const {
  time_->CollectColumnIndices(out);
}

std::string WindowExpr::ToString() const {
  return "window(" + time_->ToString() + ", " + std::to_string(size_micros_) +
         "us, " + std::to_string(slide_micros_) + "us)";
}

// --- UdfExpr ---

UdfExpr::UdfExpr(std::string name, ScalarFn fn, TypeId return_type,
                 std::vector<ExprPtr> args)
    : Expr(Kind::kUdf),
      name_(std::move(name)),
      fn_(std::move(fn)),
      return_type_(return_type),
      args_(std::move(args)) {
  output_name_ = name_;
}

Result<ExprPtr> UdfExpr::Resolve(const Schema& schema) const {
  std::vector<ExprPtr> resolved_args;
  resolved_args.reserve(args_.size());
  for (const ExprPtr& a : args_) {
    SS_ASSIGN_OR_RETURN(ExprPtr r, a->Resolve(schema));
    resolved_args.push_back(std::move(r));
  }
  auto out = std::make_shared<UdfExpr>(name_, fn_, return_type_,
                                       std::move(resolved_args));
  out->type_ = return_type_;
  out->resolved_ = true;
  return ExprPtr(out);
}

Result<ColumnPtr> UdfExpr::EvalBatch(const RecordBatch& batch) const {
  SS_DCHECK(resolved_);
  std::vector<ColumnPtr> arg_cols;
  arg_cols.reserve(args_.size());
  for (const ExprPtr& a : args_) {
    SS_ASSIGN_OR_RETURN(ColumnPtr c, a->EvalBatch(batch));
    arg_cols.push_back(std::move(c));
  }
  const int64_t n = batch.num_rows();
  ColumnPtr out = Column::Make(type_);
  out->Reserve(n);
  std::vector<Value> arg_values(args_.size());
  for (int64_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < arg_cols.size(); ++j) {
      arg_values[j] = arg_cols[j]->ValueAt(i);
    }
    SS_ASSIGN_OR_RETURN(Value v, fn_(arg_values));
    out->AppendValue(v);
  }
  return out;
}

Result<Value> UdfExpr::EvalRow(const Row& row) const {
  SS_DCHECK(resolved_);
  std::vector<Value> arg_values;
  arg_values.reserve(args_.size());
  for (const ExprPtr& a : args_) {
    SS_ASSIGN_OR_RETURN(Value v, a->EvalRow(row));
    arg_values.push_back(std::move(v));
  }
  return fn_(arg_values);
}

void UdfExpr::CollectColumnRefs(std::vector<std::string>* out) const {
  for (const ExprPtr& a : args_) a->CollectColumnRefs(out);
}

void UdfExpr::CollectColumnIndices(std::vector<int>* out) const {
  for (const ExprPtr& a : args_) a->CollectColumnIndices(out);
}

std::string UdfExpr::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")";
  return out;
}

// --- Fluent constructors ---

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}
ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Lit(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr Lit(int v) { return Lit(Value::Int64(v)); }
ExprPtr Lit(double v) { return Lit(Value::Float64(v)); }
ExprPtr Lit(const char* v) { return Lit(Value::Str(v)); }
ExprPtr Lit(std::string v) { return Lit(Value::Str(std::move(v))); }
ExprPtr Lit(bool v) { return Lit(Value::Bool(v)); }

namespace {
ExprPtr MakeBinary(BinaryOp op, ExprPtr a, ExprPtr b) {
  return std::make_shared<BinaryExpr>(op, std::move(a), std::move(b));
}
}  // namespace

ExprPtr Add(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kDiv, std::move(a), std::move(b));
}
ExprPtr Mod(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kMod, std::move(a), std::move(b));
}
ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kEq, std::move(a), std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kNe, std::move(a), std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kLt, std::move(a), std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kLe, std::move(a), std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kGt, std::move(a), std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kGe, std::move(a), std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kAnd, std::move(a), std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return MakeBinary(BinaryOp::kOr, std::move(a), std::move(b));
}
ExprPtr Not(ExprPtr a) {
  return std::make_shared<UnaryExpr>(UnaryOp::kNot, std::move(a));
}
ExprPtr IsNull(ExprPtr a) {
  return std::make_shared<UnaryExpr>(UnaryOp::kIsNull, std::move(a));
}
ExprPtr IsNotNull(ExprPtr a) {
  return std::make_shared<UnaryExpr>(UnaryOp::kIsNotNull, std::move(a));
}
ExprPtr Neg(ExprPtr a) {
  return std::make_shared<UnaryExpr>(UnaryOp::kNeg, std::move(a));
}
ExprPtr Cast(ExprPtr a, TypeId target) {
  return std::make_shared<CastExpr>(std::move(a), target);
}
ExprPtr Window(ExprPtr time, int64_t size_micros, int64_t slide_micros) {
  return std::make_shared<WindowExpr>(std::move(time), size_micros,
                                      slide_micros);
}
ExprPtr TumblingWindow(ExprPtr time, int64_t size_micros) {
  return Window(std::move(time), size_micros, size_micros);
}
ExprPtr Udf(std::string name, ScalarFn fn, TypeId return_type,
            std::vector<ExprPtr> args) {
  return std::make_shared<UdfExpr>(std::move(name), std::move(fn),
                                   return_type, std::move(args));
}

}  // namespace sstreaming

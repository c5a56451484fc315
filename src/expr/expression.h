#ifndef SSTREAMING_EXPR_EXPRESSION_H_
#define SSTREAMING_EXPR_EXPRESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/record_batch.h"
#include "types/row.h"
#include "types/schema.h"

namespace sstreaming {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Scalar expression tree. Expressions are immutable; analysis produces a
/// *resolved* copy in which column references carry ordinals and every node
/// carries a result type. Two evaluation paths exist:
///   - EvalBatch: vectorized evaluation over a RecordBatch (the engine's hot
///     path — typed loops over unboxed column storage), and
///   - EvalRow: boxed row-at-a-time evaluation, the semantic reference:
///     EvalBatch must agree with it row for row. The record-at-a-time
///     baseline engine evaluates with it and the optimizer folds constants
///     with it.
/// SQL null semantics: comparisons/arithmetic with a null input yield null;
/// AND/OR use Kleene three-valued logic.
class Expr {
 public:
  enum class Kind {
    kColumnRef,
    kLiteral,
    kBinary,
    kUnary,
    kCast,
    kWindow,
    kUdf,
  };

  virtual ~Expr() = default;

  Kind kind() const { return kind_; }

  /// Result type. Only meaningful on resolved expressions.
  TypeId type() const { return type_; }
  bool resolved() const { return resolved_; }

  /// Returns a resolved copy bound to `schema`, or an analysis error.
  virtual Result<ExprPtr> Resolve(const Schema& schema) const = 0;

  /// Vectorized evaluation. Precondition: resolved() and the batch matches
  /// the schema used to resolve.
  virtual Result<ColumnPtr> EvalBatch(const RecordBatch& batch) const = 0;

  /// Row-at-a-time evaluation. Precondition: resolved().
  virtual Result<Value> EvalRow(const Row& row) const = 0;

  /// Appends the names of all column references in this subtree.
  virtual void CollectColumnRefs(std::vector<std::string>* out) const = 0;

  /// Appends the ordinals of all resolved column references in this
  /// subtree. Only meaningful on resolved expressions; used by
  /// selection-aware execution to gather just the referenced columns of a
  /// batch before evaluation (docs/VECTORIZED_EXEC.md).
  virtual void CollectColumnIndices(std::vector<int>* out) const = 0;

  virtual std::string ToString() const = 0;

  /// The output column name this expression produces when projected
  /// (column name for refs, alias if set, otherwise a rendering).
  const std::string& output_name() const { return output_name_; }

 protected:
  explicit Expr(Kind kind) : kind_(kind) {}

  Kind kind_;
  TypeId type_ = TypeId::kNull;
  bool resolved_ = false;
  std::string output_name_;
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnaryOp { kNot, kIsNull, kIsNotNull, kNeg };

const char* BinaryOpName(BinaryOp op);
bool IsComparison(BinaryOp op);

/// Reference to a column by name; carries its ordinal once resolved.
class ColumnRefExpr : public Expr {
 public:
  explicit ColumnRefExpr(std::string name);

  const std::string& name() const { return name_; }
  int index() const { return index_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Result<ColumnPtr> EvalBatch(const RecordBatch& batch) const override;
  Result<Value> EvalRow(const Row& row) const override;
  void CollectColumnRefs(std::vector<std::string>* out) const override;
  void CollectColumnIndices(std::vector<int>* out) const override;
  std::string ToString() const override { return name_; }

 private:
  std::string name_;
  int index_ = -1;
};

/// A constant.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value);

  const Value& value() const { return value_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Result<ColumnPtr> EvalBatch(const RecordBatch& batch) const override;
  Result<Value> EvalRow(const Row& row) const override;
  void CollectColumnRefs(std::vector<std::string>*) const override {}
  void CollectColumnIndices(std::vector<int>*) const override {}
  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
};

/// Binary arithmetic / comparison / logical operator.
class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right);

  BinaryOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Result<ColumnPtr> EvalBatch(const RecordBatch& batch) const override;
  Result<Value> EvalRow(const Row& row) const override;
  void CollectColumnRefs(std::vector<std::string>* out) const override;
  void CollectColumnIndices(std::vector<int>* out) const override;
  std::string ToString() const override;

 private:
  BinaryOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// NOT / IS NULL / IS NOT NULL / unary minus.
class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr child);

  UnaryOp op() const { return op_; }
  const ExprPtr& child() const { return child_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Result<ColumnPtr> EvalBatch(const RecordBatch& batch) const override;
  Result<Value> EvalRow(const Row& row) const override;
  void CollectColumnRefs(std::vector<std::string>* out) const override;
  void CollectColumnIndices(std::vector<int>* out) const override;
  std::string ToString() const override;

 private:
  UnaryOp op_;
  ExprPtr child_;
};

/// CAST(child AS type).
class CastExpr : public Expr {
 public:
  CastExpr(ExprPtr child, TypeId target);

  const ExprPtr& child() const { return child_; }
  TypeId target() const { return target_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Result<ColumnPtr> EvalBatch(const RecordBatch& batch) const override;
  Result<Value> EvalRow(const Row& row) const override;
  void CollectColumnRefs(std::vector<std::string>* out) const override;
  void CollectColumnIndices(std::vector<int>* out) const override;
  std::string ToString() const override;

 private:
  ExprPtr child_;
  TypeId target_;
};

/// window(time, size, slide) — assigns an event-time window (paper §4.1).
/// Evaluates to the *start* of the (last) window containing the timestamp;
/// for sliding windows (slide < size) the aggregation operator enumerates all
/// covering windows itself via EnumerateWindowStarts().
class WindowExpr : public Expr {
 public:
  WindowExpr(ExprPtr time, int64_t size_micros, int64_t slide_micros);

  const ExprPtr& time() const { return time_; }
  int64_t size_micros() const { return size_micros_; }
  int64_t slide_micros() const { return slide_micros_; }
  bool is_tumbling() const { return slide_micros_ == size_micros_; }

  /// All window starts whose [start, start+size) interval contains ts.
  void EnumerateWindowStarts(int64_t ts, std::vector<int64_t>* out) const;

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Result<ColumnPtr> EvalBatch(const RecordBatch& batch) const override;
  Result<Value> EvalRow(const Row& row) const override;
  void CollectColumnRefs(std::vector<std::string>* out) const override;
  void CollectColumnIndices(std::vector<int>* out) const override;
  std::string ToString() const override;

 private:
  ExprPtr time_;
  int64_t size_micros_;
  int64_t slide_micros_;
};

/// A scalar user-defined function. UDFs are the unit of "code update"
/// (paper §7.1): the registry binding a name to a function can be swapped
/// between restarts.
using ScalarFn = std::function<Result<Value>(const std::vector<Value>&)>;

class UdfExpr : public Expr {
 public:
  UdfExpr(std::string name, ScalarFn fn, TypeId return_type,
          std::vector<ExprPtr> args);

  const std::string& name() const { return name_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Result<ColumnPtr> EvalBatch(const RecordBatch& batch) const override;
  Result<Value> EvalRow(const Row& row) const override;
  void CollectColumnRefs(std::vector<std::string>* out) const override;
  void CollectColumnIndices(std::vector<int>* out) const override;
  std::string ToString() const override;

 private:
  std::string name_;
  ScalarFn fn_;
  TypeId return_type_;
  std::vector<ExprPtr> args_;
};

// ---------------------------------------------------------------------------
// Fluent constructors (the DataFrame expression vocabulary).
// ---------------------------------------------------------------------------

ExprPtr Col(std::string name);
ExprPtr Lit(Value v);
ExprPtr Lit(int64_t v);
ExprPtr Lit(int v);
ExprPtr Lit(double v);
ExprPtr Lit(const char* v);
ExprPtr Lit(std::string v);
ExprPtr Lit(bool v);

ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);
ExprPtr Mod(ExprPtr a, ExprPtr b);
ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
ExprPtr IsNull(ExprPtr a);
ExprPtr IsNotNull(ExprPtr a);
ExprPtr Neg(ExprPtr a);
ExprPtr Cast(ExprPtr a, TypeId target);
ExprPtr Window(ExprPtr time, int64_t size_micros, int64_t slide_micros);
ExprPtr TumblingWindow(ExprPtr time, int64_t size_micros);
ExprPtr Udf(std::string name, ScalarFn fn, TypeId return_type,
            std::vector<ExprPtr> args);

/// A projection item: expression plus output column name.
struct NamedExpr {
  ExprPtr expr;
  std::string name;  // empty = use expr->output_name()

  std::string OutputName() const {
    return name.empty() ? expr->output_name() : name;
  }
};

inline NamedExpr As(ExprPtr e, std::string name) {
  return NamedExpr{std::move(e), std::move(name)};
}

}  // namespace sstreaming

#endif  // SSTREAMING_EXPR_EXPRESSION_H_

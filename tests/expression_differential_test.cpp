// Randomized differential: Expr::EvalBatch must agree with Expr::EvalRow,
// the semantic reference, value for value (same type, same encoded bytes).
// Each case draws an operator (every BinaryOp, every UnaryOp, Cast), the
// operand kinds (int64, timestamp, float64, string, bool, untyped null),
// the operand shapes (column or constant on either side, columns with or
// without nulls) and edge values (INT64_MIN/MAX, NaN, +-inf, -0.0, empty
// strings, embedded NULs) from one seeded Random. A failure prints the
// case's seed and expression; DifferentialCase(seed) replays it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "expr/expression.h"

namespace sstreaming {
namespace {

constexpr int64_t kRows = 24;

// The operand kinds; kNull stands for an untyped NULL constant.
constexpr TypeId kKinds[] = {TypeId::kInt64, TypeId::kTimestamp,
                             TypeId::kFloat64, TypeId::kString, TypeId::kBool,
                             TypeId::kNull};

constexpr BinaryOp kBinaryOps[] = {
    BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
    BinaryOp::kMod, BinaryOp::kEq,  BinaryOp::kNe,  BinaryOp::kLt,
    BinaryOp::kLe,  BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kAnd,
    BinaryOp::kOr};

constexpr UnaryOp kUnaryOps[] = {UnaryOp::kNot, UnaryOp::kIsNull,
                                 UnaryOp::kIsNotNull, UnaryOp::kNeg};

template <typename T, size_t N>
const T& Pick(Random* rng, const T (&items)[N]) {
  return items[rng->Uniform(N)];
}

int64_t RandomInt(Random* rng) {
  static constexpr int64_t kEdges[] = {std::numeric_limits<int64_t>::min(),
                                       std::numeric_limits<int64_t>::max(),
                                       0, 1, -1, 2, 7};
  if (rng->OneIn(0.4)) return Pick(rng, kEdges);
  return static_cast<int64_t>(rng->Uniform(9)) - 4;
}

double RandomDouble(Random* rng) {
  static constexpr double kEdges[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      0.0,
      1.0,
      2.0,
      0.5,
      1e300};
  if (rng->OneIn(0.6)) return Pick(rng, kEdges);
  return static_cast<double>(static_cast<int64_t>(rng->Uniform(9)) - 4);
}

std::string RandomString(Random* rng) {
  static const std::string kEdges[] = {"",
                                       "a",
                                       "b",
                                       "ab",
                                       std::string("a\0b", 3),
                                       std::string("\0", 1),
                                       "view",
                                       "12",
                                       "-3.5"};
  return Pick(rng, kEdges);
}

// A non-null value of `type`, or NULL for the untyped kind.
Value RandomValue(Random* rng, TypeId type) {
  switch (type) {
    case TypeId::kInt64:
      return Value::Int64(RandomInt(rng));
    case TypeId::kTimestamp:
      return Value::Timestamp(RandomInt(rng));
    case TypeId::kFloat64:
      return Value::Float64(RandomDouble(rng));
    case TypeId::kString:
      return Value::Str(RandomString(rng));
    case TypeId::kBool:
      return Value::Bool(rng->OneIn(0.5));
    case TypeId::kNull:
      return Value::Null();
  }
  return Value::Null();
}

// The operand kind: half the time the other side's, so the typed kernels
// (same kind on both sides) see as many cases as the mixed ones.
TypeId RandomKind(Random* rng, const TypeId* other) {
  if (other != nullptr && *other != TypeId::kNull && rng->OneIn(0.5)) {
    return *other;
  }
  return rng->OneIn(0.05) ? TypeId::kNull : Pick(rng, kKinds);
}

struct Case {
  SchemaPtr schema;
  RecordBatchPtr batch;
  ExprPtr expr;  // unresolved
};

// One random case. The batch has a column per operand ("l", "r"); an
// operand is that column or a constant of the same kind. Each column is
// null-free or has nulls, at random.
Case MakeCase(uint64_t seed) {
  Random rng(seed);
  const TypeId lk = RandomKind(&rng, nullptr);
  const TypeId rk = RandomKind(&rng, &lk);
  auto column_type = [](TypeId k) {
    return k == TypeId::kNull ? TypeId::kInt64 : k;
  };
  SchemaPtr schema = Schema::Make({{"l", column_type(lk), true},
                                   {"r", column_type(rk), true}});
  const double l_nulls = rng.OneIn(0.5) ? 0.0 : 0.25;
  const double r_nulls = rng.OneIn(0.5) ? 0.0 : 0.25;
  std::vector<Row> rows;
  for (int64_t i = 0; i < kRows; ++i) {
    rows.push_back(
        {rng.OneIn(l_nulls) ? Value::Null()
                            : RandomValue(&rng, column_type(lk)),
         rng.OneIn(r_nulls) ? Value::Null()
                            : RandomValue(&rng, column_type(rk))});
  }
  RecordBatchPtr batch = RecordBatch::FromRows(schema, rows).TakeValue();

  // Shapes: column/column, constant/column, column/constant and
  // constant/constant. The untyped-null kind is always a constant.
  const uint64_t shape = rng.Uniform(4);
  ExprPtr l = (shape & 1) != 0 || lk == TypeId::kNull
                  ? Lit(RandomValue(&rng, lk))
                  : Col("l");
  ExprPtr r = (shape & 2) != 0 || rk == TypeId::kNull
                  ? Lit(RandomValue(&rng, rk))
                  : Col("r");

  ExprPtr expr;
  const uint64_t form = rng.Uniform(10);
  if (form < 7) {
    expr = std::make_shared<BinaryExpr>(Pick(&rng, kBinaryOps), l, r);
    // Sometimes feed a binary result through another operator, so the
    // kernels also see computed (non-input) columns.
    if (rng.OneIn(0.2)) {
      expr = std::make_shared<BinaryExpr>(Pick(&rng, kBinaryOps), expr,
                                          rng.OneIn(0.5) ? l : r);
    }
  } else if (form < 9) {
    expr = std::make_shared<UnaryExpr>(Pick(&rng, kUnaryOps), l);
  } else {
    static constexpr TypeId kTargets[] = {TypeId::kInt64, TypeId::kTimestamp,
                                          TypeId::kFloat64, TypeId::kString,
                                          TypeId::kBool};
    expr = Cast(l, Pick(&rng, kTargets));
  }
  return Case{schema, batch, expr};
}

// Same type and same encoded bytes: NaN payloads and the sign of zero
// count, so does int64 versus timestamp.
bool SameValue(const Value& a, const Value& b) {
  std::string x;
  std::string y;
  a.EncodeTo(&x);
  b.EncodeTo(&y);
  return x == y;
}

enum class Outcome { kSkipped, kChecked };

// Checks EvalBatch against EvalRow on every row of the case.
void CheckCase(uint64_t seed, const Case& c, const ExprPtr& e) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + e->ToString());
  auto batch_result = e->EvalBatch(*c.batch);
  EXPECT_TRUE(batch_result.ok()) << batch_result.status().ToString();
  if (!batch_result.ok()) return;
  const ColumnPtr& col = *batch_result;
  EXPECT_EQ(col->size(), c.batch->num_rows());
  EXPECT_EQ(col->type(), e->type());
  for (int64_t i = 0; i < c.batch->num_rows() && i < col->size(); ++i) {
    const Row row = c.batch->RowAt(i);
    auto row_result = e->EvalRow(row);
    EXPECT_TRUE(row_result.ok()) << row_result.status().ToString();
    if (!row_result.ok()) continue;
    const Value batch_value = col->ValueAt(i);
    EXPECT_TRUE(SameValue(batch_value, *row_result))
        << "row " << i << " " << RowToString(row) << ": EvalBatch "
        << batch_value.ToString() << ", EvalRow "
        << row_result->ToString();
  }
}

// Resolves the case's expression (a type error skips the case) and checks
// it; an exception fails the case like a wrong value.
Outcome DifferentialCase(uint64_t seed) {
  const Case c = MakeCase(seed);
  auto resolved = c.expr->Resolve(*c.schema);
  if (!resolved.ok()) return Outcome::kSkipped;
  try {
    CheckCase(seed, c, *resolved);
  } catch (const std::exception& ex) {
    ADD_FAILURE() << "seed " << seed << ": " << (*resolved)->ToString()
                  << " threw " << ex.what();
  }
  return Outcome::kChecked;
}

TEST(ExpressionDifferentialTest, EvalBatchMatchesEvalRow) {
  constexpr uint64_t kFirstSeed = 0x5eed0000;
  constexpr int kCases = 20000;
  int checked = 0;
  for (int i = 0; i < kCases; ++i) {
    if (DifferentialCase(kFirstSeed + static_cast<uint64_t>(i)) ==
        Outcome::kChecked) {
      ++checked;
    }
    if (::testing::Test::HasFailure()) break;  // the first seed is enough
  }
  // Type errors skip a case; most cases must still run.
  EXPECT_GT(checked, kCases / 2);
}

}  // namespace
}  // namespace sstreaming

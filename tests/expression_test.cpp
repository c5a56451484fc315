#include "expr/expression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

namespace sstreaming {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make({{"a", TypeId::kInt64, false},
                       {"b", TypeId::kInt64, true},
                       {"x", TypeId::kFloat64, true},
                       {"s", TypeId::kString, true},
                       {"flag", TypeId::kBool, true},
                       {"ts", TypeId::kTimestamp, false}});
}

RecordBatchPtr TestBatch() {
  return RecordBatch::FromRows(
             TestSchema(),
             {{Value::Int64(1), Value::Int64(10), Value::Float64(0.5),
               Value::Str("ca"), Value::Bool(true), Value::Timestamp(1000)},
              {Value::Int64(2), Value::Null(), Value::Float64(1.5),
               Value::Str("ny"), Value::Bool(false), Value::Timestamp(2500)},
              {Value::Int64(3), Value::Int64(30), Value::Null(),
               Value::Null(), Value::Null(), Value::Timestamp(4999)}})
      .TakeValue();
}

ExprPtr MustResolve(ExprPtr e, const Schema& schema) {
  auto r = e->Resolve(schema);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.TakeValue();
}

TEST(ExpressionTest, ColumnRefResolveAndEval) {
  auto schema = TestSchema();
  ExprPtr e = MustResolve(Col("a"), *schema);
  EXPECT_EQ(e->type(), TypeId::kInt64);
  auto batch = TestBatch();
  auto col = e->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->Int64At(2), 3);
  auto v = e->EvalRow(batch->RowAt(1));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int64(2));
}

TEST(ExpressionTest, UnresolvedColumnIsAnalysisError) {
  auto r = Col("missing")->Resolve(*TestSchema());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsAnalysisError());
}

TEST(ExpressionTest, ArithmeticTyping) {
  auto schema = TestSchema();
  EXPECT_EQ(MustResolve(Add(Col("a"), Col("b")), *schema)->type(),
            TypeId::kInt64);
  EXPECT_EQ(MustResolve(Add(Col("a"), Col("x")), *schema)->type(),
            TypeId::kFloat64);
  EXPECT_EQ(MustResolve(Div(Col("a"), Col("b")), *schema)->type(),
            TypeId::kFloat64);
  EXPECT_EQ(MustResolve(Add(Col("ts"), Lit(5)), *schema)->type(),
            TypeId::kTimestamp);
  EXPECT_EQ(MustResolve(Sub(Col("ts"), Col("ts")), *schema)->type(),
            TypeId::kInt64);
}

TEST(ExpressionTest, TypeErrorsRejected) {
  auto schema = TestSchema();
  EXPECT_FALSE(Add(Col("s"), Lit(1))->Resolve(*schema).ok());
  EXPECT_FALSE(And(Col("a"), Col("flag"))->Resolve(*schema).ok());
  EXPECT_FALSE(Eq(Col("s"), Col("a"))->Resolve(*schema).ok());
  EXPECT_FALSE(Not(Col("a"))->Resolve(*schema).ok());
}

TEST(ExpressionTest, VectorizedArithmeticNoNulls) {
  auto schema = TestSchema();
  auto batch = TestBatch();
  ExprPtr e = MustResolve(Mul(Col("a"), Lit(100)), *schema);
  auto col = e->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->Int64At(0), 100);
  EXPECT_EQ((*col)->Int64At(2), 300);
}

TEST(ExpressionTest, NullPropagationInArithmetic) {
  auto schema = TestSchema();
  auto batch = TestBatch();
  ExprPtr e = MustResolve(Add(Col("a"), Col("b")), *schema);
  auto col = e->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->Int64At(0), 11);
  EXPECT_TRUE((*col)->IsNull(1));
  EXPECT_EQ((*col)->Int64At(2), 33);
}

TEST(ExpressionTest, DivisionByZeroYieldsNull) {
  auto schema = TestSchema();
  auto batch = TestBatch();
  ExprPtr e = MustResolve(Div(Col("a"), Lit(0)), *schema);
  auto col = e->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE((*col)->IsNull(0));
}

TEST(ExpressionTest, ComparisonVectorized) {
  auto schema = TestSchema();
  auto batch = TestBatch();
  ExprPtr e = MustResolve(Ge(Col("a"), Lit(2)), *schema);
  auto col = e->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE((*col)->BoolAt(0));
  EXPECT_TRUE((*col)->BoolAt(1));
  EXPECT_TRUE((*col)->BoolAt(2));
  e = MustResolve(Le(Col("a"), Lit(2)), *schema);
  col = e->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE((*col)->BoolAt(0));
  EXPECT_TRUE((*col)->BoolAt(1));
  EXPECT_FALSE((*col)->BoolAt(2));
}

TEST(ExpressionTest, StringEquality) {
  auto schema = TestSchema();
  auto batch = TestBatch();
  ExprPtr e = MustResolve(Eq(Col("s"), Lit("ca")), *schema);
  auto col = e->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_TRUE((*col)->BoolAt(0));
  EXPECT_FALSE((*col)->BoolAt(1));
  EXPECT_TRUE((*col)->IsNull(2));  // null input -> null comparison
}

TEST(ExpressionTest, KleeneLogic) {
  auto schema = TestSchema();
  // false AND null = false; true AND null = null.
  ExprPtr false_and_null =
      MustResolve(And(Lit(false), IsNull(Col("b"))), *schema);
  ExprPtr true_or_null = MustResolve(Or(Lit(true), Eq(Col("b"), Lit(1))),
                                     *schema);
  auto batch = TestBatch();
  auto c1 = false_and_null->EvalBatch(*batch);
  ASSERT_TRUE(c1.ok());
  EXPECT_FALSE((*c1)->BoolAt(1));
  auto c2 = true_or_null->EvalBatch(*batch);
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE((*c2)->BoolAt(1));
  // null AND true = null
  ExprPtr null_and_true =
      MustResolve(And(Eq(Col("b"), Lit(10)), Lit(true)), *schema);
  auto c3 = null_and_true->EvalBatch(*batch);
  ASSERT_TRUE(c3.ok());
  EXPECT_TRUE((*c3)->BoolAt(0));   // 10 == 10
  EXPECT_TRUE((*c3)->IsNull(1));   // null == 10 -> null AND true -> null
}

TEST(ExpressionTest, IsNullOperators) {
  auto schema = TestSchema();
  auto batch = TestBatch();
  ExprPtr e = MustResolve(IsNull(Col("b")), *schema);
  auto col = e->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE((*col)->BoolAt(0));
  EXPECT_TRUE((*col)->BoolAt(1));
  ExprPtr e2 = MustResolve(IsNotNull(Col("b")), *schema);
  auto col2 = e2->EvalBatch(*batch);
  EXPECT_TRUE((*col2)->BoolAt(0));
}

TEST(ExpressionTest, CastStringToInt) {
  auto schema = Schema::Make({{"s", TypeId::kString, true}});
  auto batch = RecordBatch::FromRows(schema, {{Value::Str("42")},
                                              {Value::Str("nope")},
                                              {Value::Null()}})
                   .TakeValue();
  ExprPtr e = MustResolve(Cast(Col("s"), TypeId::kInt64), *schema);
  auto col = e->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->Int64At(0), 42);
  EXPECT_TRUE((*col)->IsNull(1));  // unparseable -> null
  EXPECT_TRUE((*col)->IsNull(2));
}

TEST(ExpressionTest, CastNumericAndTimestamp) {
  auto schema = TestSchema();
  auto batch = TestBatch();
  ExprPtr to_ts = MustResolve(Cast(Col("a"), TypeId::kTimestamp), *schema);
  auto col = to_ts->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->type(), TypeId::kTimestamp);
  EXPECT_EQ((*col)->Int64At(0), 1);
  ExprPtr to_str = MustResolve(Cast(Col("a"), TypeId::kString), *schema);
  auto col2 = to_str->EvalBatch(*batch);
  EXPECT_EQ((*col2)->StringAt(2), "3");
}

TEST(ExpressionTest, TumblingWindowAssignsStarts) {
  auto schema = TestSchema();
  auto batch = TestBatch();
  ExprPtr w = MustResolve(TumblingWindow(Col("ts"), 1000), *schema);
  auto col = w->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->Int64At(0), 1000);  // ts=1000 -> [1000,2000)
  EXPECT_EQ((*col)->Int64At(1), 2000);  // ts=2500 -> [2000,3000)
  EXPECT_EQ((*col)->Int64At(2), 4000);  // ts=4999 -> [4000,5000)
}

TEST(ExpressionTest, WindowNegativeTimestampsFloor) {
  auto schema = Schema::Make({{"ts", TypeId::kTimestamp, false}});
  auto batch =
      RecordBatch::FromRows(schema, {{Value::Timestamp(-1)}}).TakeValue();
  ExprPtr w = MustResolve(TumblingWindow(Col("ts"), 1000), *schema);
  auto col = w->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->Int64At(0), -1000);
}

TEST(ExpressionTest, SlidingWindowEnumeration) {
  // 1h windows sliding every 5min (paper §4.1), scaled down: size=60, slide=5.
  WindowExpr w(Col("ts"), 60, 5);
  std::vector<int64_t> starts;
  w.EnumerateWindowStarts(62, &starts);
  ASSERT_EQ(starts.size(), 12u);
  EXPECT_EQ(starts.front(), 5);   // [5, 65) contains 62
  EXPECT_EQ(starts.back(), 60);   // [60, 120) contains 62
}

TEST(ExpressionTest, WindowValidation) {
  auto schema = TestSchema();
  EXPECT_FALSE(Window(Col("ts"), 0, 0)->Resolve(*schema).ok());
  EXPECT_FALSE(Window(Col("ts"), 10, 20)->Resolve(*schema).ok());
  EXPECT_FALSE(Window(Col("a"), 10, 10)->Resolve(*schema).ok());  // not ts
}

TEST(ExpressionTest, UdfEvaluation) {
  auto schema = TestSchema();
  ScalarFn fn = [](const std::vector<Value>& args) -> Result<Value> {
    if (args[0].is_null()) return Value::Null();
    return Value::Int64(args[0].int64_value() * 2);
  };
  ExprPtr e =
      MustResolve(Udf("double", fn, TypeId::kInt64, {Col("b")}), *schema);
  auto batch = TestBatch();
  auto col = e->EvalBatch(*batch);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->Int64At(0), 20);
  EXPECT_TRUE((*col)->IsNull(1));
}

TEST(ExpressionTest, UdfErrorPropagates) {
  auto schema = TestSchema();
  ScalarFn fn = [](const std::vector<Value>&) -> Result<Value> {
    return Status::InvalidArgument("UDF crashed on record");
  };
  ExprPtr e = MustResolve(Udf("crash", fn, TypeId::kInt64, {Col("a")}),
                          *schema);
  auto col = e->EvalBatch(*TestBatch());
  ASSERT_FALSE(col.ok());
  EXPECT_TRUE(col.status().IsInvalidArgument());
}

TEST(ExpressionTest, RowAndBatchEvalAgree) {
  auto schema = TestSchema();
  auto batch = TestBatch();
  std::vector<ExprPtr> exprs = {
      Add(Col("a"), Col("b")),
      Mul(Col("x"), Lit(2.0)),
      Eq(Col("s"), Lit("ny")),
      And(Col("flag"), Gt(Col("a"), Lit(1))),
      Div(Col("b"), Col("a")),
      Cast(Col("a"), TypeId::kString),
      TumblingWindow(Col("ts"), 2000),
  };
  for (const ExprPtr& raw : exprs) {
    ExprPtr e = MustResolve(raw, *schema);
    auto col = e->EvalBatch(*batch);
    ASSERT_TRUE(col.ok()) << e->ToString();
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      auto v = e->EvalRow(batch->RowAt(i));
      ASSERT_TRUE(v.ok()) << e->ToString();
      EXPECT_EQ(*v, (*col)->ValueAt(i))
          << e->ToString() << " row " << i;
    }
  }
}

// `%` in both evaluation paths: x % -1 is 0 even for INT64_MIN (whose
// machine remainder overflows and traps), a FLOAT64 operand makes `%` a
// FLOAT64 fmod, and a zero divisor is NULL.
TEST(ExpressionTest, ModuloEdgeCasesRowAndBatchAgree) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  auto schema = Schema::Make({{"a", TypeId::kInt64, true},
                              {"b", TypeId::kInt64, true},
                              {"x", TypeId::kFloat64, true}});
  auto batch = RecordBatch::FromRows(
                   schema,
                   {{Value::Int64(kMin), Value::Int64(-1), Value::Float64(7.5)},
                    {Value::Int64(7), Value::Int64(-1), Value::Float64(-7.5)},
                    {Value::Int64(-7), Value::Int64(3), Value::Float64(0.5)},
                    {Value::Int64(5), Value::Int64(0), Value::Null()}})
                   .TakeValue();
  struct Case {
    ExprPtr expr;
    TypeId type;
    std::vector<Value> want;
  };
  const std::vector<Case> cases = {
      {Mod(Col("a"), Col("b")), TypeId::kInt64,
       {Value::Int64(0), Value::Int64(0), Value::Int64(-1), Value::Null()}},
      {Mod(Col("a"), Lit(-1)), TypeId::kInt64,
       {Value::Int64(0), Value::Int64(0), Value::Int64(0), Value::Int64(0)}},
      {Mod(Col("x"), Lit(2)), TypeId::kFloat64,
       {Value::Float64(1.5), Value::Float64(-1.5), Value::Float64(0.5),
        Value::Null()}},
      {Mod(Col("a"), Col("x")), TypeId::kFloat64,
       {Value::Float64(std::fmod(static_cast<double>(kMin), 7.5)),
        Value::Float64(7.0), Value::Float64(-0.0), Value::Null()}},
      {Mod(Col("x"), Col("b")), TypeId::kFloat64,
       {Value::Float64(0.5), Value::Float64(-0.5), Value::Float64(0.5),
        Value::Null()}},
      {Mod(Col("x"), Lit(0.0)), TypeId::kFloat64,
       {Value::Null(), Value::Null(), Value::Null(), Value::Null()}},
  };
  for (const Case& c : cases) {
    ExprPtr e = MustResolve(c.expr, *schema);
    EXPECT_EQ(e->type(), c.type) << e->ToString();
    auto col = e->EvalBatch(*batch);
    ASSERT_TRUE(col.ok()) << e->ToString();
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      auto v = e->EvalRow(batch->RowAt(i));
      ASSERT_TRUE(v.ok()) << e->ToString();
      const Value& want = c.want[static_cast<size_t>(i)];
      EXPECT_EQ(v->ToString(), want.ToString())
          << e->ToString() << " row " << i;
      EXPECT_EQ((*col)->ValueAt(i).ToString(), want.ToString())
          << e->ToString() << " row " << i;
    }
  }
}

// int64 +, -, * and negation wrap in two's complement on overflow (Spark's
// non-ANSI arithmetic) on every path: the column-vs-literal and
// column-vs-column batch kernels, the null-aware generic batch path, and
// row evaluation.
TEST(ExpressionTest, IntegerArithmeticWrapsOnOverflow) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  auto schema = Schema::Make({{"a", TypeId::kInt64, false},
                              {"b", TypeId::kInt64, false},
                              {"c", TypeId::kInt64, true}});
  auto batch =
      RecordBatch::FromRows(
          schema, {{Value::Int64(kMax), Value::Int64(1), Value::Int64(kMax)},
                   {Value::Int64(kMin), Value::Int64(-1), Value::Null()},
                   {Value::Int64(3), Value::Int64(2), Value::Int64(kMin)}})
          .TakeValue();
  struct Case {
    ExprPtr expr;
    std::vector<Value> want;
  };
  const std::vector<Case> cases = {
      {Add(Col("a"), Lit(1)),
       {Value::Int64(kMin), Value::Int64(kMin + 1), Value::Int64(4)}},
      {Sub(Col("a"), Lit(1)),
       {Value::Int64(kMax - 1), Value::Int64(kMax), Value::Int64(2)}},
      {Mul(Col("a"), Lit(2)),
       {Value::Int64(-2), Value::Int64(0), Value::Int64(6)}},
      {Add(Col("a"), Col("b")),
       {Value::Int64(kMin), Value::Int64(kMax), Value::Int64(5)}},
      {Sub(Col("b"), Col("a")),
       {Value::Int64(kMin + 2), Value::Int64(kMax), Value::Int64(-1)}},
      {Mul(Col("a"), Col("b")),
       {Value::Int64(kMax), Value::Int64(kMin), Value::Int64(6)}},
      {Neg(Col("a")),
       {Value::Int64(kMin + 1), Value::Int64(kMin), Value::Int64(-3)}},
      {Add(Col("c"), Lit(1)),
       {Value::Int64(kMin), Value::Null(), Value::Int64(kMin + 1)}},
      {Mul(Col("c"), Col("b")),
       {Value::Int64(kMax), Value::Null(), Value::Int64(0)}},
      {Neg(Col("c")),
       {Value::Int64(kMin + 1), Value::Null(), Value::Int64(kMin)}},
  };
  for (const Case& c : cases) {
    ExprPtr e = MustResolve(c.expr, *schema);
    EXPECT_EQ(e->type(), TypeId::kInt64) << e->ToString();
    auto col = e->EvalBatch(*batch);
    ASSERT_TRUE(col.ok()) << e->ToString();
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      auto v = e->EvalRow(batch->RowAt(i));
      ASSERT_TRUE(v.ok()) << e->ToString();
      const Value& want = c.want[static_cast<size_t>(i)];
      EXPECT_EQ(v->ToString(), want.ToString())
          << e->ToString() << " row " << i;
      EXPECT_EQ((*col)->ValueAt(i).ToString(), want.ToString())
          << e->ToString() << " row " << i;
    }
  }
}

// CAST of a FLOAT64 to an int64-backed type truncates toward zero when the
// result fits; NaN, the infinities and out-of-range values are NULL (the
// conversion is undefined behaviour in C++), as unparseable strings are.
TEST(ExpressionTest, CastOfUnrepresentableFloatToIntegerIsNull) {
  auto schema = Schema::Make({{"x", TypeId::kFloat64, true}});
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {std::nan(""), kInf,    -kInf,   1e300,
                                  -1e300,       0x1p63,  -0x1p63, 2.9,
                                  -2.9,         -0.0};
  std::vector<Row> rows;
  for (double x : xs) rows.push_back({Value::Float64(x)});
  auto batch = RecordBatch::FromRows(schema, rows).TakeValue();
  const std::vector<std::optional<int64_t>> want = {
      std::nullopt, std::nullopt, std::nullopt, std::nullopt,
      std::nullopt, std::nullopt, std::numeric_limits<int64_t>::min(),
      2,            -2,           0};
  for (TypeId target : {TypeId::kInt64, TypeId::kTimestamp}) {
    ExprPtr e = MustResolve(Cast(Col("x"), target), *schema);
    auto col = e->EvalBatch(*batch);
    ASSERT_TRUE(col.ok()) << e->ToString();
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      const auto& w = want[static_cast<size_t>(i)];
      const Value expected =
          !w ? Value::Null()
             : (target == TypeId::kInt64 ? Value::Int64(*w)
                                         : Value::Timestamp(*w));
      auto v = e->EvalRow(batch->RowAt(i));
      ASSERT_TRUE(v.ok()) << e->ToString();
      EXPECT_EQ(v->ToString(), expected.ToString())
          << e->ToString() << " x=" << xs[static_cast<size_t>(i)];
      EXPECT_EQ((*col)->ValueAt(i).ToString(), expected.ToString())
          << e->ToString() << " x=" << xs[static_cast<size_t>(i)];
      EXPECT_EQ((*col)->ValueAt(i).type(), expected.type());
    }
  }
}

// Spark SQL's NaN rule: NaN equals NaN and is larger than every other
// double, on the vectorized and the row path alike.
TEST(ExpressionTest, NaNComparesAsTheLargestDouble) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto schema = Schema::Make({{"x", TypeId::kFloat64, false}});
  auto batch = RecordBatch::FromRows(schema, {{Value::Float64(nan)},
                                              {Value::Float64(1.0)},
                                              {Value::Float64(2.0)}})
                   .TakeValue();
  struct Probe {
    ExprPtr expr;
    std::vector<bool> want;  // per row: NaN, 1.0, 2.0
  };
  const Probe probes[] = {
      {Eq(Col("x"), Lit(1.0)), {false, true, false}},
      {Eq(Lit(1.0), Col("x")), {false, true, false}},
      {Ne(Col("x"), Lit(1.0)), {true, false, true}},
      {Le(Col("x"), Lit(1.0)), {false, true, false}},
      {Lt(Col("x"), Lit(2.0)), {false, true, false}},
      {Ge(Col("x"), Lit(2.0)), {true, false, true}},
      {Gt(Col("x"), Lit(1.0)), {true, false, true}},
      {Eq(Col("x"), Lit(nan)), {true, false, false}},
      {Gt(Col("x"), Lit(std::numeric_limits<double>::infinity())),
       {true, false, false}},
      {Eq(Col("x"), Col("x")), {true, true, true}},
      {Gt(Col("x"), Lit(int64_t{1})), {true, false, true}},
  };
  for (const Probe& p : probes) {
    ExprPtr e = MustResolve(p.expr, *schema);
    auto col = e->EvalBatch(*batch);
    ASSERT_TRUE(col.ok()) << e->ToString();
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      const Value want = Value::Bool(p.want[static_cast<size_t>(i)]);
      auto v = e->EvalRow(batch->RowAt(i));
      ASSERT_TRUE(v.ok()) << e->ToString();
      EXPECT_EQ(v->ToString(), want.ToString()) << e->ToString() << " row " << i;
      EXPECT_EQ((*col)->ValueAt(i).ToString(), want.ToString())
          << e->ToString() << " row " << i;
    }
  }
  // Nulls still sort first, and NaN against a non-number keeps the type
  // order.
  EXPECT_LT(SqlCompare(Value::Null(), Value::Float64(nan)), 0);
  EXPECT_EQ(SqlCompare(Value::Float64(nan), Value::Float64(-nan)), 0);
  EXPECT_EQ(SqlCompare(Value::Float64(-0.0), Value::Float64(0.0)), 0);
  EXPECT_GT(SqlCompare(Value::Float64(nan), Value::Int64(INT64_MAX)), 0);
}

// ts +/- delta needs a whole-microsecond delta.
TEST(ExpressionTest, TimestampPlusOrMinusFloatIsATypeError) {
  auto schema = TestSchema();
  for (ExprPtr e : {Add(Col("ts"), Col("x")), Sub(Col("ts"), Lit(1.5)),
                    Add(Lit(0.5), Col("ts"))}) {
    auto r = e->Resolve(*schema);
    ASSERT_FALSE(r.ok()) << e->ToString();
    EXPECT_TRUE(r.status().IsAnalysisError()) << r.status().ToString();
  }
  EXPECT_EQ(MustResolve(Add(Col("ts"), Col("a")), *schema)->type(),
            TypeId::kTimestamp);
}

TEST(ExpressionTest, CollectColumnRefs) {
  ExprPtr e = And(Eq(Col("s"), Lit("ca")), Gt(Add(Col("a"), Col("b")),
                                              Lit(0)));
  std::vector<std::string> refs;
  e->CollectColumnRefs(&refs);
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0], "s");
  EXPECT_EQ(refs[1], "a");
  EXPECT_EQ(refs[2], "b");
}

TEST(ExpressionTest, ToStringRenders) {
  EXPECT_EQ(Add(Col("a"), Lit(1))->ToString(), "(a + 1)");
  EXPECT_EQ(IsNull(Col("x"))->ToString(), "x IS NULL");
}

}  // namespace
}  // namespace sstreaming

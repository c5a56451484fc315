#include "types/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "types/row.h"

namespace sstreaming {
namespace {

TEST(ValueTest, FactoriesSetTypes) {
  EXPECT_EQ(Value::Null().type(), TypeId::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), TypeId::kBool);
  EXPECT_EQ(Value::Int64(5).type(), TypeId::kInt64);
  EXPECT_EQ(Value::Float64(2.5).type(), TypeId::kFloat64);
  EXPECT_EQ(Value::Str("x").type(), TypeId::kString);
  EXPECT_EQ(Value::Timestamp(1000).type(), TypeId::kTimestamp);
}

TEST(ValueTest, Accessors) {
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int64(-3).int64_value(), -3);
  EXPECT_DOUBLE_EQ(Value::Float64(1.25).float64_value(), 1.25);
  EXPECT_EQ(Value::Str("abc").string_value(), "abc");
  EXPECT_EQ(Value::Timestamp(77).int64_value(), 77);
  EXPECT_DOUBLE_EQ(Value::Int64(4).AsDouble(), 4.0);
}

TEST(ValueTest, CompareNullsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int64(0)), 0);
  EXPECT_GT(Value::Int64(0).Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, NumericCrossTypeCompare) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Float64(3.0)), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Float64(3.5)), 0);
  EXPECT_GT(Value::Float64(4.0).Compare(Value::Int64(3)), 0);
  EXPECT_EQ(Value::Timestamp(5).Compare(Value::Int64(5)), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value::Str("a").Compare(Value::Str("b")), 0);
  EXPECT_EQ(Value::Str("ab").Compare(Value::Str("ab")), 0);
  EXPECT_GT(Value::Str("b").Compare(Value::Str("a")), 0);
}

TEST(ValueTest, EqualValuesHashEqually) {
  EXPECT_EQ(Value::Int64(42).Hash(), Value::Int64(42).Hash());
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  // Cross-type numeric equality implies equal hashes.
  EXPECT_EQ(Value::Int64(3).Hash(), Value::Float64(3.0).Hash());
  EXPECT_NE(Value::Int64(1).Hash(), Value::Int64(2).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int64(9).ToString(), "9");
  EXPECT_EQ(Value::Str("hey").ToString(), "hey");
}

TEST(ValueTest, EncodeDecodeRoundTrip) {
  std::vector<Value> values = {
      Value::Null(),          Value::Bool(true),    Value::Bool(false),
      Value::Int64(-1234567), Value::Float64(2.75), Value::Str(""),
      Value::Str("hello \x01 world"), Value::Timestamp(1700000000000000LL)};
  std::string buf;
  for (const Value& v : values) v.EncodeTo(&buf);
  size_t pos = 0;
  for (const Value& expected : values) {
    auto got = Value::DecodeFrom(buf, &pos);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->type(), expected.type());
    EXPECT_EQ(*got, expected);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(ValueTest, DecodeTruncatedFails) {
  std::string buf;
  Value::Str("hello").EncodeTo(&buf);
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    std::string partial = buf.substr(0, cut);
    size_t pos = 0;
    EXPECT_FALSE(Value::DecodeFrom(partial, &pos).ok()) << "cut=" << cut;
  }
}

TEST(RowTest, EncodeDecodeRoundTrip) {
  Row row = {Value::Int64(1), Value::Str("x"), Value::Null(),
             Value::Float64(0.5)};
  std::string buf;
  EncodeRow(row, &buf);
  auto decoded = DecodeRow(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(CompareRows(*decoded, row), 0);
}

TEST(RowTest, CompareRowsLexicographic) {
  Row a = {Value::Int64(1), Value::Str("a")};
  Row b = {Value::Int64(1), Value::Str("b")};
  Row c = {Value::Int64(2)};
  EXPECT_LT(CompareRows(a, b), 0);
  EXPECT_LT(CompareRows(a, c), 0);
  EXPECT_EQ(CompareRows(a, a), 0);
  // Prefix ordering: shorter row sorts first when equal so far.
  Row prefix = {Value::Int64(1)};
  EXPECT_LT(CompareRows(prefix, a), 0);
}

// RowLess must be a strict weak order, or std::sort (RunBatchSorted,
// MemorySink::SortedSnapshot) is undefined: every permutation of the same
// values sorts to one order, non-decreasing under SqlCompare, with the null
// first and NaN last. (Under Value::Compare NaN tied with every number.)
TEST(RowTest, SortIsOneOrderForEveryPermutation) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Value> values = {
      Value::Null(),
      Value::Float64(std::numeric_limits<double>::quiet_NaN()),
      Value::Float64(-inf),
      Value::Float64(-0.0),
      Value::Float64(1.0),
      Value::Float64(2.0),
      Value::Float64(inf)};
  std::vector<int> order = {0, 1, 2, 3, 4, 5, 6};
  int permutations = 0;
  do {
    std::vector<Row> rows;
    for (int i : order) rows.push_back({values[static_cast<size_t>(i)]});
    std::sort(rows.begin(), rows.end(), RowLess());
    std::string got;
    for (const Row& row : rows) got += RowToString(row) + " ";
    SCOPED_TRACE(got);
    ASSERT_TRUE(rows.front()[0].is_null());
    ASSERT_TRUE(std::isnan(rows.back()[0].float64_value()));
    for (size_t i = 1; i < rows.size(); ++i) {
      ASSERT_LE(SqlCompare(rows[i - 1][0], rows[i][0]), 0);
    }
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 5040);
}

TEST(RowTest, HashRowConsistentWithEquality) {
  Row a = {Value::Int64(7), Value::Str("k")};
  Row b = {Value::Int64(7), Value::Str("k")};
  EXPECT_EQ(HashRow(a), HashRow(b));
}

}  // namespace
}  // namespace sstreaming

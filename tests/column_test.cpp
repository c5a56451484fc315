#include "types/column.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace sstreaming {
namespace {

TEST(ColumnTest, AppendAndReadInt64) {
  Column c(TypeId::kInt64);
  c.AppendInt64(1);
  c.AppendNull();
  c.AppendInt64(3);
  EXPECT_EQ(c.size(), 3);
  EXPECT_EQ(c.null_count(), 1);
  EXPECT_FALSE(c.IsNull(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.Int64At(0), 1);
  EXPECT_EQ(c.Int64At(2), 3);
}

TEST(ColumnTest, AppendAndReadString) {
  Column c(TypeId::kString);
  c.AppendString("a");
  c.AppendString("bb");
  c.AppendNull();
  EXPECT_EQ(c.StringAt(1), "bb");
  EXPECT_TRUE(c.IsNull(2));
}

TEST(ColumnTest, ValueAtBoxesCorrectly) {
  Column c(TypeId::kTimestamp);
  c.AppendInt64(500);
  c.AppendNull();
  EXPECT_EQ(c.ValueAt(0), Value::Timestamp(500));
  EXPECT_TRUE(c.ValueAt(1).is_null());
}

TEST(ColumnTest, AppendValueMatchesType) {
  Column c(TypeId::kFloat64);
  c.AppendValue(Value::Float64(1.5));
  c.AppendValue(Value::Int64(2));  // widened
  c.AppendValue(Value::Null());
  EXPECT_DOUBLE_EQ(c.Float64At(0), 1.5);
  EXPECT_DOUBLE_EQ(c.Float64At(1), 2.0);
  EXPECT_TRUE(c.IsNull(2));
}

TEST(ColumnTest, NumericAtWidens) {
  Column c(TypeId::kInt64);
  c.AppendInt64(7);
  EXPECT_DOUBLE_EQ(c.NumericAt(0), 7.0);
}

TEST(ColumnTest, HashIntoAgreesWithValueHash) {
  Column c(TypeId::kString);
  c.AppendString("k1");
  c.AppendNull();
  c.AppendString("k2");
  std::vector<uint64_t> hashes(3, 0x811C9DC5ULL);
  c.HashInto(&hashes);
  EXPECT_EQ(hashes[0], HashMix(0x811C9DC5ULL, Value::Str("k1").Hash()));
  EXPECT_EQ(hashes[1], HashMix(0x811C9DC5ULL, Value::Null().Hash()));
  EXPECT_EQ(hashes[2], HashMix(0x811C9DC5ULL, Value::Str("k2").Hash()));
}

TEST(ColumnTest, BoolStorage) {
  Column c(TypeId::kBool);
  c.AppendBool(true);
  c.AppendBool(false);
  c.AppendNull();
  EXPECT_TRUE(c.BoolAt(0));
  EXPECT_FALSE(c.BoolAt(1));
  EXPECT_TRUE(c.has_nulls());
}

TEST(ColumnTest, ReserveDoesNotChangeSize) {
  Column c(TypeId::kInt64);
  c.Reserve(100);
  EXPECT_EQ(c.size(), 0);
}

// One column per physical storage class, each mixing nulls with the values
// a byte-level copy could get wrong: NaN, -0.0, empty strings.
Column RangeSource(TypeId type) {
  Column c(type);
  for (int i = 0; i < 12; ++i) {
    if (i % 4 == 1) {
      c.AppendNull();
      continue;
    }
    switch (type) {
      case TypeId::kBool:
        c.AppendBool(i % 3 == 0);
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        c.AppendInt64(i % 5 == 0 ? std::numeric_limits<int64_t>::min()
                                 : i * 1000 - 7);
        break;
      case TypeId::kFloat64:
        c.AppendFloat64(i % 3 == 0   ? std::nan("")
                        : i % 3 == 2 ? -0.0
                                     : i * 0.25);
        break;
      case TypeId::kString:
        c.AppendString(i % 3 == 0 ? "" : std::string(static_cast<size_t>(i),
                                                     'a' + i % 26));
        break;
      case TypeId::kNull:
        c.AppendNull();
        break;
    }
  }
  return c;
}

// Same length, nulls, byte footprint, and per-value encoding (bit-exact for
// NaN and -0.0, where operator== on Value would not tell them apart).
void ExpectSameColumn(const Column& a, const Column& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.type(), b.type());
  EXPECT_EQ(a.null_count(), b.null_count());
  EXPECT_EQ(a.ApproxBytes(), b.ApproxBytes());
  for (int64_t i = 0; i < a.size(); ++i) {
    std::string ea;
    std::string eb;
    a.EncodeValueTo(i, &ea);
    b.EncodeValueTo(i, &eb);
    EXPECT_EQ(ea, eb) << "row " << i;
  }
}

TEST(ColumnTest, AppendRangeMatchesPerElementAppendFrom) {
  for (TypeId type : {TypeId::kBool, TypeId::kInt64, TypeId::kFloat64,
                      TypeId::kString, TypeId::kTimestamp}) {
    SCOPED_TRACE(TypeName(type));
    const Column src = RangeSource(type);
    // Whole column, interior ranges starting on null and non-null rows,
    // empty ranges, and ranges appended onto non-empty columns.
    const std::pair<int64_t, int64_t> ranges[] = {
        {0, src.size()}, {1, 5}, {2, 9}, {11, 1}, {4, 0}, {0, 0}};
    Column bulk(type);
    Column each(type);
    for (const auto& [start, length] : ranges) {
      bulk.AppendRange(src, start, length);
      for (int64_t i = start; i < start + length; ++i) each.AppendFrom(src, i);
      ExpectSameColumn(bulk, each);
    }
  }
}

TEST(ColumnTest, AppendRangeFromAllNullColumnAppendsNulls) {
  Column nulls(TypeId::kNull);
  nulls.AppendNull();
  nulls.AppendNull();
  nulls.AppendNull();
  Column out(TypeId::kString);
  out.AppendString("x");
  out.AppendRange(nulls, 1, 2);
  EXPECT_EQ(out.size(), 3);
  EXPECT_EQ(out.null_count(), 2);
  EXPECT_TRUE(out.IsNull(2));
  EXPECT_EQ(out.StringAt(0), "x");
}

TEST(ColumnTest, AppendNullsMatchesAppendNull) {
  for (TypeId type : {TypeId::kNull, TypeId::kBool, TypeId::kInt64,
                      TypeId::kFloat64, TypeId::kString}) {
    Column bulk(type);
    Column each(type);
    bulk.AppendNulls(5);
    for (int i = 0; i < 5; ++i) each.AppendNull();
    ExpectSameColumn(bulk, each);
  }
}

}  // namespace
}  // namespace sstreaming

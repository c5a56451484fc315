#include "types/column.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

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

// Appends to `each` what AppendGather appends: AppendFrom per index.
void AppendEach(const Column& src, const std::vector<int32_t>& idx,
                Column* each) {
  for (int32_t i : idx) each->AppendFrom(src, i);
}

TEST(ColumnTest, AppendGatherMatchesPerElementAppendFrom) {
  // Strings past the small-string buffer, so a gather copies heap bytes.
  Column long_strings(TypeId::kString);
  for (int i = 0; i < 12; ++i) {
    if (i % 5 == 2) {
      long_strings.AppendNull();
    } else {
      long_strings.AppendString(std::string(40 + static_cast<size_t>(i),
                                            static_cast<char>('a' + i)));
    }
  }
  std::vector<Column> sources;
  for (TypeId type : {TypeId::kBool, TypeId::kInt64, TypeId::kFloat64,
                      TypeId::kString, TypeId::kTimestamp}) {
    sources.push_back(RangeSource(type));  // with nulls
    Column dense(type);                    // without
    for (int64_t i = 0; i < sources.back().size(); ++i) {
      if (!sources.back().IsNull(i)) dense.AppendFrom(sources.back(), i);
    }
    ASSERT_FALSE(dense.has_nulls());
    sources.push_back(std::move(dense));
  }
  sources.push_back(std::move(long_strings));
  // Empty, full, reversed, repeated, and one-row index lists.
  const std::vector<std::vector<int32_t>> lists = {
      {}, {0, 1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1, 0}, {2, 2, 2, 0, 0},
      {1, 5, 1, 5, 3}, {4}};
  for (const Column& src : sources) {
    SCOPED_TRACE(std::string(TypeName(src.type())) +
                 (src.has_nulls() ? " with nulls" : " without nulls"));
    Column gathered(src.type());
    Column each(src.type());
    for (const std::vector<int32_t>& idx : lists) {
      gathered.AppendGather(src, idx.data(), static_cast<int64_t>(idx.size()));
      AppendEach(src, idx, &each);
      ExpectSameColumn(gathered, each);
    }
  }
}

TEST(ColumnTest, AppendGatherFromAllNullColumnAppendsNulls) {
  Column nulls(TypeId::kNull);
  nulls.AppendNulls(4);
  const std::vector<int32_t> idx = {3, 0, 0, 2};
  for (TypeId type : {TypeId::kNull, TypeId::kBool, TypeId::kInt64,
                      TypeId::kFloat64, TypeId::kString}) {
    SCOPED_TRACE(TypeName(type));
    Column gathered(type);
    Column each(type);
    gathered.AppendGather(nulls, idx.data(), 4);
    AppendEach(nulls, idx, &each);
    ExpectSameColumn(gathered, each);
    EXPECT_EQ(gathered.null_count(), 4);
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

// SetFrom against a column rebuilt with AppendFrom from the same values
// after every overwrite: value-to-value, value-to-null (from a null-typed
// column too) and null-to-value, so null_count() and ApproxBytes() (string
// bytes included) must stay exact.
TEST(ColumnTest, SetFromMatchesAColumnBuiltFromTheSameValues) {
  for (TypeId type : {TypeId::kBool, TypeId::kInt64, TypeId::kFloat64,
                      TypeId::kString, TypeId::kTimestamp}) {
    SCOPED_TRACE(TypeName(type));
    const Column src = RangeSource(type);
    Column nulls(TypeId::kNull);
    nulls.AppendNulls(3);
    Column dst(type);
    std::vector<int64_t> from;  // dst row r holds src[from[r]]; -1 is null
    for (int64_t i = 0; i < src.size(); ++i) {
      dst.AppendFrom(src, i);
      from.push_back(i);
    }
    for (int step = 0; step < 60; ++step) {
      const int64_t r = (step * 7) % src.size();
      if (step % 6 == 5) {
        dst.SetFrom(r, nulls, step % 3);
        from[static_cast<size_t>(r)] = -1;
      } else {
        const int64_t j = (step * 5 + 3) % src.size();
        dst.SetFrom(r, src, j);
        from[static_cast<size_t>(r)] = j;
      }
      Column want(type);
      for (int64_t f : from) {
        if (f < 0) {
          want.AppendNull();
        } else {
          want.AppendFrom(src, f);
        }
      }
      SCOPED_TRACE("step " + std::to_string(step));
      ExpectSameColumn(dst, want);
    }
  }
}

TEST(ColumnTest, SetFromKeepsNullCountAndStringBytes) {
  Column src(TypeId::kString);
  src.AppendString("hello");
  src.AppendNull();
  Column c(TypeId::kString);
  c.AppendString("abc");
  const int64_t base = c.ApproxBytes() - 3;
  c.SetFrom(0, src, 1);  // "abc" -> null
  EXPECT_TRUE(c.IsNull(0));
  EXPECT_EQ(c.null_count(), 1);
  EXPECT_EQ(c.ApproxBytes(), base);
  c.SetFrom(0, src, 1);  // null -> null
  EXPECT_EQ(c.null_count(), 1);
  c.SetFrom(0, src, 0);  // null -> "hello"
  EXPECT_EQ(c.StringAt(0), "hello");
  EXPECT_EQ(c.null_count(), 0);
  EXPECT_EQ(c.ApproxBytes(), base + 5);
}

// ValueEquals is the identity of EncodeValueTo's bytes, over every pair of
// values from columns of every type: NaNs compare by their bits, -0.0 and
// 0.0 differ, strings with embedded NULs compare whole, an int64 and a
// timestamp of the same number differ, and a null equals a null of any type.
TEST(ColumnTest, ValueEqualsIsEncodedByteIdentity) {
  auto nan_with_payload = [](uint64_t payload) {
    const uint64_t bits = 0x7FF8000000000000ULL | payload;
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  };
  std::vector<Column> columns;
  for (TypeId type : {TypeId::kBool, TypeId::kInt64, TypeId::kFloat64,
                      TypeId::kString, TypeId::kTimestamp, TypeId::kNull}) {
    columns.push_back(RangeSource(type));
  }
  Column floats(TypeId::kFloat64);
  for (double d : {nan_with_payload(0), nan_with_payload(1), -0.0, 0.0, 1.5}) {
    floats.AppendFloat64(d);
  }
  columns.push_back(floats);
  Column strings(TypeId::kString);
  for (const std::string& s : {std::string("a"), std::string("a\0b", 3),
                               std::string("a\0c", 3), std::string()}) {
    strings.AppendString(s);
  }
  strings.AppendNull();
  columns.push_back(strings);

  int equal_pairs = 0;
  for (const Column& a : columns) {
    for (const Column& b : columns) {
      for (int64_t i = 0; i < a.size(); ++i) {
        for (int64_t j = 0; j < b.size(); ++j) {
          std::string ea;
          std::string eb;
          a.EncodeValueTo(i, &ea);
          b.EncodeValueTo(j, &eb);
          ASSERT_EQ(a.ValueEquals(i, b, j), ea == eb)
              << TypeName(a.type()) << "[" << i << "] vs "
              << TypeName(b.type()) << "[" << j << "]";
          equal_pairs += ea == eb ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(equal_pairs, 0);
  EXPECT_TRUE(floats.ValueEquals(0, floats, 0));    // NaN matches itself
  EXPECT_FALSE(floats.ValueEquals(0, floats, 1));   // not another payload
  EXPECT_FALSE(floats.ValueEquals(2, floats, 3));   // -0.0 vs 0.0
  EXPECT_TRUE(strings.ValueEquals(1, strings, 1));  // "a\0b"
  EXPECT_FALSE(strings.ValueEquals(1, strings, 0));
  EXPECT_FALSE(strings.ValueEquals(1, strings, 2));
  const Column& ints = columns[1];
  const Column& stamps = columns[4];
  EXPECT_FALSE(ints.ValueEquals(0, stamps, 0));  // same number, other type
  EXPECT_TRUE(ints.ValueEquals(1, strings, 4));  // null vs null
  EXPECT_TRUE(columns[5].ValueEquals(0, ints, 1));
}

// HashInto must hash every value exactly like Value::Hash, row by row: the
// shuffle partitions rows by the column kernel, and keyed lookups by the
// boxed hash.
TEST(ColumnTest, HashIntoMatchesValueHashForEveryKind) {
  auto nan_with_payload = [](uint64_t payload) {
    const uint64_t bits = 0x7FF8000000000000ULL | payload;
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  };
  std::vector<Column> columns;
  for (TypeId type : {TypeId::kBool, TypeId::kInt64, TypeId::kFloat64,
                      TypeId::kString, TypeId::kTimestamp, TypeId::kNull}) {
    columns.push_back(RangeSource(type));  // with nulls (all, for kNull)
  }
  Column floats(TypeId::kFloat64);
  for (double d : {-0.0, 0.0, 3.0, -7.0, 0.5, 1e300, -1e300, 0x1p63, -0x1p63,
                   std::numeric_limits<double>::infinity(),
                   nan_with_payload(0), nan_with_payload(5)}) {
    floats.AppendFloat64(d);
  }
  columns.push_back(floats);
  Column bools(TypeId::kBool);
  bools.AppendBool(true);
  bools.AppendBool(false);
  columns.push_back(bools);
  for (const Column& c : columns) {
    SCOPED_TRACE(std::string(TypeName(c.type())) +
                 (c.has_nulls() ? " with nulls" : " without nulls"));
    const auto n = static_cast<size_t>(c.size());
    std::vector<uint64_t> seeds(n);
    for (size_t i = 0; i < n; ++i) seeds[i] = 0x811C9DC5ULL + i * 977;
    std::vector<uint64_t> hashes = seeds;
    c.HashInto(&hashes);
    for (size_t i = 0; i < n; ++i) {
      const auto row = static_cast<int64_t>(i);
      EXPECT_EQ(hashes[i], HashMix(seeds[i], c.ValueAt(row).Hash()))
          << "row " << i;
    }
  }
  // An integral double hashes like the equal int64, and -0.0 like 0.
  std::vector<uint64_t> float_hashes(static_cast<size_t>(floats.size()), 0);
  floats.HashInto(&float_hashes);
  EXPECT_EQ(float_hashes[0], HashMix(0, Value::Int64(0).Hash()));
  EXPECT_EQ(float_hashes[1], float_hashes[0]);
  EXPECT_EQ(float_hashes[2], HashMix(0, Value::Int64(3).Hash()));
  EXPECT_EQ(float_hashes[3], HashMix(0, Value::Int64(-7).Hash()));
  EXPECT_EQ(float_hashes[8], HashMix(0, Value::Int64(INT64_MIN).Hash()));
  EXPECT_NE(float_hashes[10], float_hashes[11]);  // NaN payloads differ
}

}  // namespace
}  // namespace sstreaming

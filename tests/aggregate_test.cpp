// The aggregate's typed records (AggRecords) against the boxed reference in
// agg_oracle.h: the reference's own arithmetic, then a seeded differential
// that folds random argument columns of every type through the kernels and
// the reference side by side and requires the same encoded state bytes
// after every row range, the same finals cell for cell, and Decode to read
// the reference's bytes back into an equal record.

#include "expr/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "agg_oracle.h"
#include "common/random.h"

namespace sstreaming {
namespace {

std::vector<AggSpec> AllSpecs() {
  return {CountAll("n"),        CountOf(Col("v"), "cnt"),
          SumOf(Col("v"), "s"), MinOf(Col("v"), "lo"),
          MaxOf(Col("v"), "hi"), AvgOf(Col("v"), "mean")};
}

TEST(AggregateTest, OutputTypes) {
  EXPECT_EQ(*AggOutputType(AggFunc::kCountAll, TypeId::kNull), TypeId::kInt64);
  EXPECT_EQ(*AggOutputType(AggFunc::kSum, TypeId::kInt64), TypeId::kInt64);
  EXPECT_EQ(*AggOutputType(AggFunc::kSum, TypeId::kFloat64),
            TypeId::kFloat64);
  EXPECT_EQ(*AggOutputType(AggFunc::kAvg, TypeId::kInt64), TypeId::kFloat64);
  EXPECT_EQ(*AggOutputType(AggFunc::kMin, TypeId::kString), TypeId::kString);
  EXPECT_FALSE(AggOutputType(AggFunc::kSum, TypeId::kString).ok());
}

TEST(AggregateTest, UpdateAndFinalize) {
  auto specs = AllSpecs();
  Row state = InitAggState(specs);
  EXPECT_EQ(state.size(), 7u);  // avg takes two slots

  auto feed = [&](Value v) {
    Row args(specs.size(), v);
    UpdateAggState(specs, args, &state);
  };
  feed(Value::Int64(10));
  feed(Value::Int64(4));
  feed(Value::Null());
  feed(Value::Int64(7));

  Row out = FinalizeAggState(specs, state);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], Value::Int64(4));   // count(*) counts nulls
  EXPECT_EQ(out[1], Value::Int64(3));   // count(v) skips nulls
  EXPECT_EQ(out[2], Value::Int64(21));  // sum
  EXPECT_EQ(out[3], Value::Int64(4));   // min
  EXPECT_EQ(out[4], Value::Int64(10));  // max
  EXPECT_DOUBLE_EQ(out[5].float64_value(), 7.0);  // avg
}

TEST(AggregateTest, FloatSums) {
  std::vector<AggSpec> specs = {SumOf(Col("v"), "s"), AvgOf(Col("v"), "m")};
  Row state = InitAggState(specs);
  UpdateAggState(specs, {Value::Float64(0.5), Value::Float64(0.5)}, &state);
  UpdateAggState(specs, {Value::Int64(2), Value::Int64(2)}, &state);
  Row out = FinalizeAggState(specs, state);
  EXPECT_DOUBLE_EQ(out[0].float64_value(), 2.5);
  EXPECT_DOUBLE_EQ(out[1].float64_value(), 1.25);
}

// A record's finals as one row of `specs`' output types.
Row Finals(const AggRecords& records, const std::vector<AggSpec>& specs,
           TypeId arg_type, const AggCell* cells, const std::string* strings) {
  std::vector<Field> fields;
  for (const AggSpec& s : specs) {
    fields.push_back({s.name, AggOutputType(s.func, arg_type).TakeValue(),
                      true});
  }
  BatchBuilder out(Schema::Make(fields));
  Status st = records.AppendFinal(cells, strings, 0, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out.Finish()->RowAt(0);
}

// Encoded bytes of a row: type byte and bits per cell, so NaN payloads and
// -0.0 count.
std::string Bytes(const Row& row) {
  std::string enc;
  EncodeRow(row, &enc);
  return enc;
}

TEST(AggregateTest, EmptyStateFinalizes) {
  auto specs = AllSpecs();
  AggRecords records(specs);
  std::vector<AggCell> cells(records.num_cells());
  std::vector<std::string> strings(records.num_strings(), "stale");
  records.Init(cells.data(), strings.data());
  std::string enc;
  records.Encode(cells.data(), strings.data(), &enc);
  EXPECT_EQ(enc, Bytes(InitAggState(specs)));
  EXPECT_EQ(Bytes(Finals(records, specs, TypeId::kInt64, cells.data(),
                         strings.data())),
            Bytes(FinalizeAggState(specs, InitAggState(specs))));
}

// A random column of `type` with nulls and the values that tell the codec
// apart: NaN, -0.0 and 0.0, infinity, the int64 extremes (sums wrap
// around), empty strings. One NaN payload only: the sum of two NaNs of
// different payloads (or signs) is the payload of whichever operand the
// compiler puts first, which C++ leaves open, so it can differ between
// two correct builds.
ColumnPtr RandomColumn(Random* rng, TypeId type, int64_t rows) {
  ColumnPtr col = Column::Make(type);
  const double doubles[] = {0.0,
                            -0.0,
                            1.5,
                            -2.25,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            1e300,
                            -3.0};
  const int64_t ints[] = {0,
                          1,
                          -7,
                          std::numeric_limits<int64_t>::max(),
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max() - 3};
  for (int64_t r = 0; r < rows; ++r) {
    if (type == TypeId::kNull || rng->OneIn(0.15)) {
      col->AppendNull();
      continue;
    }
    switch (type) {
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        col->AppendInt64(rng->OneIn(0.5)
                             ? ints[rng->Uniform(6)]
                             : static_cast<int64_t>(rng->Uniform(1000)) - 500);
        break;
      case TypeId::kFloat64:
        col->AppendFloat64(rng->OneIn(0.5) ? doubles[rng->Uniform(8)]
                                           : rng->NextDouble() * 100 - 50);
        break;
      case TypeId::kString:
        col->AppendString(rng->OneIn(0.1)
                              ? std::string()
                              : std::string("s") +
                                    std::to_string(rng->Uniform(50)));
        break;
      case TypeId::kBool:
        col->AppendBool(rng->OneIn(0.5));
        break;
      case TypeId::kNull:
        break;
    }
  }
  return col;
}

// The specs that take an argument of `type`.
std::vector<AggSpec> SpecsFor(TypeId type) {
  std::vector<AggSpec> specs = {CountAll("n"), CountOf(Col("v"), "cnt"),
                                MinOf(Col("v"), "lo"), MaxOf(Col("v"), "hi")};
  if (type == TypeId::kInt64 || type == TypeId::kFloat64 ||
      type == TypeId::kTimestamp || type == TypeId::kNull) {
    specs.push_back(SumOf(Col("v"), "s"));
    specs.push_back(AvgOf(Col("v"), "mean"));
  }
  return specs;
}

TEST(AggregateTest, KernelsMatchReference) {
  Random rng(2024);
  for (TypeId type : {TypeId::kInt64, TypeId::kFloat64, TypeId::kTimestamp,
                      TypeId::kString, TypeId::kBool, TypeId::kNull}) {
    SCOPED_TRACE(TypeName(type));
    const std::vector<AggSpec> specs = SpecsFor(type);
    AggRecords records(specs);
    std::vector<AggFoldFn> kernels;
    for (size_t s = 0; s < specs.size(); ++s) {
      kernels.push_back(records.Kernel(s, type).TakeValue());
    }
    for (int group = 0; group < 40; ++group) {
      const ColumnPtr col = RandomColumn(&rng, type, 1 + rng.Uniform(30));
      std::vector<AggCell> cells(records.num_cells());
      std::vector<std::string> strings(records.num_strings());
      records.Init(cells.data(), strings.data());
      Row state = InitAggState(specs);
      for (int64_t r = 0; r < col->size(); ++r) {
        for (size_t s = 0; s < specs.size(); ++s) {
          kernels[s](&cells[s], strings.data() + records.string_index(s),
                     col.get(), r);
        }
        UpdateAggState(specs, Row(specs.size(), col->ValueAt(r)), &state);
        // An epoch ends now and then: the record is encoded and the next
        // epoch decodes it again.
        if (!rng.OneIn(0.3)) continue;
        std::string enc;
        records.Encode(cells.data(), strings.data(), &enc);
        ASSERT_EQ(enc, Bytes(state)) << "after row " << r;
        std::vector<AggCell> decoded(records.num_cells());
        std::vector<std::string> decoded_strings(records.num_strings(), "x");
        ASSERT_TRUE(
            records.Decode(enc, decoded.data(), decoded_strings.data()).ok());
        std::string again;
        records.Encode(decoded.data(), decoded_strings.data(), &again);
        ASSERT_EQ(again, enc);
        cells = decoded;
        strings = decoded_strings;
      }
      std::string enc;
      records.Encode(cells.data(), strings.data(), &enc);
      ASSERT_EQ(enc, Bytes(state));
      ASSERT_EQ(Bytes(Finals(records, specs, type, cells.data(),
                             strings.data())),
                Bytes(FinalizeAggState(specs, state)));
    }
  }
}

TEST(AggregateTest, MinMaxOnStrings) {
  std::vector<AggSpec> specs = {MinOf(Col("v"), "lo"), MaxOf(Col("v"), "hi")};
  AggRecords records(specs);
  ColumnPtr col = Column::Make(TypeId::kString);
  for (const char* s : {"pear", "apple", "zebra"}) col->AppendString(s);
  std::vector<AggCell> cells(2);
  std::vector<std::string> strings(2);
  records.Init(cells.data(), strings.data());
  for (size_t s = 0; s < specs.size(); ++s) {
    AggFoldFn fold = records.Kernel(s, TypeId::kString).TakeValue();
    for (int64_t r = 0; r < col->size(); ++r) {
      fold(&cells[s], strings.data() + records.string_index(s), col.get(), r);
    }
  }
  Row out = Finals(records, specs, TypeId::kString, cells.data(),
                   strings.data());
  EXPECT_EQ(out[0], Value::Str("apple"));
  EXPECT_EQ(out[1], Value::Str("zebra"));
}

TEST(AggregateTest, IntegerSumsWrapAround) {
  std::vector<AggSpec> specs = {SumOf(Col("v"), "s")};
  AggRecords records(specs);
  AggFoldFn sum = records.Kernel(0, TypeId::kInt64).TakeValue();
  ColumnPtr col = Column::Make(TypeId::kInt64);
  col->AppendInt64(std::numeric_limits<int64_t>::max());
  col->AppendInt64(2);
  AggCell cell;
  sum(&cell, nullptr, col.get(), 0);
  sum(&cell, nullptr, col.get(), 1);
  EXPECT_EQ(cell.type, TypeId::kInt64);
  EXPECT_EQ(static_cast<int64_t>(cell.bits),
            std::numeric_limits<int64_t>::min() + 1);
}

TEST(AggregateTest, DecodeRejectsStatesOfOtherSpecs) {
  auto specs = AllSpecs();
  AggRecords records(specs);
  std::vector<AggCell> cells(records.num_cells());
  std::vector<std::string> strings(records.num_strings());
  std::string good;
  EncodeRow(InitAggState(specs), &good);
  ASSERT_TRUE(records.Decode(good, cells.data(), strings.data()).ok());
  std::string other;
  EncodeRow(InitAggState({CountAll("n")}), &other);  // another arity
  EXPECT_FALSE(records.Decode(other, cells.data(), strings.data()).ok());
  EXPECT_FALSE(records.Decode(good.substr(0, good.size() - 1), cells.data(),
                              strings.data())
                   .ok());  // truncated
  EXPECT_FALSE(
      records.Decode(good + "x", cells.data(), strings.data()).ok());
  // A count slot that is not an int64.
  Row bad = InitAggState(specs);
  bad[0] = Value::Str("n");
  std::string enc;
  EncodeRow(bad, &enc);
  EXPECT_FALSE(records.Decode(enc, cells.data(), strings.data()).ok());
  // A sum slot holding a string.
  bad = InitAggState(specs);
  bad[2] = Value::Str("s");
  enc.clear();
  EncodeRow(bad, &enc);
  EXPECT_FALSE(records.Decode(enc, cells.data(), strings.data()).ok());
}

TEST(AggregateTest, KernelRejectsNonNumericSums) {
  AggRecords records({SumOf(Col("v"), "s"), AvgOf(Col("v"), "a")});
  EXPECT_FALSE(records.Kernel(0, TypeId::kString).ok());
  EXPECT_FALSE(records.Kernel(1, TypeId::kBool).ok());
  EXPECT_TRUE(records.Kernel(0, TypeId::kTimestamp).ok());
}

}  // namespace
}  // namespace sstreaming

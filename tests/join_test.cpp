// Equi-join semantics shared by both join operators and the batch runner:
// a NULL key never matches (SQL's NULL comparison), and numeric keys
// compare by value across int64 / float64 / timestamp. The oracle cases
// check the stream-static join against a nested-loop join written here,
// over seeded random tables with duplicate and NULL keys, on the inline
// scheduler and on a 4-thread pool (partition tasks probing the shared
// static index concurrently, so this is also a thread-sanitizer target).
// StreamStreamStateMatchesGolden pins the stream-stream join's per-key
// state bytes and output against tests/golden/join_state.txt.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "connectors/memory.h"
#include "exec/batch_executor.h"
#include "exec/streaming_query.h"
#include "runtime/scheduler.h"
#include "state/state_store.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

/// Rows as a multiset of their encoded bytes: type byte and bits count, so
/// an output column of the wrong type, or a NaN / -0.0 rewritten, differs.
std::multiset<std::string> Encoded(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& row : rows) {
    std::string enc;
    EncodeRow(row, &enc);
    out.insert(std::move(enc));
  }
  return out;
}

std::string Describe(const std::vector<Row>& rows) {
  std::multiset<std::string> sorted;
  for (const Row& row : rows) sorted.insert(RowToString(row));
  std::string out;
  for (const std::string& s : sorted) out += "  " + s + "\n";
  return out;
}

void ExpectSameRows(const std::vector<Row>& actual,
                    const std::vector<Row>& expected) {
  EXPECT_EQ(Encoded(actual), Encoded(expected))
      << "actual:\n" << Describe(actual) << "expected:\n"
      << Describe(expected);
}

using Epochs = std::vector<std::vector<std::vector<Row>>>;

/// Runs `df` as a streaming append query, one epoch per entry of `epochs`,
/// whose entry s holds the rows added to streams[s] (empty: none), and
/// returns the sink's rows.
std::vector<Row> RunStream(
    const DataFrame& df,
    const std::vector<std::shared_ptr<MemoryStream>>& streams,
    const Epochs& epochs, int partitions = 2,
    TaskScheduler* scheduler = nullptr) {
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = partitions;
  opts.scheduler = scheduler;
  auto query = StreamingQuery::Start(df, sink, opts);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (!query.ok()) return {};
  for (const auto& epoch : epochs) {
    for (size_t s = 0; s < streams.size(); ++s) {
      if (!epoch[s].empty()) {
        EXPECT_TRUE(streams[s]->AddData(epoch[s]).ok());
      }
    }
    Status st = (*query)->ProcessAllAvailable();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  (*query)->Stop();
  return sink->Snapshot();
}

SchemaPtr KeyedSchema(TypeId key_type, const std::string& key,
                      const std::string& payload) {
  return Schema::Make(
      {{key, key_type, true}, {payload, TypeId::kString, false}});
}

TEST(JoinTest, NullKeysNeverMatch) {
  const Row left_null = {Value::Null(), Value::Str("a")};
  const Row left_one = {Value::Int64(1), Value::Str("b")};
  const Row right_null = {Value::Null(), Value::Str("x")};
  const Row right_one = {Value::Int64(1), Value::Str("y")};
  const Row matched = {Value::Int64(1), Value::Str("b"), Value::Str("y")};
  const Row padded = {Value::Null(), Value::Str("a"), Value::Null()};
  SchemaPtr ls = KeyedSchema(TypeId::kInt64, "k", "l");
  SchemaPtr rs = KeyedSchema(TypeId::kInt64, "k", "r");
  DataFrame right_static =
      DataFrame::FromRows(rs, {right_null, right_one}).TakeValue();

  // Stream-static, the stream on either side.
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
    SCOPED_TRACE(type == JoinType::kInner ? "stream-static inner"
                                          : "stream-static left outer");
    auto stream = std::make_shared<MemoryStream>("l", ls, 2);
    DataFrame df = DataFrame::ReadStream(stream).Join(right_static, {"k"},
                                                      type);
    std::vector<Row> want = {matched};
    if (type == JoinType::kLeftOuter) want.push_back(padded);
    ExpectSameRows(RunStream(df, {stream}, {{{left_null, left_one}}}), want);
  }
  {
    SCOPED_TRACE("static-stream right outer");
    auto stream = std::make_shared<MemoryStream>("r", rs, 2);
    DataFrame left_static =
        DataFrame::FromRows(ls, {left_null, left_one}).TakeValue();
    DataFrame df = left_static.Join(DataFrame::ReadStream(stream), {"k"},
                                    JoinType::kRightOuter);
    ExpectSameRows(
        RunStream(df, {stream}, {{{right_null, right_one}}}),
        {matched, {Value::Null(), Value::Null(), Value::Str("x")}});
  }

  // Stream-stream inner: both NULL-keyed rows are stored, neither matches,
  // in the same epoch or across epochs.
  {
    SCOPED_TRACE("stream-stream inner");
    auto left = std::make_shared<MemoryStream>("l", ls, 2);
    auto right = std::make_shared<MemoryStream>("r", rs, 2);
    DataFrame df = DataFrame::ReadStream(left).Join(
        DataFrame::ReadStream(right), {"k"});
    ExpectSameRows(RunStream(df, {left, right},
                             {{{left_null, left_one}, {right_null}},
                              {{left_null}, {right_one, right_null}}}),
                   {matched});
  }

  // Stream-stream left outer: the NULL-keyed left row is null-padded once
  // the watermark evicts it, like any unmatched row; also when the left
  // event time reaches the join under another name.
  for (bool renamed : {false, true}) {
    SCOPED_TRACE(renamed ? "stream-stream left outer, event time renamed"
                         : "stream-stream left outer");
    auto lts = Schema::Make({{"k", TypeId::kInt64, true},
                             {"l", TypeId::kString, false},
                             {"lt", TypeId::kTimestamp, false}});
    auto rts = Schema::Make({{"k", TypeId::kInt64, true},
                             {"r", TypeId::kString, false},
                             {"rt", TypeId::kTimestamp, false}});
    auto left = std::make_shared<MemoryStream>("l", lts, 1);
    auto right = std::make_shared<MemoryStream>("r", rts, 1);
    DataFrame left_side =
        DataFrame::ReadStream(left).WithWatermark("lt", 2 * kSec);
    if (renamed) {
      left_side = left_side.Select(
          {As(Col("k"), "k"), As(Col("l"), "l"), As(Col("lt"), "et")});
    }
    DataFrame df = left_side.Join(
        DataFrame::ReadStream(right).WithWatermark("rt", 2 * kSec), {"k"},
        JoinType::kLeftOuter);
    auto at = [](Row row, int64_t sec) {
      row.push_back(Value::Timestamp(sec * kSec));
      return row;
    };
    const Row late_left = {Value::Int64(7), Value::Str("z"),
                           Value::Timestamp(20 * kSec)};
    const Row late_right = {Value::Int64(8), Value::Str("w"),
                            Value::Timestamp(20 * kSec)};
    std::vector<Row> got = RunStream(
        df, {left, right},
        {{{at(left_null, 1), at(left_one, 1)},
          {at(right_null, 1), at(right_one, 1)}},
         {{late_left}, {late_right}},
         {{at({Value::Int64(9), Value::Str("v")}, 21)},
          {at({Value::Int64(10), Value::Str("u")}, 21)}}});
    ExpectSameRows(got, {{Value::Int64(1), Value::Str("b"),
                          Value::Timestamp(kSec), Value::Str("y"),
                          Value::Timestamp(kSec)},
                         {Value::Null(), Value::Str("a"),
                          Value::Timestamp(kSec), Value::Null(),
                          Value::Null()}});
  }

  // Batch runs (static-static).
  DataFrame left_static =
      DataFrame::FromRows(ls, {left_null, left_one}).TakeValue();
  auto inner = RunBatch(left_static.Join(right_static, {"k"}));
  ASSERT_TRUE(inner.ok()) << inner.status().ToString();
  ExpectSameRows(*inner, {matched});
  auto outer = RunBatch(
      left_static.Join(right_static, {"k"}, JoinType::kLeftOuter));
  ASSERT_TRUE(outer.ok()) << outer.status().ToString();
  ExpectSameRows(*outer, {matched, padded});
  auto right_outer = RunBatch(
      left_static.Join(right_static, {"k"}, JoinType::kRightOuter));
  ASSERT_TRUE(right_outer.ok()) << right_outer.status().ToString();
  ExpectSameRows(*right_outer,
                 {matched, {Value::Null(), Value::Null(), Value::Str("x")}});
}

TEST(JoinTest, NumericKeysMatchAcrossTypes) {
  struct Pair {
    const char* name;
    TypeId left_type;
    Value left_key;
    TypeId right_type;
    Value right_key;
  };
  const std::vector<Pair> pairs = {
      {"int64-float64", TypeId::kInt64, Value::Int64(3), TypeId::kFloat64,
       Value::Float64(3.0)},
      {"float64-int64", TypeId::kFloat64, Value::Float64(-4.0),
       TypeId::kInt64, Value::Int64(-4)},
      {"timestamp-int64", TypeId::kTimestamp, Value::Timestamp(3),
       TypeId::kInt64, Value::Int64(3)},
      {"int64-timestamp", TypeId::kInt64, Value::Int64(5),
       TypeId::kTimestamp, Value::Timestamp(5)},
  };
  for (const Pair& p : pairs) {
    SCOPED_TRACE(p.name);
    SchemaPtr ls = KeyedSchema(p.left_type, "a", "l");
    SchemaPtr rs = KeyedSchema(p.right_type, "b", "r");
    const Row lrow = {p.left_key, Value::Str("l")};
    const Row rrow = {p.right_key, Value::Str("r")};
    // A key that must not match: 3.5 has no int64 equal.
    const Row lmiss = {p.left_type == TypeId::kFloat64 ? Value::Float64(3.5)
                                                       : Value::Int64(1000),
                       Value::Str("m")};
    const std::vector<Row> want = {
        {p.left_key, Value::Str("l"), p.right_key, Value::Str("r")}};

    // Stream-static, stream on the left.
    {
      auto stream = std::make_shared<MemoryStream>("l", ls, 2);
      DataFrame df = DataFrame::ReadStream(stream).Join(
          DataFrame::FromRows(rs, {rrow}).TakeValue(), {Col("a")},
          {Col("b")});
      ExpectSameRows(RunStream(df, {stream}, {{{lrow, lmiss}}}), want);
    }
    // Stream-static, stream on the right.
    {
      auto stream = std::make_shared<MemoryStream>("r", rs, 2);
      DataFrame df = DataFrame::FromRows(ls, {lrow, lmiss})
                         .TakeValue()
                         .Join(DataFrame::ReadStream(stream), {Col("a")},
                               {Col("b")});
      ExpectSameRows(RunStream(df, {stream}, {{{rrow}}}), want);
    }
    // Stream-stream, within one epoch and across epochs.
    {
      auto left = std::make_shared<MemoryStream>("l", ls, 2);
      auto right = std::make_shared<MemoryStream>("r", rs, 2);
      DataFrame df = DataFrame::ReadStream(left).Join(
          DataFrame::ReadStream(right), {Col("a")}, {Col("b")});
      ExpectSameRows(
          RunStream(df, {left, right},
                    {{{lrow, lmiss}, {rrow}}, {{lrow}, {}}, {{}, {rrow}}}),
          {want[0], want[0], want[0], want[0]});
    }
    // Batch.
    auto batch = RunBatch(DataFrame::FromRows(ls, {lrow, lmiss})
                              .TakeValue()
                              .Join(DataFrame::FromRows(rs, {rrow}).TakeValue(),
                                    {Col("a")}, {Col("b")}));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ExpectSameRows(*batch, want);
  }

  // -0.0 and 0.0 compare equal in the stream-static join; the stream-stream
  // join keys its state by encoded bytes and keeps them apart.
  SchemaPtr ls = KeyedSchema(TypeId::kFloat64, "a", "l");
  SchemaPtr rs = KeyedSchema(TypeId::kFloat64, "b", "r");
  const Row neg = {Value::Float64(-0.0), Value::Str("l")};
  const Row pos = {Value::Float64(0.0), Value::Str("r")};
  {
    auto stream = std::make_shared<MemoryStream>("l", ls, 1);
    DataFrame df = DataFrame::ReadStream(stream).Join(
        DataFrame::FromRows(rs, {pos}).TakeValue(), {Col("a")}, {Col("b")});
    ExpectSameRows(RunStream(df, {stream}, {{{neg}}}),
                   {{Value::Float64(-0.0), Value::Str("l"), Value::Float64(0.0),
                     Value::Str("r")}});
  }
  {
    auto left = std::make_shared<MemoryStream>("l", ls, 1);
    auto right = std::make_shared<MemoryStream>("r", rs, 1);
    DataFrame df = DataFrame::ReadStream(left).Join(
        DataFrame::ReadStream(right), {Col("a")}, {Col("b")});
    EXPECT_TRUE(RunStream(df, {left, right}, {{{neg}, {pos}}}).empty());
  }
}

// A USING key of two numeric types is one output column of their common
// type: a preserved row fills it with its own key, cast, whichever side it
// comes from.
TEST(JoinTest, UsingKeyOfTwoNumericTypesHasTheCommonType) {
  SchemaPtr ls = KeyedSchema(TypeId::kInt64, "k", "l");
  SchemaPtr rs = KeyedSchema(TypeId::kFloat64, "k", "r");
  const Row left_one = {Value::Int64(1), Value::Str("b")};
  const Row left_five = {Value::Int64(5), Value::Str("c")};
  const Row right_one = {Value::Float64(1.0), Value::Str("y")};
  const Row right_miss = {Value::Float64(3.5), Value::Str("w")};
  const Row matched = {Value::Float64(1.0), Value::Str("b"), Value::Str("y")};
  const Row right_padded = {Value::Float64(3.5), Value::Null(),
                            Value::Str("w")};
  const Row left_padded = {Value::Float64(5.0), Value::Str("c"),
                           Value::Null()};
  DataFrame left_static =
      DataFrame::FromRows(ls, {left_one, left_five}).TakeValue();
  DataFrame right_static =
      DataFrame::FromRows(rs, {right_one, right_miss}).TakeValue();
  {
    SCOPED_TRACE("static-stream right outer");
    auto stream = std::make_shared<MemoryStream>("r", rs, 2);
    DataFrame df = left_static.Join(DataFrame::ReadStream(stream), {"k"},
                                    JoinType::kRightOuter);
    ExpectSameRows(RunStream(df, {stream}, {{{right_one, right_miss}}}),
                   {matched, right_padded});
  }
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter}) {
    SCOPED_TRACE(type == JoinType::kInner ? "stream-static inner"
                                          : "stream-static left outer");
    auto stream = std::make_shared<MemoryStream>("l", ls, 2);
    DataFrame df =
        DataFrame::ReadStream(stream).Join(right_static, {"k"}, type);
    std::vector<Row> want = {matched};
    if (type == JoinType::kLeftOuter) want.push_back(left_padded);
    ExpectSameRows(RunStream(df, {stream}, {{{left_one, left_five}}}), want);
  }

  // Stream-stream right outer: the unmatched right row is null-padded once
  // the watermark evicts it. (It used to fail the epoch: its float64 key
  // did not fit the int64 output column.)
  {
    SCOPED_TRACE("stream-stream right outer");
    auto lts = Schema::Make({{"k", TypeId::kInt64, true},
                             {"l", TypeId::kString, false},
                             {"lt", TypeId::kTimestamp, false}});
    auto rts = Schema::Make({{"k", TypeId::kFloat64, true},
                             {"r", TypeId::kString, false},
                             {"rt", TypeId::kTimestamp, false}});
    auto left = std::make_shared<MemoryStream>("l", lts, 1);
    auto right = std::make_shared<MemoryStream>("r", rts, 1);
    DataFrame df =
        DataFrame::ReadStream(left)
            .WithWatermark("lt", 2 * kSec)
            .Join(DataFrame::ReadStream(right).WithWatermark("rt", 2 * kSec),
                  {"k"}, JoinType::kRightOuter);
    auto at = [](Row row, int64_t sec) {
      row.push_back(Value::Timestamp(sec * kSec));
      return row;
    };
    std::vector<Row> got = RunStream(
        df, {left, right},
        {{{at(left_one, 1)}, {at(right_one, 1), at(right_miss, 1)}},
         {{at({Value::Int64(7), Value::Str("z")}, 20)},
          {at({Value::Float64(8), Value::Str("v")}, 20)}},
         {{at({Value::Int64(9), Value::Str("u")}, 21)},
          {at({Value::Float64(10), Value::Str("t")}, 21)}}});
    ExpectSameRows(got, {{Value::Float64(1.0), Value::Str("b"),
                          Value::Timestamp(kSec), Value::Str("y"),
                          Value::Timestamp(kSec)},
                         {Value::Float64(3.5), Value::Null(), Value::Null(),
                          Value::Str("w"), Value::Timestamp(kSec)}});
  }

  // Batch runs (static-static).
  auto outer = RunBatch(
      left_static.Join(right_static, {"k"}, JoinType::kLeftOuter));
  ASSERT_TRUE(outer.ok()) << outer.status().ToString();
  ExpectSameRows(*outer, {matched, left_padded});
  auto right_outer = RunBatch(
      left_static.Join(right_static, {"k"}, JoinType::kRightOuter));
  ASSERT_TRUE(right_outer.ok()) << right_outer.status().ToString();
  ExpectSameRows(*right_outer, {matched, right_padded});
  auto inner = RunBatch(left_static.Join(right_static, {"k"}));
  ASSERT_TRUE(inner.ok()) << inner.status().ToString();
  ExpectSameRows(*inner, {matched});
}

// A right column named like a left column is the output column `<name>_r`;
// selecting it by that name keeps it through scan pruning.
TEST(JoinTest, RenamedRightColumnSurvivesPruning) {
  SchemaPtr ls = KeyedSchema(TypeId::kInt64, "k", "v");
  SchemaPtr rs = KeyedSchema(TypeId::kInt64, "k", "v");
  const Row left_one = {Value::Int64(1), Value::Str("b")};
  const Row right_one = {Value::Int64(1), Value::Str("y")};
  const std::vector<Row> want = {{Value::Int64(1), Value::Str("y")}};
  DataFrame right_static = DataFrame::FromRows(rs, {right_one}).TakeValue();
  auto batch = RunBatch(DataFrame::FromRows(ls, {left_one})
                            .TakeValue()
                            .Join(right_static, {"k"})
                            .SelectColumns({"k", "v_r"}));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ExpectSameRows(*batch, want);
  auto stream = std::make_shared<MemoryStream>("l", ls, 2);
  DataFrame df = DataFrame::ReadStream(stream)
                     .Join(right_static, {"k"})
                     .SelectColumns({"k", "v_r"});
  ExpectSameRows(RunStream(df, {stream}, {{{left_one}}}), want);
}

// A filter over one side's columns above an outer join keeps only the
// joined rows it accepts. The optimizer moves it below the join only into a
// preserved side: below a side that only supplies matches, it would turn
// the other side's rejected matches into null-padded rows.
TEST(JoinTest, FilterAboveOuterJoinDropsRejectedRows) {
  SchemaPtr ls = KeyedSchema(TypeId::kInt64, "k", "l");
  SchemaPtr rs = KeyedSchema(TypeId::kInt64, "k", "r");
  auto row = [](int64_t k, const char* v) {
    return Row{Value::Int64(k), Value::Str(v)};
  };
  const std::vector<Row> left_rows = {row(1, "b"), row(2, "c"), row(4, "d")};
  const std::vector<Row> right_rows = {row(1, "y"), row(2, "z"), row(3, "w")};
  auto joined = [](int64_t k, Value l, Value r) {
    return Row{Value::Int64(k), std::move(l), std::move(r)};
  };
  struct Case {
    const char* name;
    JoinType type;
    ExprPtr predicate;
    std::vector<Row> want;
  };
  const std::vector<Case> cases = {
      {"right outer, left column", JoinType::kRightOuter,
       Eq(Col("l"), Lit("b")),
       {joined(1, Value::Str("b"), Value::Str("y"))}},
      {"right outer, right column", JoinType::kRightOuter,
       Eq(Col("r"), Lit("w")),
       {joined(3, Value::Null(), Value::Str("w"))}},
      {"left outer, right column", JoinType::kLeftOuter,
       Eq(Col("r"), Lit("y")),
       {joined(1, Value::Str("b"), Value::Str("y"))}},
      {"left outer, left column", JoinType::kLeftOuter,
       Eq(Col("l"), Lit("d")),
       {joined(4, Value::Str("d"), Value::Null())}},
  };
  DataFrame left_static = DataFrame::FromRows(ls, left_rows).TakeValue();
  DataFrame right_static = DataFrame::FromRows(rs, right_rows).TakeValue();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // The stream is the preserved side.
    const bool stream_left = c.type == JoinType::kLeftOuter;
    auto stream = std::make_shared<MemoryStream>("s", stream_left ? ls : rs,
                                                 2);
    DataFrame df =
        (stream_left ? DataFrame::ReadStream(stream) : left_static)
            .Join(stream_left ? right_static : DataFrame::ReadStream(stream),
                  {"k"}, c.type)
            .Where(c.predicate);
    ExpectSameRows(
        RunStream(df, {stream}, {{stream_left ? left_rows : right_rows}}),
        c.want);
    auto batch =
        RunBatch(left_static.Join(right_static, {"k"}, c.type).Where(
            c.predicate));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ExpectSameRows(*batch, c.want);
  }
}

// ---------------------------------------------------------------------------
// Stream-stream join state, pinned: tests/golden/join_state.txt holds, after
// each of 5 epochs of a watermarked outer join with a USING key over 2
// partitions x 3 state shards, the epoch's output rows and every shard's
// live state entries (key -> [matched byte][encoded row]...), each as sorted
// hex lines. The entries are read back from the checkpoint by restoring
// each shard, so the golden pins the per-key state bytes (matched flags
// included) but not the order records take inside a .delta or .snapshot
// file. The golden was written while the join still kept a decoded cache
// of its state beside the store. To rewrite it on purpose, run this test
// with SSTREAMING_WRITE_JOIN_GOLDEN=1 from a build that still passes, and
// say so.
// ---------------------------------------------------------------------------

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

/// Sorted "<op>/<partition>/<shard> <hex key> <hex value>" lines of every
/// live entry of every state shard under checkpoint `dir`.
std::vector<std::string> StateEntries(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> lines;
  for (const auto& op : fs::directory_iterator(fs::path(dir) / "state")) {
    for (const auto& part : fs::directory_iterator(op.path())) {
      for (const auto& shard : fs::directory_iterator(part.path())) {
        if (!shard.is_directory()) continue;
        auto store = StateStore::Open(shard.path().string(),
                                      std::numeric_limits<int64_t>::max());
        EXPECT_TRUE(store.ok()) << store.status().ToString();
        if (!store.ok()) continue;
        const std::string where = op.path().filename().string() + "/" +
                                  part.path().filename().string() + "/" +
                                  shard.path().filename().string() + " ";
        (*store)->ForEach([&](const std::string& k, const std::string& v,
                              uint32_t) {
          lines.push_back(where + Hex(k) + " " + Hex(v));
        });
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Epoch e's rows of one join side: keys over {NULL, 0..4} so they repeat
/// within and across epochs, payloads with NULL, NaN and -0.0, and event
/// times that move the watermark past the rows of two epochs back.
std::vector<Row> GoldenSideRows(Random* rng, int e, bool left) {
  const double doubles[] = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                            0.0, 2.5};
  std::vector<Row> rows;
  const int n = left ? 9 : 7;
  for (int r = 0; r < n; ++r) {
    const uint64_t k = rng->Uniform(6);
    Row row = {k == 5 ? Value::Null() : Value::Int64(static_cast<int64_t>(k)),
               Value::Timestamp((e * 6 + static_cast<int64_t>(rng->Uniform(5))) *
                                kSec)};
    if (left) {
      row.push_back(rng->OneIn(0.2) ? Value::Null()
                                    : Value::Float64(doubles[rng->Uniform(4)]));
    }
    row.push_back(rng->OneIn(0.2)
                      ? Value::Null()
                      : Value::Str(std::string(1 + rng->Uniform(3),
                                               left ? 'l' : 'r')));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The golden run of one join type, as golden-file lines.
std::vector<std::string> JoinStateGoldenLines(JoinType type) {
  auto dir = MakeTempDir("join_state_golden");
  EXPECT_TRUE(dir.ok());
  if (!dir.ok()) return {};
  auto ls = Schema::Make({{"k", TypeId::kInt64, true},
                          {"lt", TypeId::kTimestamp, false},
                          {"lv", TypeId::kFloat64, true},
                          {"s", TypeId::kString, true}});
  auto rs = Schema::Make({{"k", TypeId::kInt64, true},
                          {"rt", TypeId::kTimestamp, false},
                          {"s", TypeId::kString, true}});
  auto left = std::make_shared<MemoryStream>("l", ls, 2);
  auto right = std::make_shared<MemoryStream>("r", rs, 2);
  DataFrame df =
      DataFrame::ReadStream(left)
          .WithWatermark("lt", 4 * kSec)
          .Join(DataFrame::ReadStream(right).WithWatermark("rt", 4 * kSec),
                {"k"}, type);
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 2;
  opts.num_state_shards = 3;
  opts.checkpoint_dir = *dir;
  auto query = StreamingQuery::Start(df, sink, opts);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (!query.ok()) return {};
  std::vector<std::string> lines;
  Random rng(20261022);
  size_t seen = 0;
  for (int e = 1; e <= 5; ++e) {
    EXPECT_TRUE(left->AddData(GoldenSideRows(&rng, e, true)).ok());
    EXPECT_TRUE(right->AddData(GoldenSideRows(&rng, e, false)).ok());
    Status st = (*query)->ProcessAllAvailable();
    EXPECT_TRUE(st.ok()) << st.ToString();
    const std::vector<Row> rows = sink->Snapshot();
    std::vector<std::string> out;
    for (size_t i = seen; i < rows.size(); ++i) {
      std::string enc;
      EncodeRow(rows[i], &enc);
      out.push_back("row " + Hex(enc));
    }
    seen = rows.size();
    std::sort(out.begin(), out.end());
    lines.push_back("epoch " + std::to_string(e) + " output");
    lines.insert(lines.end(), out.begin(), out.end());
    lines.push_back("epoch " + std::to_string(e) + " state");
    for (std::string& entry : StateEntries(*dir)) {
      lines.push_back(std::move(entry));
    }
  }
  (*query)->Stop();
  RemoveDirRecursive(*dir).ok();
  return lines;
}

TEST(JoinTest, StreamStreamStateMatchesGolden) {
  std::string got;
  for (JoinType type : {JoinType::kLeftOuter, JoinType::kRightOuter}) {
    got += std::string("join ") + JoinTypeName(type) + "\n";
    for (const std::string& line : JoinStateGoldenLines(type)) {
      got += line + "\n";
    }
  }
  const std::string path =
      std::string(SSTREAMING_SOURCE_DIR) + "/tests/golden/join_state.txt";
  if (std::getenv("SSTREAMING_WRITE_JOIN_GOLDEN") != nullptr) {
    ASSERT_TRUE(WriteFileAtomic(path, got).ok());
    return;
  }
  auto want = ReadFile(path);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  // Line by line, so a failure names the first differing line.
  std::istringstream want_lines(*want);
  std::istringstream got_lines(got);
  std::string w;
  std::string g;
  for (int line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want_lines, w));
    const bool more_got = static_cast<bool>(std::getline(got_lines, g));
    if (!more_want && !more_got) break;
    ASSERT_EQ(more_got ? g : "<end>", more_want ? w : "<end>")
        << "first difference at line " << line;
  }
}

// ---------------------------------------------------------------------------
// Stream-static join against a nested-loop oracle.
// ---------------------------------------------------------------------------

/// One key configuration: the stream's and the static side's key column
/// types; a second STRING key when `two_keys`; USING (same-named) keys when
/// `using_keys`, else explicit key expressions over differently named
/// columns.
struct KeyConfig {
  const char* name;
  TypeId stream_type;
  TypeId static_type;
  bool two_keys;
  bool using_keys;
};

const KeyConfig kConfigs[] = {
    {"int64", TypeId::kInt64, TypeId::kInt64, false, true},
    {"string", TypeId::kString, TypeId::kString, false, true},
    {"float64", TypeId::kFloat64, TypeId::kFloat64, false, true},
    {"float64-vs-int64", TypeId::kFloat64, TypeId::kInt64, false, false},
    {"int64-vs-float64", TypeId::kInt64, TypeId::kFloat64, false, false},
    {"timestamp-vs-int64", TypeId::kTimestamp, TypeId::kInt64, false, false},
    {"int64+string", TypeId::kInt64, TypeId::kInt64, true, true},
    {"float64+string", TypeId::kFloat64, TypeId::kInt64, true, false},
};

constexpr double kNullShare = 0.1;

/// A random key value of `type` over a small domain (so keys repeat); NULL
/// with probability kNullShare. Doubles include NaN, -0.0, 0.0 and a
/// non-integral value.
Value RandomKey(Random* rng, TypeId type) {
  if (rng->OneIn(kNullShare)) return Value::Null();
  const int64_t n = static_cast<int64_t>(rng->Uniform(8)) - 2;
  switch (type) {
    case TypeId::kInt64:
      return Value::Int64(n);
    case TypeId::kTimestamp:
      return Value::Timestamp(n);
    case TypeId::kString:
      return Value::Str(std::string(1, static_cast<char>('a' + n + 2)));
    default: {
      const double special[] = {std::numeric_limits<double>::quiet_NaN(),
                                -0.0, 0.0, 1.5};
      return rng->OneIn(0.3) ? Value::Float64(special[rng->Uniform(4)])
                             : Value::Float64(static_cast<double>(n));
    }
  }
}

/// The join predicate on one key pair: NULL never matches; strings compare
/// by bytes; numbers by value, where -0.0 equals 0.0 and a NaN equals a NaN
/// (every NaN here has the same bits).
bool OracleKeyEquals(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  if (a.type() == TypeId::kString) return a.string_value() == b.string_value();
  if (a.type() == TypeId::kFloat64 || b.type() == TypeId::kFloat64) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return x == y || (std::isnan(x) && std::isnan(y));
  }
  return a.int64_value() == b.int64_value();
}

struct Side {
  SchemaPtr schema;
  std::vector<int> keys;  // key column indices
};

/// Stream rows: key(s) then a unique id. Static rows: key(s) then a payload.
Side MakeSide(const KeyConfig& c, bool stream) {
  const TypeId type = stream ? c.stream_type : c.static_type;
  const std::string prefix = c.using_keys ? "" : (stream ? "s_" : "t_");
  std::vector<Field> fields = {{prefix + "k1", type, true}};
  if (c.two_keys) fields.push_back({prefix + "k2", TypeId::kString, true});
  fields.push_back({stream ? "id" : "payload", TypeId::kInt64, false});
  Side side{Schema::Make(std::move(fields)), {0}};
  if (c.two_keys) side.keys.push_back(1);
  return side;
}

std::vector<Row> RandomRows(Random* rng, const KeyConfig& c, bool stream,
                            int n, int64_t first_id) {
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Row row = {RandomKey(rng, stream ? c.stream_type : c.static_type)};
    if (c.two_keys) {
      row.push_back(rng->OneIn(kNullShare)
                        ? Value::Null()
                        : Value::Str(rng->OneIn(0.5) ? "x" : "y"));
    }
    row.push_back(Value::Int64(first_id + i));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Nested-loop join of `left` and `right`, whose key columns `ls` and `rs`
/// name. USING keys drop the right key columns from the output
/// and, on a null-padded left side, take the right row's key values.
std::vector<Row> OracleJoin(const std::vector<Row>& left, const Side& ls,
                            const std::vector<Row>& right, const Side& rs,
                            JoinType type, bool using_keys) {
  const size_t left_arity = static_cast<size_t>(ls.schema->num_fields());
  auto right_out = [&](const Row* r) {
    Row out;
    for (size_t i = 0; i < static_cast<size_t>(rs.schema->num_fields());
         ++i) {
      bool is_key = false;
      for (int k : rs.keys) is_key |= static_cast<size_t>(k) == i;
      if (using_keys && is_key) continue;
      out.push_back(r != nullptr ? (*r)[i] : Value::Null());
    }
    return out;
  };
  auto matches = [&](const Row& l, const Row& r) {
    for (size_t k = 0; k < ls.keys.size(); ++k) {
      if (!OracleKeyEquals(l[static_cast<size_t>(ls.keys[k])],
                           r[static_cast<size_t>(rs.keys[k])])) {
        return false;
      }
    }
    return true;
  };
  std::vector<Row> out;
  for (const Row& l : left) {
    bool matched = false;
    for (const Row& r : right) {
      if (!matches(l, r)) continue;
      matched = true;
      Row row = l;
      Row tail = right_out(&r);
      row.insert(row.end(), tail.begin(), tail.end());
      out.push_back(std::move(row));
    }
    if (!matched && type == JoinType::kLeftOuter) {
      Row row = l;
      Row tail = right_out(nullptr);
      row.insert(row.end(), tail.begin(), tail.end());
      out.push_back(std::move(row));
    }
  }
  if (type == JoinType::kRightOuter) {
    for (const Row& r : right) {
      bool matched = false;
      for (const Row& l : left) matched |= matches(l, r);
      if (matched) continue;
      Row row(left_arity, Value::Null());
      if (using_keys) {
        for (size_t k = 0; k < ls.keys.size(); ++k) {
          row[static_cast<size_t>(ls.keys[k])] =
              r[static_cast<size_t>(rs.keys[k])];
        }
      }
      Row tail = right_out(&r);
      row.insert(row.end(), tail.begin(), tail.end());
      out.push_back(std::move(row));
    }
  }
  return out;
}

/// A join shape: the join type and which side the stream is on. The static
/// side is never the preserved one (a streaming query cannot re-emit it).
struct Shape {
  const char* name;
  JoinType type;
  bool stream_left;
};

const Shape kShapes[] = {
    {"stream-left inner", JoinType::kInner, true},
    {"stream-right inner", JoinType::kInner, false},
    {"stream-left left-outer", JoinType::kLeftOuter, true},
    {"stream-right right-outer", JoinType::kRightOuter, false},
};

class StreamStaticJoinOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamStaticJoinOracleTest, MatchesNestedLoopJoin) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  PoolScheduler pool(4);
  for (const KeyConfig& c : kConfigs) {
    for (const Shape& shape : kShapes) {
      for (int partitions : {1, 4}) {
        for (TaskScheduler* scheduler :
             {static_cast<TaskScheduler*>(nullptr),
              static_cast<TaskScheduler*>(&pool)}) {
          SCOPED_TRACE(std::string(c.name) + ", " + shape.name + ", " +
                       std::to_string(partitions) + " partitions, " +
                       (scheduler == nullptr ? "inline" : "pool"));
          Random rng(seed * 7919 + 1);
          const Side stream_side = MakeSide(c, /*stream=*/true);
          const Side static_side = MakeSide(c, /*stream=*/false);
          const std::vector<Row> static_rows =
              RandomRows(&rng, c, /*stream=*/false, 24, 1000);
          Epochs epochs;
          std::vector<Row> stream_rows;
          for (int e = 0; e < 3; ++e) {
            std::vector<Row> rows = RandomRows(
                &rng, c, /*stream=*/true, 1 + static_cast<int>(rng.Uniform(40)),
                static_cast<int64_t>(stream_rows.size()));
            stream_rows.insert(stream_rows.end(), rows.begin(), rows.end());
            epochs.push_back({std::move(rows)});
          }

          auto stream = std::make_shared<MemoryStream>(
              "events", stream_side.schema, partitions);
          DataFrame s = DataFrame::ReadStream(stream);
          DataFrame t =
              DataFrame::FromRows(static_side.schema, static_rows).TakeValue();
          const DataFrame& left = shape.stream_left ? s : t;
          const DataFrame& right = shape.stream_left ? t : s;
          const Side& ls = shape.stream_left ? stream_side : static_side;
          const Side& rs = shape.stream_left ? static_side : stream_side;
          auto join = [&]() {
            if (c.using_keys) {
              std::vector<std::string> on = {"k1"};
              if (c.two_keys) on.push_back("k2");
              return left.Join(right, on, shape.type);
            }
            std::vector<ExprPtr> lk;
            std::vector<ExprPtr> rk;
            for (int k : ls.keys) lk.push_back(Col(ls.schema->field(k).name));
            for (int k : rs.keys) rk.push_back(Col(rs.schema->field(k).name));
            return left.Join(right, std::move(lk), std::move(rk), shape.type);
          };

          const std::vector<Row>& lrows =
              shape.stream_left ? stream_rows : static_rows;
          const std::vector<Row>& rrows =
              shape.stream_left ? static_rows : stream_rows;
          std::vector<Row> want =
              OracleJoin(lrows, ls, rrows, rs, shape.type, c.using_keys);
          std::vector<Row> got =
              RunStream(join(), {stream}, epochs, partitions, scheduler);
          ExpectSameRows(got, want);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamStaticJoinOracleTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace sstreaming

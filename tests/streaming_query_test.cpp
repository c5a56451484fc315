#include "exec/streaming_query.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "common/random.h"
#include "connectors/memory.h"
#include "exec/batch_executor.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

SchemaPtr ClickSchema() {
  return Schema::Make({{"country", TypeId::kString, false},
                       {"latency", TypeId::kInt64, false},
                       {"time", TypeId::kTimestamp, false}});
}

Row Click(const char* country, int64_t latency, int64_t time_sec) {
  return {Value::Str(country), Value::Int64(latency),
          Value::Timestamp(time_sec * kSec)};
}

QueryOptions Ephemeral(OutputMode mode) {
  QueryOptions opts;
  opts.mode = mode;
  opts.num_partitions = 3;
  return opts;
}

TEST(StreamingQueryTest, MapOnlyAppendPipeline) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream)
                     .Where(Eq(Col("country"), Lit("ca")))
                     .Select({As(Col("latency"), "latency")});
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kAppend));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  ASSERT_TRUE(stream->AddData({Click("ca", 10, 1), Click("ny", 20, 1),
                               Click("ca", 30, 2)})
                  .ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int64(10));
  EXPECT_EQ(rows[1][0], Value::Int64(30));

  // Incremental: later data adds to the sink, earlier rows unchanged.
  ASSERT_TRUE(stream->AddData({Click("ca", 50, 3)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 3u);
  EXPECT_GE((*query)->last_epoch(), 2);
}

TEST(StreamingQueryTest, NoNewDataRunsNoEpoch) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream);
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kAppend));
  ASSERT_TRUE(query.ok());
  auto ran = (*query)->ProcessOneTrigger();
  ASSERT_TRUE(ran.ok());
  EXPECT_FALSE(*ran);
  EXPECT_EQ((*query)->last_epoch(), 0);
}

TEST(StreamingQueryTest, UpdateModeAggregation) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kUpdate));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  ASSERT_TRUE(stream->AddData({Click("ca", 1, 1), Click("ca", 2, 1),
                               Click("ny", 3, 1)})
                  .ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  {
    auto rows = sink->SortedSnapshot();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0][0], Value::Str("ca"));
    EXPECT_EQ(rows[0][1], Value::Int64(2));
    EXPECT_EQ(rows[1][1], Value::Int64(1));
  }
  // New records upsert the changed key only.
  ASSERT_TRUE(stream->AddData({Click("ca", 4, 2)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Value::Int64(3));  // ca -> 3
  EXPECT_EQ(rows[1][1], Value::Int64(1));  // ny unchanged
}

// Forwards to a MemorySink and records every row committed to it, so a test
// can derive what the table must hold from what the query emitted.
class RecordingSink : public Sink {
 public:
  explicit RecordingSink(std::shared_ptr<MemorySink> table)
      : table_(std::move(table)) {}
  bool SupportsMode(OutputMode mode) const override {
    return table_->SupportsMode(mode);
  }
  Status CommitEpoch(int64_t epoch, OutputMode mode, int num_key_columns,
                     const std::vector<RecordBatchPtr>& batches) override {
    for (const auto& b : batches) {
      for (int64_t i = 0; i < b->num_rows(); ++i) {
        emitted.push_back(b->RowAt(i));
      }
    }
    return table_->CommitEpoch(epoch, mode, num_key_columns, batches);
  }
  std::vector<Row> emitted;

 private:
  std::shared_ptr<MemorySink> table_;
};

// NaN, -0.0 and 0.0 are distinct state keys (the aggregate groups by encoded
// bytes); the update-mode table must hold exactly one row per state key —
// the last one the aggregate emitted for it.
TEST(StreamingQueryTest, UpdateModeFloatKeysFollowStateKeys) {
  SchemaPtr schema = Schema::Make({{"x", TypeId::kFloat64, false}});
  auto stream = std::make_shared<MemoryStream>("xs", schema, 2);
  auto table = std::make_shared<MemorySink>();
  auto sink = std::make_shared<RecordingSink>(table);
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"x"}).Count();
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kUpdate));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto rows_of = [](std::initializer_list<double> xs) {
    std::vector<Row> rows;
    for (double x : xs) rows.push_back({Value::Float64(x)});
    return rows;
  };
  ASSERT_TRUE(stream->AddData(rows_of({nan, -0.0, 0.0, 1.5})).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  ASSERT_TRUE(stream->AddData(rows_of({nan, 0.0, 1.5, 1.5})).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());

  // Last emitted row per encoded key, byte for byte.
  auto key_of = [](const Row& row) {
    std::string key;
    row[0].EncodeTo(&key);
    return key;
  };
  auto bytes_of = [](const Row& row) {
    std::string bytes;
    EncodeRow(row, &bytes);
    return bytes;
  };
  std::map<std::string, std::string> want;
  for (const Row& row : sink->emitted) want[key_of(row)] = bytes_of(row);
  std::map<std::string, std::string> got;
  for (const Row& row : table->Snapshot()) {
    EXPECT_TRUE(got.emplace(key_of(row), bytes_of(row)).second)
        << "duplicate key " << RowToString(row);
  }
  EXPECT_EQ(got, want);

  ASSERT_EQ(got.size(), 4u);
  for (const Row& row : table->Snapshot()) {
    double x = row[0].float64_value();
    int64_t count = row[1].int64_value();
    if (std::isnan(x)) {
      EXPECT_EQ(count, 2);
    } else if (x == 0.0 && std::signbit(x)) {
      EXPECT_EQ(count, 1);
    } else if (x == 0.0) {
      EXPECT_EQ(count, 2);
    } else {
      EXPECT_EQ(x, 1.5);
      EXPECT_EQ(count, 3);
    }
  }
}

TEST(StreamingQueryTest, CompleteModeRewritesTable) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  auto query =
      StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kComplete));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 1)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 1u);
  ASSERT_TRUE(stream->AddData({Click("ny", 1, 1), Click("de", 1, 1)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 3u);  // full table every trigger
}

TEST(StreamingQueryTest, CompleteModeWithSort) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream)
                     .GroupBy({"country"})
                     .Count()
                     .OrderBy({SortKey{Col("count"), /*ascending=*/false}})
                     .Limit(2);
  auto query =
      StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kComplete));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream
                  ->AddData({Click("ca", 1, 1), Click("ca", 1, 1),
                             Click("ca", 1, 1), Click("ny", 1, 1),
                             Click("ny", 1, 1), Click("de", 1, 1)})
                  .ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Str("ca"));  // top count first
  EXPECT_EQ(rows[0][1], Value::Int64(3));
  EXPECT_EQ(rows[1][0], Value::Str("ny"));
}

TEST(StreamingQueryTest, WindowedAppendWithWatermark) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  // 10s tumbling windows, 5s lateness bound.
  DataFrame df =
      DataFrame::ReadStream(stream)
          .WithWatermark("time", 5 * kSec)
          .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "window")})
          .Count();
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kAppend));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  // Epoch 1: events in window [0,10); watermark still unset -> no output.
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 2), Click("ny", 1, 7)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 0u);

  // Epoch 2: event at t=16 pushes watermark to 16-5=11 > 10, but the
  // watermark only takes effect next epoch.
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 16)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ((*query)->watermark_micros(), 11 * kSec);

  // Epoch 3: any new data triggers emission of the closed window [0,10).
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 17)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Timestamp(0));        // window_start
  EXPECT_EQ(rows[0][1], Value::Timestamp(10 * kSec));  // window_end
  EXPECT_EQ(rows[0][2], Value::Int64(2));            // count

  // Late data for the closed window is dropped, not re-emitted.
  ASSERT_TRUE(stream->AddData({Click("zz", 1, 3), Click("ca", 1, 18)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->SortedSnapshot().size(), 1u)
      << "late record must not reopen a closed window";
}

TEST(StreamingQueryTest, EphemeralStateDropsTrackedChangesEachEpoch) {
  // A query without a checkpoint never commits its state stores, so the
  // epoch end must still drop their change tracking; otherwise every key
  // ever written and every evicted window stays tracked for the life of
  // the query.
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(stream)
          .WithWatermark("time", 5 * kSec)
          .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "window"),
                    NamedExpr{Col("country"), "country"}})
          .Count();
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kUpdate));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const char* kCountries[] = {"ca", "ny", "tx"};
  const int kEpochs = 60;
  for (int e = 0; e < kEpochs; ++e) {
    std::vector<Row> rows;
    for (const char* c : kCountries) {
      rows.push_back(Click(c, 1, 10 * e + 1));
      rows.push_back(Click(c, 1, 10 * e + 3));
    }
    rows.push_back(Click("late", 1, 0));  // dropped once [0,10) closes
    ASSERT_TRUE(stream->AddData(rows).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    EXPECT_EQ((*query)->state().TotalTrackedChanges(), 0) << "epoch " << e;
  }
  // The last epoch ran under watermark 10 * 58 + 3 - 5 = 578 s, which
  // closed every window up to [560, 570): only windows 57..59 stay live.
  EXPECT_EQ((*query)->state().TotalEntries(), 3 * 3);
  QueryProgress last;
  ASSERT_TRUE((*query)->GetLastProgress(&last));
  int64_t state_rows = 0;
  for (const OperatorProgress& op : last.operators) state_rows += op.state_rows;
  EXPECT_EQ(state_rows, 3 * 3);
  // One upserted row per (window, country), each counting its two events.
  auto table = sink->SortedSnapshot();
  ASSERT_EQ(table.size(), static_cast<size_t>(kEpochs * 3 + 1));
  for (const Row& row : table) {
    if (row[2] == Value::Str("late")) continue;  // before [0,10) closed
    EXPECT_EQ(row[3], Value::Int64(2));
  }
}

TEST(StreamingQueryTest, SlidingWindowCounts) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  // 10s windows sliding every 5s: an event belongs to two windows.
  DataFrame df =
      DataFrame::ReadStream(stream)
          .GroupBy({As(Window(Col("time"), 10 * kSec, 5 * kSec), "w"),
                    NamedExpr{Col("country"), "country"}})
          .Count();
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kUpdate));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 7)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);  // windows [0,10) and [5,15)
  EXPECT_EQ(rows[0][0], Value::Timestamp(0));
  EXPECT_EQ(rows[1][0], Value::Timestamp(5 * kSec));
  EXPECT_EQ(rows[0][3], Value::Int64(1));
}

TEST(StreamingQueryTest, StreamStaticJoin) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame regions =
      DataFrame::FromRows(Schema::Make({{"country", TypeId::kString, false},
                                        {"region", TypeId::kString, false}}),
                          {{Value::Str("ca"), Value::Str("na")},
                           {Value::Str("de"), Value::Str("eu")}})
          .TakeValue();
  DataFrame df = DataFrame::ReadStream(stream)
                     .Join(regions, {"country"})
                     .Select({As(Col("country"), "country"),
                              As(Col("region"), "region")});
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kAppend));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 1), Click("ny", 1, 1),
                               Click("de", 1, 1)})
                  .ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);  // inner join drops ny
  EXPECT_EQ(rows[0][1], Value::Str("na"));
  EXPECT_EQ(rows[1][1], Value::Str("eu"));
}

TEST(StreamingQueryTest, StreamStaticLeftOuterJoin) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame regions =
      DataFrame::FromRows(Schema::Make({{"country", TypeId::kString, false},
                                        {"region", TypeId::kString, false}}),
                          {{Value::Str("ca"), Value::Str("na")}})
          .TakeValue();
  DataFrame df = DataFrame::ReadStream(stream)
                     .Join(regions, {"country"}, JoinType::kLeftOuter);
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kAppend));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 1), Click("ny", 2, 1)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Str("ca"));
  EXPECT_EQ(rows[0][3], Value::Str("na"));
  EXPECT_EQ(rows[1][0], Value::Str("ny"));
  EXPECT_TRUE(rows[1][3].is_null());  // unmatched stream row preserved
}

TEST(StreamingQueryTest, StreamStreamInnerJoin) {
  auto impressions = std::make_shared<MemoryStream>(
      "impressions",
      Schema::Make({{"ad", TypeId::kString, false},
                    {"itime", TypeId::kTimestamp, false}}),
      2);
  auto clicks = std::make_shared<MemoryStream>(
      "clicks2",
      Schema::Make({{"ad", TypeId::kString, false},
                    {"ctime", TypeId::kTimestamp, false}}),
      2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(impressions)
                     .Join(DataFrame::ReadStream(clicks), {"ad"});
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kAppend));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  // Impression arrives first; click for the same ad arrives a later epoch.
  ASSERT_TRUE(impressions->AddData({{Value::Str("a1"), Value::Timestamp(1)}})
                  .ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 0u);
  ASSERT_TRUE(
      clicks->AddData({{Value::Str("a1"), Value::Timestamp(5)}}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Str("a1"));
  EXPECT_EQ(rows[0][1], Value::Timestamp(1));
  EXPECT_EQ(rows[0][2], Value::Timestamp(5));
  // Same-epoch arrivals must match exactly once too.
  ASSERT_TRUE(impressions->AddData({{Value::Str("a2"), Value::Timestamp(9)}})
                  .ok());
  ASSERT_TRUE(
      clicks->AddData({{Value::Str("a2"), Value::Timestamp(9)}}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 2u);
}

TEST(StreamingQueryTest, StreamStreamLeftOuterJoinEmitsAtWatermark) {
  auto left_schema = Schema::Make({{"k", TypeId::kString, false},
                                   {"ltime", TypeId::kTimestamp, false}});
  auto right_schema = Schema::Make({{"k", TypeId::kString, false},
                                    {"rtime", TypeId::kTimestamp, false}});
  auto left = std::make_shared<MemoryStream>("l", left_schema, 1);
  auto right = std::make_shared<MemoryStream>("r", right_schema, 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(left)
          .WithWatermark("ltime", 2 * kSec)
          .Join(DataFrame::ReadStream(right).WithWatermark("rtime", 2 * kSec),
                {"k"}, JoinType::kLeftOuter);
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kAppend));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  ASSERT_TRUE(left->AddData({{Value::Str("m"), Value::Timestamp(1 * kSec)},
                             {Value::Str("u"), Value::Timestamp(1 * kSec)}})
                  .ok());
  ASSERT_TRUE(
      right->AddData({{Value::Str("m"), Value::Timestamp(1 * kSec)}}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 1u);  // matched pair emitted

  // Push the watermark far past the unmatched row. Both inputs must
  // advance: the engine uses the min-across-inputs watermark policy, so a
  // stalled side holds the watermark (and the outer result) back.
  ASSERT_TRUE(
      left->AddData({{Value::Str("x"), Value::Timestamp(20 * kSec)}}).ok());
  ASSERT_TRUE(
      right->AddData({{Value::Str("x2"), Value::Timestamp(20 * kSec)}}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  ASSERT_TRUE(
      left->AddData({{Value::Str("y"), Value::Timestamp(21 * kSec)}}).ok());
  ASSERT_TRUE(
      right->AddData({{Value::Str("y2"), Value::Timestamp(21 * kSec)}}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  // "u" must now appear null-padded exactly once.
  int null_padded = 0;
  for (const Row& r : rows) {
    if (r[0] == Value::Str("u")) {
      EXPECT_TRUE(r[2].is_null());
      ++null_padded;
    }
  }
  EXPECT_EQ(null_padded, 1);
}

TEST(StreamingQueryTest, DistinctStreaming) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream)
                     .SelectColumns({"country"})
                     .Distinct();
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kAppend));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 1), Click("ca", 2, 2),
                               Click("ny", 3, 3)})
                  .ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 2u);
  // Duplicates across epochs are still suppressed (state store).
  ASSERT_TRUE(stream->AddData({Click("ca", 9, 9), Click("de", 1, 1)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 3u);
}

TEST(StreamingQueryTest, DistinctDuplicatesLeaveStateUnchanged) {
  // A re-seen row is only probed: dedup must not mark its key changed, or
  // every duplicate would be rewritten into the next state delta.
  auto dir = MakeTempDir("distinct_duplicates");
  ASSERT_TRUE(dir.ok());
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream)
                     .SelectColumns({"country", "latency"})
                     .Distinct();
  QueryOptions opts = Ephemeral(OutputMode::kAppend);
  opts.checkpoint_dir = *dir;
  opts.state_checkpoint_interval = 2;  // every other epoch commits
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::vector<Row> rows;
  for (int i = 0; i < 50; ++i) rows.push_back(Click("ca", i, i));
  // New rows until an epoch has just committed them.
  for (int e = 0; e < 2; ++e) {
    std::vector<Row> fresh;
    for (int i = 0; i < 50; ++i) fresh.push_back(Click("ny", 100 * e + i, i));
    ASSERT_TRUE(stream->AddData(e == 0 ? rows : fresh).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    if (e == 0 && (*query)->state().TotalTrackedChanges() == 0) break;
  }
  const StateManager& state = (*query)->state();
  ASSERT_EQ(state.TotalTrackedChanges(), 0);
  const int64_t entries = state.TotalEntries();
  const int64_t bytes = state.TotalBytesWritten();
  const size_t emitted = sink->Snapshot().size();
  ASSERT_GT(bytes, 0);
  ASSERT_EQ(static_cast<int64_t>(emitted), entries);
  // Two all-duplicate epochs: one ends without a commit, one commits a
  // delta. Neither tracks a change, and the delta is empty.
  for (int e = 0; e < 2; ++e) {
    ASSERT_TRUE(stream->AddData(rows).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    EXPECT_EQ(state.TotalTrackedChanges(), 0) << "duplicate epoch " << e;
  }
  EXPECT_EQ(state.TotalBytesWritten(), bytes);
  EXPECT_EQ(state.TotalEntries(), entries);
  EXPECT_EQ(sink->Snapshot().size(), emitted);
  query->reset();
  RemoveDirRecursive(*dir).ok();
}

TEST(StreamingQueryTest, InvalidModeRejectedAtStart) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kAppend));
  ASSERT_FALSE(query.ok());
  EXPECT_TRUE(query.status().IsAnalysisError());
}

TEST(StreamingQueryTest, UdfFailureFailsEpochAndQuery) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  ScalarFn crashing = [](const std::vector<Value>& args) -> Result<Value> {
    if (args[0] == Value::Str("poison")) {
      return Status::InvalidArgument("cannot parse record");
    }
    return args[0];
  };
  DataFrame df = DataFrame::ReadStream(stream).Select(
      {As(Udf("parse", crashing, TypeId::kString, {Col("country")}), "c")});
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kAppend));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Click("ok", 1, 1)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  ASSERT_TRUE(stream->AddData({Click("poison", 1, 2)}).ok());
  auto ran = (*query)->ProcessOneTrigger();
  ASSERT_FALSE(ran.ok());
  EXPECT_FALSE((*query)->error().ok());
  // Further triggers refuse until restart.
  EXPECT_FALSE((*query)->ProcessOneTrigger().ok());
  // The failed epoch did not corrupt the sink.
  EXPECT_EQ(sink->Snapshot().size(), 1u);
}

TEST(StreamingQueryTest, ProgressMetricsPopulated) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  auto query = StreamingQuery::Start(df, sink, Ephemeral(OutputMode::kUpdate));
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 1), Click("ny", 1, 1)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  const auto& progress = (*query)->recent_progress();
  ASSERT_FALSE(progress.empty());
  EXPECT_EQ(progress.back().rows_read, 2);
  EXPECT_EQ(progress.back().rows_written, 2);
  EXPECT_EQ(progress.back().state_entries, 2);
  EXPECT_GT(progress.back().duration_nanos, 0);
}

// Prefix-consistency property (paper §4.2): for ANY interleaving of adds
// and triggers, the final update-mode table equals running the same query
// as a batch job over the full input prefix.
class PrefixConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(PrefixConsistencyTest, StreamEqualsBatchOnPrefix) {
  Random rng(static_cast<uint64_t>(GetParam()));
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 3);
  auto sink = std::make_shared<MemorySink>();
  const char* countries[] = {"ca", "ny", "de", "jp", "br"};
  std::vector<Row> all_rows;

  DataFrame streaming =
      DataFrame::ReadStream(stream)
          .Where(Gt(Col("latency"), Lit(5)))
          .GroupBy({"country"})
          .Agg({CountAll("n"), SumOf(Col("latency"), "total")});
  auto query =
      StreamingQuery::Start(streaming, sink, Ephemeral(OutputMode::kUpdate));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  for (int step = 0; step < 30; ++step) {
    int burst = 1 + static_cast<int>(rng.Uniform(10));
    std::vector<Row> batch;
    for (int i = 0; i < burst; ++i) {
      batch.push_back(Click(countries[rng.Uniform(5)],
                            static_cast<int64_t>(rng.Uniform(20)),
                            static_cast<int64_t>(step)));
    }
    all_rows.insert(all_rows.end(), batch.begin(), batch.end());
    ASSERT_TRUE(stream->AddData(batch).ok());
    if (rng.OneIn(0.6)) {
      ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    }
  }
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());

  DataFrame batch_df = DataFrame::FromRows(ClickSchema(), all_rows)
                           .TakeValue()
                           .Where(Gt(Col("latency"), Lit(5)))
                           .GroupBy({"country"})
                           .Agg({CountAll("n"), SumOf(Col("latency"),
                                                      "total")});
  auto batch_result = RunBatchSorted(batch_df);
  ASSERT_TRUE(batch_result.ok()) << batch_result.status().ToString();
  auto stream_result = sink->SortedSnapshot();
  ASSERT_EQ(stream_result.size(), batch_result->size());
  for (size_t i = 0; i < stream_result.size(); ++i) {
    EXPECT_EQ(CompareRows(stream_result[i], (*batch_result)[i]), 0)
        << "row " << i << ": stream=" << RowToString(stream_result[i])
        << " batch=" << RowToString((*batch_result)[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixConsistencyTest,
                         ::testing::Values(11, 22, 33, 44));

// A durable update-mode count that checkpoints state only every third
// epoch: between checkpoints the changed entries stay dirty across epochs,
// carrying the aggregate's touched ordinals (the entry marks) of earlier
// epochs. Each epoch touches a random subset of the same keys in a random
// order, so stale marks name other keys' ordinals; after every epoch the
// sink table must equal a batch run over the input so far. A restart
// halfway replays the uncheckpointed epochs into the same sink.
TEST(StreamingQueryTest, SparseCheckpointUpdateCountMatchesBatchPrefixes) {
  auto dir = MakeTempDir("sstreaming_sparse_ckpt");
  ASSERT_TRUE(dir.ok());
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  const char* countries[] = {"ca", "ny", "de", "jp", "br", "fr", "it", "mx"};
  auto count = [](DataFrame df) {
    return df.GroupBy({"country"}).Agg(
        {CountAll("n"), SumOf(Col("latency"), "total")});
  };
  QueryOptions opts = Ephemeral(OutputMode::kUpdate);
  opts.checkpoint_dir = *dir;
  opts.num_partitions = 2;
  opts.num_state_shards = 2;
  opts.state_checkpoint_interval = 3;
  Random rng(7);
  std::vector<Row> all_rows;
  for (int run = 0; run < 2; ++run) {
    auto query = StreamingQuery::Start(count(DataFrame::ReadStream(stream)),
                                       sink, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    for (int epoch = 0; epoch < 7; ++epoch) {
      std::vector<Row> batch;
      const int rows = 1 + static_cast<int>(rng.Uniform(24));
      for (int i = 0; i < rows; ++i) {
        // Skewed towards the first keys, so key subsets and orders vary.
        const size_t k = rng.Uniform(1 + rng.Uniform(8));
        batch.push_back(Click(countries[k],
                              static_cast<int64_t>(rng.Uniform(50)), epoch));
      }
      all_rows.insert(all_rows.end(), batch.begin(), batch.end());
      ASSERT_TRUE(stream->AddData(batch).ok());
      ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
      auto expected = RunBatchSorted(
          count(DataFrame::FromRows(ClickSchema(), all_rows).TakeValue()));
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_EQ(sink->SortedSnapshot(), *expected)
          << "run " << run << ", epoch " << epoch;
    }
  }
  RemoveDirRecursive(*dir).ok();
}

}  // namespace
}  // namespace sstreaming

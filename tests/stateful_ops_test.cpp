#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "connectors/memory.h"
#include "exec/batch_executor.h"
#include "exec/streaming_query.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;
constexpr int64_t kMin = 60 * kSec;

SchemaPtr EventSchema() {
  return Schema::Make({{"user", TypeId::kString, false},
                       {"page", TypeId::kString, true},
                       {"time", TypeId::kTimestamp, false}});
}

Row Event(const char* user, const char* page, int64_t time_sec) {
  return {Value::Str(user), Value::Str(page), Value::Timestamp(time_sec * kSec)};
}

// The paper's Figure 3: track events per session keyed by user, timing out
// sessions after 30 minutes, returning the total event count.
GroupUpdateFn SessionCounter() {
  return [](const Row& key, const std::vector<Row>& values,
            GroupState* state) -> Result<std::vector<Row>> {
    int64_t total = state->exists() ? state->get()[0].int64_value() : 0;
    total += static_cast<int64_t>(values.size());
    if (state->HasTimedOut()) {
      // Session closed: emit the final count and drop the state.
      Row out = {key[0], Value::Int64(total)};
      state->remove();
      return std::vector<Row>{out};
    }
    state->update({Value::Int64(total)});
    state->SetTimeoutDuration(30 * kMin);
    return std::vector<Row>{};  // nothing until the session closes
  };
}

SchemaPtr SessionOutSchema() {
  return Schema::Make({{"user", TypeId::kString, false},
                       {"events", TypeId::kInt64, false}});
}

TEST(MapGroupsWithStateTest, SessionizationWithProcessingTimeTimeout) {
  ManualClock clock(0);
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(stream)
          .GroupByKey({As(Col("user"), "user")})
          .FlatMapGroupsWithState(SessionCounter(), SessionOutSchema(),
                                  GroupStateTimeout::kProcessingTime);
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.clock = &clock;
  opts.num_partitions = 2;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  ASSERT_TRUE(stream->AddData({Event("alice", "a", 1), Event("bob", "b", 1),
                               Event("alice", "c", 2)})
                  .ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 0u) << "sessions still open";

  // Bob stays active; Alice goes quiet past the 30 min timeout.
  clock.AdvanceMicros(20 * kMin);
  ASSERT_TRUE(stream->AddData({Event("bob", "d", 3)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 0u);

  clock.AdvanceMicros(15 * kMin);  // alice idle 35 min; bob idle 15 min
  ASSERT_TRUE(stream->AddData({Event("carol", "x", 9)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Str("alice"));
  EXPECT_EQ(rows[0][1], Value::Int64(2));

  // Bob's session closes after he too goes idle.
  clock.AdvanceMicros(31 * kMin);
  ASSERT_TRUE(stream->AddData({Event("carol", "y", 10)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], Value::Str("bob"));
  EXPECT_EQ(rows[1][1], Value::Int64(2));
}

TEST(MapGroupsWithStateTest, EventTimeTimeoutUsesWatermark) {
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  GroupUpdateFn fn = [](const Row& key, const std::vector<Row>& values,
                        GroupState* state) -> Result<std::vector<Row>> {
    if (state->HasTimedOut()) {
      Row out = {key[0], state->exists() ? state->get()[0] : Value::Int64(0)};
      state->remove();
      return std::vector<Row>{out};
    }
    int64_t n = state->exists() ? state->get()[0].int64_value() : 0;
    n += static_cast<int64_t>(values.size());
    state->update({Value::Int64(n)});
    // Close the group once the watermark passes the last event by 10s.
    int64_t last_event = values.back()[2].int64_value();
    state->SetTimeoutTimestamp(last_event + 10 * kSec);
    return std::vector<Row>{};
  };
  DataFrame df = DataFrame::ReadStream(stream)
                     .WithWatermark("time", 2 * kSec)
                     .GroupByKey({As(Col("user"), "user")})
                     .FlatMapGroupsWithState(fn, SessionOutSchema(),
                                             GroupStateTimeout::kEventTime);
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  ASSERT_TRUE(stream->AddData({Event("alice", "a", 5)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ(sink->Snapshot().size(), 0u);
  // Event time jumps to 30s: watermark = 28s > 15s timeout.
  ASSERT_TRUE(stream->AddData({Event("bob", "b", 30)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  // One more trigger for the watermark to take effect.
  ASSERT_TRUE(stream->AddData({Event("bob", "c", 31)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Str("alice"));
  EXPECT_EQ(rows[0][1], Value::Int64(1));
}

TEST(MapGroupsWithStateTest, MapVariantEnforcesSingleOutput) {
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  GroupUpdateFn bad = [](const Row&, const std::vector<Row>&,
                         GroupState*) -> Result<std::vector<Row>> {
    return std::vector<Row>{};  // zero rows: invalid for map variant
  };
  DataFrame df = DataFrame::ReadStream(stream)
                     .GroupByKey({As(Col("user"), "user")})
                     .MapGroupsWithState(bad, SessionOutSchema());
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(stream->AddData({Event("a", "p", 1)}).ok());
  EXPECT_FALSE((*query)->ProcessAllAvailable().ok());
}

TEST(MapGroupsWithStateTest, MapVariantEmitsPerInvocation) {
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  GroupUpdateFn fn = [](const Row& key, const std::vector<Row>& values,
                        GroupState* state) -> Result<std::vector<Row>> {
    int64_t n = state->exists() ? state->get()[0].int64_value() : 0;
    n += static_cast<int64_t>(values.size());
    state->update({Value::Int64(n)});
    return std::vector<Row>{{key[0], Value::Int64(n)}};
  };
  DataFrame df = DataFrame::ReadStream(stream)
                     .GroupByKey({As(Col("user"), "user")})
                     .MapGroupsWithState(fn, SessionOutSchema());
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Event("a", "p", 1), Event("a", "q", 2)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  ASSERT_TRUE(stream->AddData({Event("a", "r", 3)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Value::Int64(2));  // first invocation: 2 events
  EXPECT_EQ(rows[1][1], Value::Int64(3));  // running count carried in state
}

TEST(MapGroupsWithStateTest, WorksInBatchMode) {
  // Paper §4.3.2: "Both operators also work in batch mode, in which case
  // the update function will only be called once [per key]."
  std::vector<Row> data = {Event("a", "p", 1), Event("b", "q", 2),
                           Event("a", "r", 3)};
  GroupUpdateFn fn = [](const Row& key, const std::vector<Row>& values,
                        GroupState* state) -> Result<std::vector<Row>> {
    EXPECT_FALSE(state->exists()) << "batch mode calls once per key";
    return std::vector<Row>{
        {key[0], Value::Int64(static_cast<int64_t>(values.size()))}};
  };
  DataFrame df = DataFrame::FromRows(EventSchema(), data)
                     .TakeValue()
                     .GroupByKey({As(Col("user"), "user")})
                     .FlatMapGroupsWithState(fn, SessionOutSchema());
  auto rows = RunBatchSorted(df);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0], Value::Str("a"));
  EXPECT_EQ((*rows)[0][1], Value::Int64(2));
  EXPECT_EQ((*rows)[1][1], Value::Int64(1));
}

// One call of an update function: the key, how many rows it got, and
// whether it was a timeout.
struct Invocation {
  std::string key;
  size_t rows;
  bool timed_out;
  bool operator==(const Invocation&) const = default;
};

/// An update function that records its calls and keeps a row count per
/// key, re-armed `delay` after each call (processing time) or after the
/// latest event time it got (event time).
GroupUpdateFn RecordingCounter(GroupStateTimeout timeout, int64_t delay,
                               std::mutex* mu,
                               std::vector<Invocation>* calls) {
  return [=](const Row& key, const std::vector<Row>& values,
             GroupState* state) -> Result<std::vector<Row>> {
    {
      std::lock_guard<std::mutex> lock(*mu);
      calls->push_back(
          {key[0].string_value(), values.size(), state->HasTimedOut()});
    }
    if (state->HasTimedOut()) {
      state->remove();
      return std::vector<Row>{};
    }
    int64_t n = state->exists() ? state->get()[0].int64_value() : 0;
    n += static_cast<int64_t>(values.size());
    state->update({Value::Int64(n)});
    if (timeout == GroupStateTimeout::kProcessingTime) {
      state->SetTimeoutDuration(delay);
    } else {
      int64_t latest = INT64_MIN;
      for (const Row& v : values) latest = std::max(latest, v[2].int64_value());
      state->SetTimeoutTimestamp(latest + delay);
    }
    return std::vector<Row>{{key[0], Value::Int64(n)}};
  };
}

// A key whose stored deadline has passed but that gets rows in that very
// epoch is invoked once, with its rows, and is not timed out; a key with
// no rows whose deadline passed times out.
TEST(MapGroupsWithStateTest, RowsAtThePassedDeadlineAreNotATimeout) {
  for (GroupStateTimeout timeout :
       {GroupStateTimeout::kProcessingTime, GroupStateTimeout::kEventTime}) {
    const bool event_time = timeout == GroupStateTimeout::kEventTime;
    SCOPED_TRACE(event_time ? "event time" : "processing time");
    ManualClock clock(0);
    std::mutex mu;
    std::vector<Invocation> calls;
    auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 2);
    auto sink = std::make_shared<MemorySink>();
    DataFrame df = DataFrame::ReadStream(stream);
    if (event_time) df = df.WithWatermark("time", 2 * kSec);
    df = df.GroupByKey({As(Col("user"), "user")})
             .FlatMapGroupsWithState(
                 RecordingCounter(timeout, 10 * kSec, &mu, &calls),
                 SessionOutSchema(), timeout);
    QueryOptions opts;
    opts.mode = OutputMode::kUpdate;
    opts.clock = &clock;
    opts.num_partitions = 2;
    auto query = StreamingQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();

    // Epoch 1: alice and bob arm deadlines at 10 s (processing time) or
    // 15 s (event time); carol's event at 30 s moves the watermark to 28 s.
    ASSERT_TRUE(stream->AddData({Event("alice", "a", 5), Event("bob", "b", 5),
                                 Event("carol", "c", 30)})
                    .ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    clock.AdvanceMicros(20 * kSec);
    // Epoch 2: both deadlines have passed; only alice has rows.
    calls.clear();
    ASSERT_TRUE(
        stream->AddData({Event("alice", "d", 31), Event("alice", "e", 32)})
            .ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    std::sort(calls.begin(), calls.end(),
              [](const Invocation& a, const Invocation& b) {
                return a.key < b.key;
              });
    std::vector<Invocation> want = {{"alice", 2, false}, {"bob", 0, true}};
    if (!event_time) want.push_back({"carol", 0, true});
    EXPECT_EQ(calls, want);
  }
}

// An update function that never sets state stores nothing, and its query
// restarts from the checkpoint.
TEST(MapGroupsWithStateTest, StatelessUpdateLeavesNoStateAndRestores) {
  auto dir = MakeTempDir("map_groups_stateless");
  ASSERT_TRUE(dir.ok());
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  GroupUpdateFn fn = [](const Row& key, const std::vector<Row>& values,
                        GroupState* state) -> Result<std::vector<Row>> {
    if (state->exists()) return Status::Internal("state was never set");
    return std::vector<Row>{
        {key[0], Value::Int64(static_cast<int64_t>(values.size()))}};
  };
  DataFrame df = DataFrame::ReadStream(stream)
                     .GroupByKey({As(Col("user"), "user")})
                     .FlatMapGroupsWithState(fn, SessionOutSchema(),
                                             GroupStateTimeout::kNone);
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 2;
  opts.num_state_shards = 2;
  opts.checkpoint_dir = *dir;
  auto expect_stateless = [](StreamingQuery& q) {
    QueryProgress last;
    ASSERT_TRUE(q.GetLastProgress(&last));
    int64_t state_rows = 0;
    for (const OperatorProgress& op : last.operators) {
      state_rows += op.state_rows;
    }
    EXPECT_EQ(state_rows, 0);
  };
  {
    auto query = StreamingQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE(stream->AddData({Event("a", "p", 1), Event("b", "q", 2),
                                 Event("a", "r", 3)})
                    .ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    expect_stateless(**query);
  }
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Event("a", "s", 4), Event("c", "t", 5)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_EQ((*query)->last_epoch(), 2);
  expect_stateless(**query);
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], (Row{Value::Str("a"), Value::Int64(1)}));
  EXPECT_EQ(rows[1], (Row{Value::Str("a"), Value::Int64(2)}));
  EXPECT_EQ(rows[2], (Row{Value::Str("b"), Value::Int64(1)}));
  EXPECT_EQ(rows[3], (Row{Value::Str("c"), Value::Int64(1)}));
  query->reset();
  RemoveDirRecursive(*dir).ok();
}

// Rows whose group key is NULL form one group of their own.
TEST(MapGroupsWithStateTest, NullGroupKeyFormsItsOwnGroup) {
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  GroupUpdateFn fn = [](const Row& key, const std::vector<Row>& values,
                        GroupState* state) -> Result<std::vector<Row>> {
    int64_t n = state->exists() ? state->get()[0].int64_value() : 0;
    n += static_cast<int64_t>(values.size());
    state->update({Value::Int64(n)});
    return std::vector<Row>{{key[0], Value::Int64(n)}};
  };
  DataFrame df =
      DataFrame::ReadStream(stream)
          .GroupByKey({As(Col("page"), "page")})
          .FlatMapGroupsWithState(
              fn,
              Schema::Make({{"page", TypeId::kString, true},
                            {"events", TypeId::kInt64, false}}),
              GroupStateTimeout::kNone);
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 2;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  Row no_page = {Value::Str("u"), Value::Null(), Value::Timestamp(0)};
  ASSERT_TRUE(
      stream->AddData({no_page, Event("u", "p", 1), no_page, no_page}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  ASSERT_TRUE(stream->AddData({no_page}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (Row{Value::Null(), Value::Int64(3)}));
  EXPECT_EQ(rows[1], (Row{Value::Null(), Value::Int64(4)}));
  EXPECT_EQ(rows[2], (Row{Value::Str("p"), Value::Int64(1)}));
}

TEST(BatchExecutorTest, BatchAndStreamShareOperators) {
  // The paper's §4.1 example run as a batch job.
  std::vector<Row> data = {Event("a", "p", 1), Event("b", "q", 2),
                           Event("a", "r", 3)};
  DataFrame df = DataFrame::FromRows(EventSchema(), data)
                     .TakeValue()
                     .GroupBy({"user"})
                     .Count();
  auto rows = RunBatchSorted(df);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][1], Value::Int64(2));
  EXPECT_EQ((*rows)[1][1], Value::Int64(1));
}

TEST(BatchExecutorTest, BatchJoinAndSort) {
  auto left = DataFrame::FromRows(
                  Schema::Make({{"k", TypeId::kInt64, false},
                                {"v", TypeId::kString, false}}),
                  {{Value::Int64(1), Value::Str("a")},
                   {Value::Int64(2), Value::Str("b")},
                   {Value::Int64(3), Value::Str("c")}})
                  .TakeValue();
  auto right = DataFrame::FromRows(
                   Schema::Make({{"k", TypeId::kInt64, false},
                                 {"w", TypeId::kInt64, false}}),
                   {{Value::Int64(2), Value::Int64(20)},
                    {Value::Int64(3), Value::Int64(30)}})
                   .TakeValue();
  DataFrame df = left.Join(right, {"k"})
                     .OrderBy({SortKey{Col("w"), /*ascending=*/false}});
  auto rows = RunBatch(df);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][2], Value::Int64(30));
  EXPECT_EQ((*rows)[1][2], Value::Int64(20));
}

// ORDER BY follows SQL's order: nulls first, then -inf < -0.0 == 0.0 <
// finite < inf < NaN (Spark's NaN rule).
TEST(BatchExecutorTest, OrderByPlacesNaNAboveInfinityAndNullsFirst) {
  const double inf = std::numeric_limits<double>::infinity();
  const double xs[] = {2.0, std::numeric_limits<double>::quiet_NaN(),
                       0.0, inf, -0.0, -inf, 1.0};
  std::vector<Row> input;
  for (size_t i = 0; i < std::size(xs); ++i) {
    input.push_back({Value::Int64(static_cast<int64_t>(i)),
                     Value::Float64(xs[i])});
  }
  input.push_back({Value::Int64(7), Value::Null()});
  auto df = DataFrame::FromRows(Schema::Make({{"id", TypeId::kInt64, false},
                                              {"x", TypeId::kFloat64, true}}),
                                input)
                .TakeValue();
  auto ids = [&](bool ascending) {
    auto rows = RunBatch(df.OrderBy({SortKey{Col("x"), ascending}}));
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<int64_t> out;
    if (rows.ok()) {
      // -0.0 (id 4) ties with 0.0 (id 2), in partition order: read both
      // as id 2.
      for (const Row& r : *rows) {
        out.push_back(r[0].int64_value() == 4 ? 2 : r[0].int64_value());
      }
    }
    return out;
  };
  EXPECT_EQ(ids(true), (std::vector<int64_t>{7, 5, 2, 2, 6, 0, 3, 1}));
  EXPECT_EQ(ids(false), (std::vector<int64_t>{1, 3, 0, 6, 2, 2, 5, 7}));
}

TEST(BatchExecutorTest, BatchLeftOuterJoin) {
  auto left = DataFrame::FromRows(
                  Schema::Make({{"k", TypeId::kInt64, false}}),
                  {{Value::Int64(1)}, {Value::Int64(2)}})
                  .TakeValue();
  auto right = DataFrame::FromRows(
                   Schema::Make({{"k", TypeId::kInt64, false},
                                 {"w", TypeId::kInt64, false}}),
                   {{Value::Int64(2), Value::Int64(20)}})
                   .TakeValue();
  auto rows = RunBatchSorted(left.Join(right, {"k"}, JoinType::kLeftOuter));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_TRUE((*rows)[0][1].is_null());
  EXPECT_EQ((*rows)[1][1], Value::Int64(20));
}

TEST(BatchExecutorTest, BatchDistinct) {
  auto df = DataFrame::FromRows(Schema::Make({{"x", TypeId::kInt64, false}}),
                                {{Value::Int64(1)},
                                 {Value::Int64(2)},
                                 {Value::Int64(1)}})
                .TakeValue()
                .Distinct();
  auto rows = RunBatchSorted(df);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(BatchExecutorTest, RejectsStreamingPlans) {
  auto stream = std::make_shared<MemoryStream>("s", EventSchema(), 1);
  EXPECT_FALSE(RunBatch(DataFrame::ReadStream(stream)).ok());
}

}  // namespace
}  // namespace sstreaming

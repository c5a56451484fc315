#include "exec/continuous.h"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "connectors/bus_connectors.h"
#include "connectors/memory.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

SchemaPtr EventSchema() {
  return Schema::Make({{"k", TypeId::kString, false},
                       {"v", TypeId::kInt64, false},
                       {"time", TypeId::kTimestamp, false}});
}

ContinuousQuery::Options FastOptions() {
  ContinuousQuery::Options opts;
  opts.epoch_interval_micros = 20000;
  opts.poll_sleep_micros = 100;
  return opts;
}

void WaitFor(const std::function<bool()>& cond, int64_t timeout_ms = 5000) {
  int64_t waited = 0;
  while (!cond() && waited < timeout_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    waited += 2;
  }
}

TEST(ContinuousTest, MapPipelineDeliversRecords) {
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream)
                     .Where(Gt(Col("v"), Lit(0)))
                     .Select({As(Col("k"), "k"), As(Mul(Col("v"), Lit(2)),
                                                    "v2")});
  auto query = ContinuousQuery::Start(df, sink, FastOptions());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({{Value::Str("a"), Value::Int64(1),
                                Value::Timestamp(1)},
                               {Value::Str("b"), Value::Int64(-1),
                                Value::Timestamp(2)},
                               {Value::Str("c"), Value::Int64(3),
                                Value::Timestamp(3)}})
                  .ok());
  // Wait for the filtered record too: records_processed() counts all three
  // inputs, and the "b" row can lose the race with Stop() under load.
  WaitFor([&] {
    return sink->Snapshot().size() >= 2 &&
           (*query)->records_processed() >= 3;
  });
  (*query)->Stop();
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Str("a"));
  EXPECT_EQ(rows[0][1], Value::Int64(2));
  EXPECT_EQ(rows[1][1], Value::Int64(6));
  EXPECT_EQ((*query)->records_processed(), 3);
}

TEST(ContinuousTest, RejectsAggregations) {
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"k"}).Count();
  auto query = ContinuousQuery::Start(df, sink, FastOptions());
  ASSERT_FALSE(query.ok());
  EXPECT_TRUE(query.status().IsUnsupportedOperation());
}

TEST(ContinuousTest, RejectsStreamStreamJoin) {
  auto s1 = std::make_shared<MemoryStream>("s1", EventSchema(), 1);
  auto s2 = std::make_shared<MemoryStream>("s2", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(s1).Join(DataFrame::ReadStream(s2), {"k"});
  EXPECT_FALSE(ContinuousQuery::Start(df, sink, FastOptions()).ok());
}

TEST(ContinuousTest, EpochMarkersAdvanceOffsets) {
  auto dir = MakeTempDir("sstreaming_continuous_test");
  ASSERT_TRUE(dir.ok());
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream);
  ContinuousQuery::Options opts = FastOptions();
  opts.checkpoint_dir = *dir;
  {
    auto query = ContinuousQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE(stream->AddData({{Value::Str("a"), Value::Int64(1),
                                  Value::Timestamp(1)}})
                    .ok());
    WaitFor([&] { return sink->Snapshot().size() >= 1; });
    (*query)->Stop();  // writes a final epoch marker
  }
  auto wal = WriteAheadLog::Open(*dir + "/wal").TakeValue();
  auto committed = wal.LatestCommittedEpoch();
  ASSERT_TRUE(committed.ok());
  ASSERT_TRUE(committed->has_value());
  auto plan = wal.ReadPlan(**committed);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->sources[0].end[0], 1);

  // Restart resumes after the committed offsets: only new records flow.
  ASSERT_TRUE(stream->AddData({{Value::Str("b"), Value::Int64(2),
                                Value::Timestamp(2)}})
                  .ok());
  auto sink2 = std::make_shared<MemorySink>();
  {
    auto query = ContinuousQuery::Start(df, sink2, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    WaitFor([&] { return sink2->Snapshot().size() >= 1; });
    (*query)->Stop();
  }
  auto rows = sink2->SortedSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Str("b"));
  RemoveDirRecursive(*dir).ok();
}

// A restart into the *same* sink must keep the first run's output. Sink
// commit ids used to restart at 0 in every run, and MemorySink append mode
// keeps one delivery per id, so the second run's "b" replaced the first
// run's "a".
TEST(ContinuousTest, RestartIntoSameSinkKeepsEarlierOutput) {
  auto dir = MakeTempDir("sstreaming_continuous_test");
  ASSERT_TRUE(dir.ok());
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream);
  ContinuousQuery::Options opts = FastOptions();
  opts.checkpoint_dir = *dir;
  auto run = [&](const std::string& key, int64_t v) {
    ASSERT_TRUE(stream
                    ->AddData({{Value::Str(key), Value::Int64(v),
                                Value::Timestamp(v)}})
                    .ok());
    auto query = ContinuousQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    WaitFor([&] { return sink->Snapshot().size() >= static_cast<size_t>(v); });
    (*query)->Stop();  // writes a final epoch marker
  };
  run("a", 1);
  run("b", 2);
  const std::vector<Row> rows = sink->Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Str("a"));
  EXPECT_EQ(rows[1][0], Value::Str("b"));
  RemoveDirRecursive(*dir).ok();
}

TEST(ContinuousTest, LowLatencyDelivery) {
  // Records should reach the sink in well under one microbatch interval.
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  std::atomic<int64_t> delivered_at{0};
  auto sink = std::make_shared<ForeachSink>(
      [&](int64_t, OutputMode, const std::vector<Row>&) -> Status {
        delivered_at.store(MonotonicNanos());
        return Status::OK();
      });
  auto query =
      ContinuousQuery::Start(DataFrame::ReadStream(stream), sink,
                             FastOptions());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // warm up
  int64_t t0 = MonotonicNanos();
  ASSERT_TRUE(stream->AddData({{Value::Str("x"), Value::Int64(1),
                                Value::Timestamp(1)}})
                  .ok());
  WaitFor([&] { return delivered_at.load() != 0; });
  (*query)->Stop();
  ASSERT_NE(delivered_at.load(), 0);
  int64_t latency_ms = (delivered_at.load() - t0) / 1000000;
  EXPECT_LT(latency_ms, 200) << "continuous mode must deliver quickly";
}

}  // namespace
}  // namespace sstreaming

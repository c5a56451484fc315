#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "connectors/memory.h"
#include "exec/streaming_query.h"
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

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("sstreaming_recovery_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  QueryOptions Durable(OutputMode mode) {
    QueryOptions opts;
    opts.mode = mode;
    opts.num_partitions = 2;
    opts.checkpoint_dir = dir_;
    return opts;
  }

  std::string dir_;
};

TEST_F(RecoveryTest, RestartResumesFromCommittedOffsets) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  {
    auto query =
        StreamingQuery::Start(df, sink, Durable(OutputMode::kUpdate));
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE(stream->AddData({Click("ca", 1, 1), Click("ca", 1, 2)}).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    // Query object destroyed = clean shutdown.
  }
  // New data arrives while "down".
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 3), Click("ny", 1, 3)}).ok());
  {
    auto query =
        StreamingQuery::Start(df, sink, Durable(OutputMode::kUpdate));
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    auto rows = sink->SortedSnapshot();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0][1], Value::Int64(3)) << "ca count must include state "
                                              "recovered from the store";
    EXPECT_EQ(rows[1][1], Value::Int64(1));
    EXPECT_GE((*query)->last_epoch(), 2);
  }
}

TEST_F(RecoveryTest, UncommittedEpochIsReplayedIdempotently) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  {
    auto query =
        StreamingQuery::Start(df, sink, Durable(OutputMode::kUpdate));
    ASSERT_TRUE(query.ok());
    ASSERT_TRUE(stream->AddData({Click("ca", 1, 1)}).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  }
  // Simulate a crash after planning but before commit: hand-write a plan
  // for epoch 2 with no commit record (exactly what a mid-epoch crash
  // leaves behind, §6.1 step 3).
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 2), Click("ny", 1, 2)}).ok());
  {
    auto wal = WriteAheadLog::Open(dir_ + "/wal").TakeValue();
    EpochPlan plan;
    plan.epoch = 2;
    plan.sources.push_back(SourceOffsets{"clicks", {1}, {3}});
    ASSERT_TRUE(wal.WritePlan(plan).ok());
    // no WriteCommit: crashed
  }
  {
    auto query =
        StreamingQuery::Start(df, sink, Durable(OutputMode::kUpdate));
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    // Recovery must have replayed epoch 2 and committed it.
    EXPECT_EQ((*query)->last_epoch(), 2);
    auto rows = sink->SortedSnapshot();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0][1], Value::Int64(2));  // ca
    EXPECT_EQ(rows[1][1], Value::Int64(1));  // ny
    // And the WAL shows the commit.
    auto wal = WriteAheadLog::Open(dir_ + "/wal").TakeValue();
    EXPECT_TRUE(wal.IsCommitted(2));
  }
}

TEST_F(RecoveryTest, CrashLoopDoesNotDoubleCount) {
  // Replaying the same uncommitted epoch repeatedly (crash loop) must be
  // idempotent end to end.
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 1)}).ok());
  {
    auto wal = WriteAheadLog::Open(dir_ + "/wal").TakeValue();
    EpochPlan plan;
    plan.epoch = 1;
    plan.sources.push_back(SourceOffsets{"clicks", {0}, {1}});
    ASSERT_TRUE(wal.WritePlan(plan).ok());
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto query =
        StreamingQuery::Start(df, sink, Durable(OutputMode::kUpdate));
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto rows = sink->SortedSnapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][1], Value::Int64(1)) << "attempt " << attempt;
  }
}

TEST_F(RecoveryTest, StrayStateDirectoryIsNotAStore) {
  // Under state/, only `op<digits>/p<digits>` names a store. A stray
  // `opfoo/p0` once parsed as op 0, partition 0: recovery created an empty
  // store there, its version 0 pulled the replay floor below the durable
  // state, and the replay failed ("state commit versions must increase").
  // A restart with the stray directory must match one without it.
  auto run = [&](const std::string& dir, bool stray,
                 std::set<std::string>* state_dirs) -> std::vector<Row> {
    auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
    auto sink = std::make_shared<MemorySink>();
    DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
    QueryOptions opts = Durable(OutputMode::kUpdate);
    opts.checkpoint_dir = dir;
    {
      auto query = StreamingQuery::Start(df, sink, opts);
      EXPECT_TRUE(query.ok()) << query.status().ToString();
      if (!query.ok()) return {};
      for (int e = 1; e <= 3; ++e) {
        EXPECT_TRUE(
            stream->AddData({Click("ca", 1, e), Click("ny", 1, e)}).ok());
        EXPECT_TRUE((*query)->ProcessAllAvailable().ok());
      }
      EXPECT_EQ((*query)->last_epoch(), 3);
    }
    if (stray) {
      std::filesystem::create_directories(dir + "/state/opfoo/p0");
    }
    EXPECT_TRUE(stream->AddData({Click("ca", 1, 4)}).ok());
    auto query = StreamingQuery::Start(df, sink, opts);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (!query.ok()) return {};
    EXPECT_TRUE((*query)->ProcessAllAvailable().ok());
    EXPECT_EQ((*query)->last_epoch(), 4);
    for (const auto& entry :
         std::filesystem::directory_iterator(dir + "/state")) {
      state_dirs->insert(entry.path().filename().string());
    }
    return sink->SortedSnapshot();
  };
  std::set<std::string> clean_dirs;
  std::set<std::string> stray_dirs;
  const std::vector<Row> clean = run(dir_ + "/clean", false, &clean_dirs);
  const std::vector<Row> with_stray = run(dir_ + "/stray", true, &stray_dirs);
  ASSERT_EQ(clean.size(), 2u);
  EXPECT_EQ(clean[0][1], Value::Int64(4));  // ca
  EXPECT_EQ(with_stray, clean);
  // The stray directory is left alone and no store (`op0`) is created for
  // it.
  clean_dirs.insert("opfoo");
  EXPECT_EQ(stray_dirs, clean_dirs);
}

TEST_F(RecoveryTest, CodeUpdateAcrossRestart) {
  // Paper §7.1: a UDF crashes an epoch; the operator updates the UDF and
  // restarts; processing resumes from where it left off with the new code.
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  auto make_df = [&](bool fixed) {
    ScalarFn fn = [fixed](const std::vector<Value>& args) -> Result<Value> {
      if (!fixed && args[0] == Value::Str("poison")) {
        return Status::InvalidArgument("UDF bug");
      }
      if (args[0] == Value::Str("poison")) return Value::Str("recovered");
      return args[0];
    };
    return DataFrame::ReadStream(stream).Select(
        {As(Udf("parse", fn, TypeId::kString, {Col("country")}), "c")});
  };
  {
    auto query = StreamingQuery::Start(make_df(false), sink,
                                       Durable(OutputMode::kAppend));
    ASSERT_TRUE(query.ok());
    ASSERT_TRUE(stream->AddData({Click("ok", 1, 1)}).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    ASSERT_TRUE(stream->AddData({Click("poison", 1, 2)}).ok());
    EXPECT_FALSE((*query)->ProcessAllAvailable().ok());  // epoch fails
  }
  {
    // Restart with the fixed UDF; the failed epoch replays with new code.
    auto query = StreamingQuery::Start(make_df(true), sink,
                                       Durable(OutputMode::kAppend));
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    auto rows = sink->SortedSnapshot();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0][0], Value::Str("ok"));
    EXPECT_EQ(rows[1][0], Value::Str("recovered"));
  }
}

TEST_F(RecoveryTest, ManualRollbackRecomputes) {
  // Paper §7.2: roll the application back to an epoch and recompute.
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  auto sink1 = std::make_shared<MemorySink>();
  {
    auto query =
        StreamingQuery::Start(df, sink1, Durable(OutputMode::kUpdate));
    ASSERT_TRUE(query.ok());
    for (int e = 0; e < 3; ++e) {
      ASSERT_TRUE(stream->AddData({Click("ca", 1, e)}).ok());
      ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    }
    EXPECT_EQ((*query)->last_epoch(), 3);
  }
  ASSERT_TRUE(StreamingQuery::Rollback(dir_, 1).ok());
  auto sink2 = std::make_shared<MemorySink>();
  {
    auto query =
        StreamingQuery::Start(df, sink2, Durable(OutputMode::kUpdate));
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    // Epochs 2.. were recomputed (source still has the data: replayable).
    auto rows = sink2->SortedSnapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][1], Value::Int64(3));
  }
}

TEST_F(RecoveryTest, RunOnceTriggerProcessesAndStops) {
  // Paper §7.3: "run-once" trigger — one epoch of work per invocation with
  // full transactionality, the discontinuous-processing pattern.
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  QueryOptions opts = Durable(OutputMode::kUpdate);
  opts.trigger = Trigger::Once();
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 1)}).ok());
  {
    auto query = StreamingQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok());
    auto ran = (*query)->ProcessOneTrigger();
    ASSERT_TRUE(ran.ok());
    EXPECT_TRUE(*ran);
  }
  // Hours later, another "job run" picks up exactly the new data.
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 2), Click("ca", 1, 3)}).ok());
  {
    auto query = StreamingQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok());
    auto ran = (*query)->ProcessOneTrigger();
    ASSERT_TRUE(ran.ok());
    EXPECT_TRUE(*ran);
    auto rows = sink->SortedSnapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][1], Value::Int64(3));
  }
}

TEST_F(RecoveryTest, WatermarkSurvivesRestart) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(stream)
          .WithWatermark("time", 5 * kSec)
          .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "window")})
          .Count();
  {
    auto query =
        StreamingQuery::Start(df, sink, Durable(OutputMode::kAppend));
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE(stream->AddData({Click("ca", 1, 2), Click("ca", 1, 16)}).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    EXPECT_EQ((*query)->watermark_micros(), 11 * kSec);
  }
  {
    auto query =
        StreamingQuery::Start(df, sink, Durable(OutputMode::kAppend));
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    // After restart the watermark is not lost: new data triggers the closed
    // window's emission based on the recovered watermark.
    ASSERT_TRUE(stream->AddData({Click("ca", 1, 17)}).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    auto rows = sink->SortedSnapshot();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0], Value::Timestamp(0));
    EXPECT_EQ(rows[0][2], Value::Int64(1));
  }
}

TEST_F(RecoveryTest, AdaptiveBatchingCatchesUpInOneEpoch) {
  // Paper §7.3: after downtime the engine executes one large catch-up epoch
  // by default; with a per-epoch cap it needs many epochs.
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  std::vector<Row> backlog;
  for (int i = 0; i < 100; ++i) backlog.push_back(Click("ca", 1, i));
  ASSERT_TRUE(stream->AddData(backlog).ok());

  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  {
    auto sink = std::make_shared<MemorySink>();
    QueryOptions opts;  // ephemeral, adaptive (unlimited epoch size)
    opts.mode = OutputMode::kUpdate;
    auto query = StreamingQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    EXPECT_EQ((*query)->last_epoch(), 1) << "adaptive batching: one epoch";
    EXPECT_EQ(sink->SortedSnapshot()[0][1], Value::Int64(100));
  }
  {
    auto sink = std::make_shared<MemorySink>();
    QueryOptions opts;
    opts.mode = OutputMode::kUpdate;
    opts.max_records_per_epoch = 10;
    auto query = StreamingQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    EXPECT_EQ((*query)->last_epoch(), 10) << "capped: many epochs";
    EXPECT_EQ(sink->SortedSnapshot()[0][1], Value::Int64(100));
  }
}

}  // namespace
}  // namespace sstreaming

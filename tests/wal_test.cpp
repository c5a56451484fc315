#include "wal/write_ahead_log.h"

#include <gtest/gtest.h>

#include "storage/fs.h"

namespace sstreaming {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("sstreaming_wal_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  EpochPlan MakePlan(int64_t epoch) {
    EpochPlan plan;
    plan.epoch = epoch;
    plan.watermark_micros = epoch * 1000;
    plan.sources.push_back(
        SourceOffsets{"kafka", {0, 10 * epoch}, {5 * epoch, 20 * epoch}});
    plan.sources.push_back(SourceOffsets{"files", {epoch}, {epoch + 1}});
    return plan;
  }

  std::string dir_;
};

TEST_F(WalTest, EmptyLog) {
  auto log = WriteAheadLog::Open(dir_);
  ASSERT_TRUE(log.ok());
  auto latest = log->LatestPlannedEpoch();
  ASSERT_TRUE(latest.ok());
  EXPECT_FALSE(latest->has_value());
  EXPECT_FALSE(log->IsCommitted(0));
  EXPECT_TRUE(log->ReadPlan(0).status().IsNotFound());
}

TEST_F(WalTest, PlanRoundTrip) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  EpochPlan plan = MakePlan(3);
  ASSERT_TRUE(log.WritePlan(plan).ok());
  auto read = log.ReadPlan(3);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(*read == plan);
}

TEST_F(WalTest, PlanIsHumanReadableJson) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  ASSERT_TRUE(log.WritePlan(MakePlan(1)).ok());
  auto names = ListDir(dir_ + "/offsets");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  auto text = ReadFile(dir_ + "/offsets/" + (*names)[0]);
  ASSERT_TRUE(text.ok());
  auto json = Json::Parse(*text);
  ASSERT_TRUE(json.ok()) << "WAL entries must be valid JSON";
  EXPECT_EQ(json->Get("epoch").int_value(), 1);
  EXPECT_NE(text->find('\n'), std::string::npos) << "expected pretty JSON";
}

TEST_F(WalTest, LatestEpochTracksHighest) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  for (int64_t e = 1; e <= 12; ++e) {
    ASSERT_TRUE(log.WritePlan(MakePlan(e)).ok());
  }
  auto latest = log.LatestPlannedEpoch();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(**latest, 12);
  auto all = log.ListPlannedEpochs();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 12u);
  EXPECT_EQ(all->front(), 1);
}

TEST_F(WalTest, CommitTracking) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  ASSERT_TRUE(log.WritePlan(MakePlan(1)).ok());
  ASSERT_TRUE(log.WritePlan(MakePlan(2)).ok());
  ASSERT_TRUE(log.WriteCommit(1).ok());
  EXPECT_TRUE(log.IsCommitted(1));
  EXPECT_FALSE(log.IsCommitted(2));
  auto latest = log.LatestCommittedEpoch();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(**latest, 1);
}

TEST_F(WalTest, RecoveryPointIsPlannedButUncommitted) {
  // The paper's recovery rule: re-run the last planned epoch that has no
  // commit record, relying on sink idempotence.
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  for (int64_t e = 1; e <= 3; ++e) {
    ASSERT_TRUE(log.WritePlan(MakePlan(e)).ok());
    if (e < 3) {
      ASSERT_TRUE(log.WriteCommit(e).ok());
    }
  }
  // Simulated restart: a fresh handle over the same directory.
  auto recovered = WriteAheadLog::Open(dir_).TakeValue();
  EXPECT_EQ(**recovered.LatestPlannedEpoch(), 3);
  EXPECT_EQ(**recovered.LatestCommittedEpoch(), 2);
}

TEST_F(WalTest, TruncateAfterRollsBack) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  for (int64_t e = 1; e <= 5; ++e) {
    ASSERT_TRUE(log.WritePlan(MakePlan(e)).ok());
    ASSERT_TRUE(log.WriteCommit(e).ok());
  }
  ASSERT_TRUE(log.TruncateAfter(2).ok());
  EXPECT_EQ(**log.LatestPlannedEpoch(), 2);
  EXPECT_EQ(**log.LatestCommittedEpoch(), 2);
  EXPECT_FALSE(log.IsCommitted(3));
  EXPECT_TRUE(log.ReadPlan(3).status().IsNotFound());
  EXPECT_TRUE(log.ReadPlan(2).ok());
}

TEST_F(WalTest, TruncateAllWithMinusOne) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  ASSERT_TRUE(log.WritePlan(MakePlan(1)).ok());
  ASSERT_TRUE(log.TruncateAfter(-1).ok());
  EXPECT_FALSE((*log.LatestPlannedEpoch()).has_value());
}

TEST_F(WalTest, OverwritingPlanIsAllowed) {
  // Recovery may redefine the last (uncommitted) epoch.
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  ASSERT_TRUE(log.WritePlan(MakePlan(1)).ok());
  EpochPlan changed = MakePlan(1);
  changed.sources[0].end = {1, 1};
  ASSERT_TRUE(log.WritePlan(changed).ok());
  auto read = log.ReadPlan(1);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(*read == changed);
}

TEST_F(WalTest, FromJsonRejectsMalformed) {
  EXPECT_FALSE(EpochPlan::FromJson(Json::Int(3)).ok());
  Json obj = Json::Object();
  obj.Set("epoch", Json::Int(1));
  EXPECT_FALSE(EpochPlan::FromJson(obj).ok());  // missing sources
}

TEST_F(WalTest, WatermarkPersists) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  EpochPlan plan = MakePlan(7);
  plan.watermark_micros = 123456789;
  ASSERT_TRUE(log.WritePlan(plan).ok());
  EXPECT_EQ(log.ReadPlan(7)->watermark_micros, 123456789);
  // Absent watermark round-trips as INT64_MIN.
  EpochPlan no_wm = MakePlan(8);
  no_wm.watermark_micros = INT64_MIN;
  ASSERT_TRUE(log.WritePlan(no_wm).ok());
  EXPECT_EQ(log.ReadPlan(8)->watermark_micros, INT64_MIN);
}

std::string EpochFile(int64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012lld.json",
                static_cast<long long>(epoch));
  return buf;
}

TEST_F(WalTest, RepairTornTailRemovesTornPlan) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  ASSERT_TRUE(log.WritePlan(MakePlan(1)).ok());
  ASSERT_TRUE(log.WriteCommit(1).ok());
  // Simulate a crash mid-write of plan 2: half a JSON document under the
  // final name (what a torn write leaves behind).
  ASSERT_TRUE(
      WriteFileAtomic(dir_ + "/offsets/" + EpochFile(2), "{\"epoch\": 2,")
          .ok());
  auto removed = log.RepairTornTail();
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(*removed, 1);
  EXPECT_EQ(log.LatestPlannedEpoch()->value_or(0), 1);
  ASSERT_TRUE(log.ReadPlan(1).ok());  // intact entries untouched
  EXPECT_EQ(*log.RepairTornTail(), 0);  // idempotent
}

TEST_F(WalTest, RepairTornTailRemovesTornCommit) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  ASSERT_TRUE(log.WritePlan(MakePlan(1)).ok());
  ASSERT_TRUE(log.WriteCommit(1).ok());
  ASSERT_TRUE(log.WritePlan(MakePlan(2)).ok());
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/commits/" + EpochFile(2), "{\"ep").ok());
  auto removed = log.RepairTornTail();
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1);
  EXPECT_TRUE(log.IsCommitted(1));
  EXPECT_FALSE(log.IsCommitted(2));  // epoch 2 back to planned-not-committed
  EXPECT_EQ(log.LatestPlannedEpoch()->value_or(0), 2);
}

TEST_F(WalTest, RepairTornTailRemovesMultipleTornEntries) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  ASSERT_TRUE(log.WritePlan(MakePlan(1)).ok());
  // Two garbage tail entries (e.g. torn write, crash, torn write again).
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/offsets/" + EpochFile(2), "junk").ok());
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/offsets/" + EpochFile(3), "").ok());
  auto removed = log.RepairTornTail();
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2);
  EXPECT_EQ(log.LatestPlannedEpoch()->value_or(0), 1);
}

TEST_F(WalTest, RepairTornTailLeavesMidLogCorruptionAlone) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  ASSERT_TRUE(log.WritePlan(MakePlan(1)).ok());
  ASSERT_TRUE(log.WritePlan(MakePlan(2)).ok());
  ASSERT_TRUE(log.WritePlan(MakePlan(3)).ok());
  // Corruption *behind* an intact tail cannot come from a torn tail write;
  // repair must refuse to mask it.
  ASSERT_TRUE(
      WriteFileAtomic(dir_ + "/offsets/" + EpochFile(2), "garbage").ok());
  EXPECT_EQ(*log.RepairTornTail(), 0);
  EXPECT_FALSE(log.ReadPlan(2).ok());  // still surfaces as an error
  ASSERT_TRUE(log.ReadPlan(3).ok());
}

// Only the zero-padded name the log writes is an entry. A stray ` 9.json`,
// `+9.json` or unpadded `9.json` once parsed as epoch 9:
// LatestCommittedEpoch() said 9 while IsCommitted(9) was false, and
// TruncateAfter(1) failed removing the padded name that did not exist.
TEST_F(WalTest, StrayEntryNamesAreNotEpochs) {
  auto log = WriteAheadLog::Open(dir_).TakeValue();
  ASSERT_TRUE(log.WritePlan(MakePlan(1)).ok());
  ASSERT_TRUE(log.WriteCommit(1).ok());
  const std::string plan = MakePlan(9).ToJson().Dump();
  for (const char* name : {" 9.json", "+9.json", "9.json", "00000000009.json",
                           "0000000000009.json", "000000000009.json.tmp"}) {
    ASSERT_TRUE(WriteFileAtomic(dir_ + "/offsets/" + name, plan).ok());
    ASSERT_TRUE(WriteFileAtomic(dir_ + "/commits/" + name, "{}").ok());
  }
  EXPECT_EQ(log.LatestPlannedEpoch()->value_or(0), 1);
  EXPECT_EQ(log.LatestCommittedEpoch()->value_or(0), 1);
  EXPECT_EQ(*log.ListPlannedEpochs(), std::vector<int64_t>{1});
  EXPECT_FALSE(log.IsCommitted(9));
  auto repaired = log.RepairTornTail();
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(*repaired, 0);
  Status truncated = log.TruncateAfter(1);
  EXPECT_TRUE(truncated.ok()) << truncated.ToString();
  EXPECT_TRUE(log.IsCommitted(1));
}

}  // namespace
}  // namespace sstreaming

#include "chaos_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <sstream>

#include "common/json.h"
#include "common/random.h"
#include "storage/fs.h"
#include "wal/write_ahead_log.h"

namespace sstreaming {
namespace {

/// One stable textual form of a run's observable output, for byte-identical
/// comparison across recovery replays.
std::string SerializeOutput(const ChaosHarness::RunResult& r) {
  std::ostringstream out;
  out << "last_epoch=" << r.last_epoch << "\n";
  for (const auto& [epoch, rows] : r.epochs) {
    out << "epoch " << epoch << "\n";
    for (const Row& row : rows) out << "  " << RowToString(row) << "\n";
  }
  out << "final\n";
  for (const Row& row : r.final_rows) out << "  " << RowToString(row) << "\n";
  return out.str();
}

class ChaosRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().DisarmAll(); }
};

TEST_F(ChaosRecoveryTest, FaultFreeBaseline) {
  ChaosHarness harness{ChaosHarness::Options{}};
  auto golden = harness.RunFaultFree();
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  EXPECT_EQ(golden.crashes, 0);
  EXPECT_GT(golden.last_epoch, 0);
  EXPECT_FALSE(golden.final_rows.empty());
  EXPECT_TRUE(golden.mismatched_epochs.empty());
  // The fault-free run must exercise every durability seam, or the sweep
  // below is vacuous.
  auto names = ChaosHarness::RegisteredFailpoints();
  for (const char* required :
       {"wal.plan.before_write", "wal.commit.before_write", "fs.write",
        "fs.rename", "state.commit.before_write", "sink.commit.before_apply",
        "source.get_batch"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "failpoint never registered: " << required;
  }
}

/// The tentpole sweep: every registered failpoint, crash on hit N for
/// N in {1,2,3}, restart from the checkpoint, and hold the paper's
/// exactly-once invariants against the fault-free run.
TEST_F(ChaosRecoveryTest, SweepEveryFailpoint) {
  ChaosHarness harness{ChaosHarness::Options{}};
  auto golden = harness.RunFaultFree();
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();

  auto names = ChaosHarness::RegisteredFailpoints();
  ASSERT_GE(names.size(), 15u) << "durability seams lost instrumentation";
  int scenarios = 0;
  int fired = 0;
  for (const std::string& name : names) {
    for (int hit = 1; hit <= 3; ++hit) {
      SCOPED_TRACE(name + "@" + std::to_string(hit));
      auto chaos = harness.RunWithFault(name, hit);
      Status verdict = ChaosHarness::CheckInvariants(golden, chaos);
      EXPECT_TRUE(verdict.ok())
          << name << "@" << hit << ": " << verdict.ToString()
          << " (crashes=" << chaos.crashes
          << " triggers=" << chaos.triggers << ")";
      ++scenarios;
      if (chaos.triggers > 0) ++fired;
    }
  }
  std::cout << "[ chaos ] " << scenarios << " scenarios, " << fired
            << " with an injected fault" << std::endl;
  // Most scenarios must actually inject something (recovery-only sites may
  // legitimately not fire at low hit counts).
  EXPECT_GE(fired * 2, scenarios);
}

/// Satellite: a torn plan write at the WAL tail must not brick the
/// checkpoint — replay truncates the torn entry, warns, and resumes.
TEST_F(ChaosRecoveryTest, TornWalTailIsRepairedOnRestart) {
  ChaosHarness harness{ChaosHarness::Options{}};
  auto golden = harness.RunFaultFree();
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  for (int hit = 1; hit <= 4; ++hit) {
    SCOPED_TRACE("fs.write.torn@" + std::to_string(hit));
    auto chaos = harness.RunWithFault("fs.write.torn", hit);
    EXPECT_GE(chaos.crashes, 1);
    Status verdict = ChaosHarness::CheckInvariants(golden, chaos);
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  }
}

/// Satellite: recovery is deterministic. Random (failpoint, hit) scenarios
/// under a fixed seed produce byte-identical output when run twice.
TEST_F(ChaosRecoveryTest, PropertyRecoveryIsDeterministic) {
  const uint64_t seed = 20260806;  // fixed: rerun with this seed to debug
  std::cout << "[ property ] seed=" << seed << std::endl;
  RecordProperty("seed", std::to_string(seed));

  ChaosHarness harness{ChaosHarness::Options{}};
  auto golden = harness.RunFaultFree();
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  auto names = ChaosHarness::RegisteredFailpoints();
  ASSERT_FALSE(names.empty());

  Random rng(seed);
  for (int trial = 0; trial < 8; ++trial) {
    const std::string& name = names[rng.Uniform(names.size())];
    int hit = 1 + static_cast<int>(rng.Uniform(4));
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + name + "@" +
                 std::to_string(hit) + " seed=" + std::to_string(seed));
    auto first = harness.RunWithFault(name, hit);
    auto second = harness.RunWithFault(name, hit);
    ASSERT_TRUE(first.status.ok()) << first.status.ToString();
    ASSERT_TRUE(second.status.ok()) << second.status.ToString();
    EXPECT_EQ(first.crashes, second.crashes);
    EXPECT_EQ(first.triggers, second.triggers);
    EXPECT_EQ(SerializeOutput(first), SerializeOutput(second));
    EXPECT_EQ(SerializeOutput(first), SerializeOutput(golden));
  }
}

/// Satellite: the per-shard durability seams. The stream-stream join
/// workload grows keyed state through the shard Append fast path, so all
/// three state.shard.* failpoints (checkpoint, restore, append) actually
/// fire; each is swept with crash-restart like the main sweep, and the
/// invariants prove a fault in one shard never corrupts or drops another
/// shard's state — recovery restores every shard to the committed epoch and
/// replayed output stays byte-identical.
TEST_F(ChaosRecoveryTest, ShardSeamSweepUnderJoinWorkload) {
  ChaosHarness::Options opts;
  opts.workload = ChaosHarness::Workload::kJoin;
  ChaosHarness harness{opts};
  auto golden = harness.RunFaultFree();
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  EXPECT_GT(golden.last_epoch, 0);
  EXPECT_FALSE(golden.final_rows.empty());

  auto names = ChaosHarness::RegisteredFailpoints();
  for (const char* seam :
       {"state.shard.checkpoint", "state.shard.restore",
        "state.shard.append"}) {
    ASSERT_NE(std::find(names.begin(), names.end(), seam), names.end())
        << "shard failpoint never registered: " << seam;
    int fired = 0;
    for (int hit = 1; hit <= 3; ++hit) {
      SCOPED_TRACE(std::string(seam) + "@" + std::to_string(hit));
      auto chaos = harness.RunWithFault(seam, hit);
      Status verdict = ChaosHarness::CheckInvariants(golden, chaos);
      EXPECT_TRUE(verdict.ok())
          << seam << "@" << hit << ": " << verdict.ToString()
          << " (crashes=" << chaos.crashes
          << " triggers=" << chaos.triggers << ")";
      if (chaos.triggers > 0) ++fired;
    }
    // Every shard seam must actually inject under this workload — with
    // 4 shards per store, early hits land mid-shard-group, so a crash
    // leaves some shards checkpointed ahead of the committed epoch and
    // recovery must heal the group.
    EXPECT_GT(fired, 0) << seam << " never fired under the join workload";
  }
}

/// The flatMapGroupsWithState workload under the same shard seams: keys
/// are created, rewritten and timed out behind the watermark, and a fault
/// in one shard's checkpoint or restore must leave every key's state and
/// deadline as the fault-free run has them.
TEST_F(ChaosRecoveryTest, ShardSeamSweepUnderMapGroupsWorkload) {
  ChaosHarness::Options opts;
  opts.workload = ChaosHarness::Workload::kMapGroups;
  ChaosHarness harness{opts};
  auto golden = harness.RunFaultFree();
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  EXPECT_GT(golden.last_epoch, 0);
  // Some key times out within the run.
  bool timed_out = false;
  for (const Row& row : golden.final_rows) {
    timed_out = timed_out || row[3] == Value::Bool(true);
  }
  EXPECT_TRUE(timed_out);

  for (const char* seam : {"state.shard.checkpoint", "state.shard.restore"}) {
    int fired = 0;
    for (int hit = 1; hit <= 3; ++hit) {
      SCOPED_TRACE(std::string(seam) + "@" + std::to_string(hit));
      auto chaos = harness.RunWithFault(seam, hit);
      Status verdict = ChaosHarness::CheckInvariants(golden, chaos);
      EXPECT_TRUE(verdict.ok())
          << seam << "@" << hit << ": " << verdict.ToString()
          << " (crashes=" << chaos.crashes
          << " triggers=" << chaos.triggers << ")";
      if (chaos.triggers > 0) ++fired;
    }
    EXPECT_GT(fired, 0) << seam << " never fired under the map workload";
  }
}

/// Satellite: the agg workload also sweeps the shard checkpoint/restore
/// seams at a different shard count (7, coprime with partitions and rounds)
/// so uneven shard layouts recover too.
TEST_F(ChaosRecoveryTest, ShardSeamsRecoverAtUnevenShardCount) {
  ChaosHarness::Options opts;
  opts.num_state_shards = 7;
  ChaosHarness harness{opts};
  auto golden = harness.RunFaultFree();
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  for (const char* seam : {"state.shard.checkpoint", "state.shard.restore"}) {
    for (int hit = 1; hit <= 3; ++hit) {
      SCOPED_TRACE(std::string(seam) + "@" + std::to_string(hit));
      auto chaos = harness.RunWithFault(seam, hit);
      Status verdict = ChaosHarness::CheckInvariants(golden, chaos);
      EXPECT_TRUE(verdict.ok())
          << seam << "@" << hit << ": " << verdict.ToString()
          << " (crashes=" << chaos.crashes
          << " triggers=" << chaos.triggers << ")";
    }
  }
}

/// A fault on the commit record is the classic §6.1 crash window: the epoch
/// executed and the sink saw the data, but the WAL never recorded the
/// commit. Exactly one crash, exactly one replay, no duplicate output.
TEST_F(ChaosRecoveryTest, WalCommitFaultCausesExactlyOneCrash) {
  ChaosHarness harness{ChaosHarness::Options{}};
  auto golden = harness.RunFaultFree();
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  auto chaos = harness.RunWithFault("wal.commit.before_write", 2);
  EXPECT_EQ(chaos.triggers, 1);
  EXPECT_EQ(chaos.crashes, 1);
  Status verdict = ChaosHarness::CheckInvariants(golden, chaos);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

}  // namespace
}  // namespace sstreaming

// Chaos sweep of the state-commit failpoints on a 4-thread pool. Each
// shard writes its version file in the fold task that finished it, so
// these failpoints fire on pool threads, in whichever shard's task reaches
// the Nth hit first, while other shards of the same epoch commit
// concurrently. Every crash must still recover to the fault-free output:
// no loss, no duplicate, every delivered epoch a prefix of the golden run,
// and each shard restoring the last checkpointed epoch.

#include <gtest/gtest.h>

#include <string>

#include "chaos_harness.h"

namespace sstreaming {
namespace {

class PoolChaosTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { Failpoints::Instance().DisarmAll(); }
};

TEST_P(PoolChaosTest, StateCommitFaultsRecoverOnPoolThreads) {
  ChaosHarness::Options opts;
  opts.pool_threads = 4;  // > 2 partitions: per-shard fold tasks
  opts.state_checkpoint_interval = GetParam();
  ChaosHarness harness{opts};
  auto golden = harness.RunFaultFree();
  ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
  ASSERT_GT(golden.last_epoch, 0);

  int fired = 0;
  for (const char* name :
       {"state.commit.before_write", "state.commit.after_write",
        "state.snapshot.before_write", "state.shard.checkpoint"}) {
    for (int hit = 1; hit <= 3; ++hit) {
      SCOPED_TRACE(std::string(name) + "@" + std::to_string(hit));
      // CheckInvariants covers prefix consistency, duplicate-free
      // re-delivery and lost epochs; the run's own status carries the
      // durable WAL/state agreement check.
      auto chaos = harness.RunWithFault(name, hit);
      Status verdict = ChaosHarness::CheckInvariants(golden, chaos);
      EXPECT_TRUE(verdict.ok())
          << name << "@" << hit << ": " << verdict.ToString()
          << " (crashes=" << chaos.crashes
          << " triggers=" << chaos.triggers << ")";
      if (chaos.triggers > 0) ++fired;
    }
  }
  EXPECT_GE(fired, 8) << "most state-commit faults must actually inject";
}

INSTANTIATE_TEST_SUITE_P(CheckpointIntervals, PoolChaosTest,
                         ::testing::Values(1, 3),
                         [](const auto& info) {
                           return "Interval" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sstreaming

#include "runtime/scheduler.h"

#include <algorithm>
#include <atomic>

#include <gtest/gtest.h>

#include "connectors/memory.h"
#include "exec/streaming_query.h"

namespace sstreaming {
namespace {

std::vector<std::function<Status()>> MakeTasks(int n,
                                               std::atomic<int>* counter) {
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back([counter]() -> Status {
      counter->fetch_add(1);
      return Status::OK();
    });
  }
  return tasks;
}

TEST(InlineSchedulerTest, RunsAllTasksInOrder) {
  InlineScheduler sched;
  std::vector<int> order;
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&order, i]() -> Status {
      order.push_back(i);
      return Status::OK();
    });
  }
  ASSERT_TRUE(sched.RunStage("s", std::move(tasks)).ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(InlineSchedulerTest, StopsOnError) {
  InlineScheduler sched;
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([&]() -> Status {
    ran.fetch_add(1);
    return Status::Internal("boom");
  });
  tasks.push_back([&]() -> Status {
    ran.fetch_add(1);
    return Status::OK();
  });
  EXPECT_FALSE(sched.RunStage("s", std::move(tasks)).ok());
  EXPECT_EQ(ran.load(), 1);
}

TEST(PoolSchedulerTest, RunsAllTasks) {
  PoolScheduler sched(4);
  std::atomic<int> counter{0};
  ASSERT_TRUE(sched.RunStage("s", MakeTasks(50, &counter)).ok());
  EXPECT_EQ(counter.load(), 50);
  // Stages are reusable.
  ASSERT_TRUE(sched.RunStage("s2", MakeTasks(10, &counter)).ok());
  EXPECT_EQ(counter.load(), 60);
}

TEST(PoolSchedulerTest, ReportsTaskError) {
  PoolScheduler sched(2);
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([]() -> Status { return Status::OK(); });
  tasks.push_back([]() -> Status { return Status::IOError("disk"); });
  Status s = sched.RunStage("s", std::move(tasks));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
}

TEST(SimClusterTest, VirtualTimeScalesWithCores) {
  // 32 equal tasks on 1 core vs 8 cores: virtual time ~8x smaller.
  auto run = [&](int nodes, int cores) {
    SimClusterScheduler::Options opts;
    opts.num_nodes = nodes;
    opts.cores_per_node = cores;
    opts.task_launch_overhead_nanos = 0;
    // Fixed per-task cost so the measured speedup reflects the list
    // scheduler, not the load on the (shared) test host.
    opts.fixed_task_duration_nanos = 1000000;
    SimClusterScheduler sched(opts);
    std::atomic<int> counter{0};
    std::vector<std::function<Status()>> tasks;
    for (int i = 0; i < 32; ++i) {
      tasks.push_back([&counter]() -> Status {
        counter.fetch_add(1);
        return Status::OK();
      });
    }
    EXPECT_TRUE(sched.RunStage("s", std::move(tasks)).ok());
    EXPECT_EQ(counter.load(), 32);
    return sched.virtual_nanos();
  };
  int64_t serial = run(1, 1);
  int64_t parallel = run(1, 8);
  EXPECT_GT(serial, 0);
  double speedup = static_cast<double>(serial) /
                   static_cast<double>(parallel);
  EXPECT_GT(speedup, 3.0) << "8 simulated cores should be ~8x faster";
  EXPECT_LT(speedup, 24.0);
}

TEST(SimClusterTest, TaskLaunchOverheadCharged) {
  SimClusterScheduler::Options opts;
  opts.num_nodes = 1;
  opts.cores_per_node = 1;
  opts.task_launch_overhead_nanos = 1000000;  // 1ms
  SimClusterScheduler sched(opts);
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([]() -> Status { return Status::OK(); });
  }
  ASSERT_TRUE(sched.RunStage("s", std::move(tasks)).ok());
  EXPECT_GE(sched.virtual_nanos(), 10 * 1000000);
}

TEST(SimClusterTest, StragglersSlowTheStage) {
  auto run = [&](double prob, bool speculation) {
    SimClusterScheduler::Options opts;
    opts.num_nodes = 2;
    opts.cores_per_node = 4;
    opts.task_launch_overhead_nanos = 0;
    opts.straggler_probability = prob;
    opts.straggler_factor = 10.0;
    opts.speculation = speculation;
    // Fixed per-task cost: the comparison below is about the *scheduling*
    // policies, and measured wall time under a loaded test host can vary
    // enough across scenarios to drown out the injected stragglers.
    opts.fixed_task_duration_nanos = 1000000;
    opts.seed = 7;
    SimClusterScheduler sched(opts);
    std::vector<std::function<Status()>> tasks;
    for (int i = 0; i < 64; ++i) {
      tasks.push_back([]() -> Status { return Status::OK(); });
    }
    EXPECT_TRUE(sched.RunStage("s", std::move(tasks)).ok());
    return sched;
  };
  auto clean = run(0.0, false);
  auto straggling = run(0.15, false);
  auto speculated = run(0.15, true);
  EXPECT_GT(straggling.stragglers_injected(), 0);
  EXPECT_GT(straggling.virtual_nanos(), clean.virtual_nanos());
  // Speculation recovers most of the loss (paper §6.2).
  EXPECT_LT(speculated.virtual_nanos(), straggling.virtual_nanos());
  EXPECT_GT(speculated.speculative_wins(), 0);
}

TEST(SimClusterTest, TaskFailuresAddRetryCost) {
  SimClusterScheduler::Options opts;
  opts.num_nodes = 1;
  opts.cores_per_node = 4;
  opts.task_failure_probability = 0.5;
  opts.seed = 3;
  SimClusterScheduler sched(opts);
  std::vector<std::function<Status()>> tasks;
  std::atomic<int> counter{0};
  for (int i = 0; i < 40; ++i) {
    tasks.push_back([&counter]() -> Status {
      counter.fetch_add(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(sched.RunStage("s", std::move(tasks)).ok());
  EXPECT_GT(sched.failures_injected(), 0);
  EXPECT_EQ(counter.load(), 40) << "results remain exact despite injection";
}

// An 8-core simulated cluster where every task costs a fixed 1 ms (+0.1 ms
// launch), so the virtual timeline does not depend on the host.
SimClusterScheduler::Options FixedCostCluster() {
  SimClusterScheduler::Options sim;
  sim.num_nodes = 1;
  sim.cores_per_node = 8;
  sim.task_launch_overhead_nanos = 100000;
  sim.fixed_task_duration_nanos = 1000000;
  return sim;
}

// Runs three epochs of a running count over 2 partitions and 4 state shards
// on `scheduler`; with more cores than partitions the aggregate runs all
// three of its stages ([eval], [split] and the per-shard fold). After each
// epoch, `per_epoch` receives the scheduler's virtual-time delta and the
// epoch's progress.
void RunSimulatedCount(
    SimClusterScheduler* scheduler,
    const std::function<void(int64_t, const QueryProgress&)>& per_epoch,
    std::unique_ptr<StreamingQuery>* query_out) {
  SchemaPtr schema = Schema::Make({{"country", TypeId::kString, false},
                                   {"latency", TypeId::kInt64, false},
                                   {"time", TypeId::kTimestamp, false}});
  auto stream = std::make_shared<MemoryStream>("clicks", schema, 2);
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 2;
  opts.num_state_shards = 4;
  opts.scheduler = scheduler;
  auto query = StreamingQuery::Start(df, std::make_shared<MemorySink>(), opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const char* countries[] = {"ca", "ny", "de", "fr", "jp"};
  for (int e = 0; e < 3; ++e) {
    std::vector<Row> rows;
    for (int i = 0; i <= e + 2; ++i) {
      rows.push_back({Value::Str(countries[i]), Value::Int64(i),
                      Value::Timestamp((e * 10 + i) * int64_t{1000000})});
    }
    ASSERT_TRUE(stream->AddData(rows).ok());
    const int64_t before = scheduler->virtual_nanos();
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    QueryProgress last;
    ASSERT_TRUE((*query)->GetLastProgress(&last));
    ASSERT_EQ(last.epoch, e + 1);
    per_epoch(scheduler->virtual_nanos() - before, last);
  }
  *query_out = std::move(*query);
}

// Every engine stage is submitted under the operator that owns it, so the
// operators' stage_nanos tile the simulated epoch exactly.
TEST(SimClusterTest, OperatorStageNanosSumToVirtualTime) {
  SimClusterScheduler scheduler(FixedCostCluster());
  std::unique_ptr<StreamingQuery> query;
  int epochs = 0;
  RunSimulatedCount(
      &scheduler,
      [&](int64_t virtual_delta, const QueryProgress& p) {
        ++epochs;
        int64_t stage_sum = 0;
        for (const OperatorProgress& op : p.operators) {
          stage_sum += op.stage_nanos;
        }
        EXPECT_GT(virtual_delta, 0) << "epoch " << p.epoch;
        EXPECT_EQ(stage_sum, virtual_delta) << "epoch " << p.epoch;
      },
      &query);
  EXPECT_EQ(epochs, 3);
}

// The shard-scaling bench's stateful share is the aggregate's stage time
// read from the plan profile. On this setup it is the value the scheduler's
// per-stage-name ledger gave for the "StatefulAggregate*" stages before it
// was deleted: 3 epochs x 3 stages x 1.1 ms of virtual time.
TEST(SimClusterTest, AggregateStageShareMatchesPinnedLedger) {
  SimClusterScheduler scheduler(FixedCostCluster());
  std::unique_ptr<StreamingQuery> query;
  RunSimulatedCount(&scheduler, [](int64_t, const QueryProgress&) {},
                    &query);
  ASSERT_NE(query, nullptr);
  int64_t aggregate_stage_nanos = 0;
  int aggregates = 0;
  for (const PlanProfile::Node& node : query->plan_profile().Snapshot()) {
    if (node.op.name != "StatefulAggregate") continue;
    ++aggregates;
    aggregate_stage_nanos += node.totals.stage_nanos;
  }
  EXPECT_EQ(aggregates, 1);
  EXPECT_EQ(aggregate_stage_nanos, 9900000);
}

}  // namespace
}  // namespace sstreaming

// Sharded keyed state: unit tests for ShardedStateStore's routing, sticky
// layout, and per-shard checkpointing, plus the differential equivalence
// battery — randomized stateful pipelines (windowed aggregation, dedup,
// stream-stream join, flatMapGroupsWithState) swept across shard counts
// {1, 2, 4, 7}, asserting the sink output is byte-identical to the 1-shard
// golden run per epoch, that merged state accounting agrees, and that both
// survive a crash-restart mid-run (docs/STATE_SHARDING.md). The in-task
// commit tests check that every shard writes its version file from the
// task that folded it, before the driver's checkpoint step.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "physical/phys_op.h"
#include "runtime/scheduler.h"
#include "state/sharded_state_store.h"
#include "storage/fs.h"
#include "testing/failpoints.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

class ShardedStateStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("sharded_state_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  std::string dir_;
};

/// The shard that owns `key`: the operators' routing rule.
StateStore* ShardFor(ShardedStateStore* store, const std::string& key) {
  return store->shard(ShardedStateStore::ShardOf(StateStore::HashKey(key),
                                                 store->num_shards()));
}

/// Live entries over all shards.
int64_t Rows(const ShardedStateStore& store) {
  int64_t rows = 0;
  for (int s = 0; s < store.num_shards(); ++s) rows += store.shard(s)->size();
  return rows;
}

TEST_F(ShardedStateStoreTest, StableHashIsFixedForever) {
  // The hash routes durable keys to shard directories; changing it would
  // orphan existing checkpoints. These are the published FNV-1a 64 vectors.
  EXPECT_EQ(StateStore::HashKey(""), 14695981039346656037ull);
  EXPECT_EQ(StateStore::HashKey("abc"), 0xe71fa2190541574bull);
}

TEST_F(ShardedStateStoreTest, RoutesAcrossShardsAndAggregatesAccounting) {
  ShardedStateStore::Options opts;
  opts.num_shards = 4;
  StateManager manager(dir_, 0, opts);
  ShardedStateStore* store = manager.GetStore(3, 0).TakeValue();
  ASSERT_EQ(store->num_shards(), 4);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key" + std::to_string(i);
    ShardFor(store, key)->Put(key, "value" + std::to_string(i));
  }
  EXPECT_EQ(Rows(*store), 100);
  EXPECT_EQ(manager.TotalEntries(), 100);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::string* v = ShardFor(store, key)->Get(key);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
  // 100 uniform keys should spread over all 4 shards, and the manager's
  // per-shard sizes must be the shards' own accounting exactly.
  auto sizes = manager.PerOpShardSizes();
  ASSERT_EQ(sizes.size(), 1u);
  ASSERT_EQ(sizes[3].size(), 4u);
  int64_t rows = 0;
  for (int s = 0; s < 4; ++s) {
    const StateManager::OpStateSize& size = sizes[3][static_cast<size_t>(s)];
    EXPECT_GT(size.rows, 0);
    EXPECT_EQ(size.rows, store->shard(s)->size());
    EXPECT_EQ(size.bytes, store->shard(s)->ApproxBytes());
    rows += size.rows;
  }
  EXPECT_EQ(rows, 100);
  // Each key lives in exactly one shard: the shards' entries add up to the
  // 100 keys.
  int64_t visited = 0;
  for (int s = 0; s < store->num_shards(); ++s) {
    store->shard(s)->ForEach(
        [&](const std::string&, const std::string&, uint32_t) { ++visited; });
  }
  EXPECT_EQ(visited, 100);
}

TEST_F(ShardedStateStoreTest, ShardCountIsStickyAcrossReopen) {
  ShardedStateStore::Options two;
  two.num_shards = 2;
  {
    auto store = ShardedStateStore::Open(dir_, 0, two).TakeValue();
    for (int i = 0; i < 20; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      ShardFor(store.get(), key)->Put(key, "v");
    }
    ASSERT_TRUE(store->Commit(1).ok());
  }
  // Asking for 8 shards on an existing 2-shard layout is an SS3004 error by
  // default: keys are already routed by hash % 2 on disk.
  ShardedStateStore::Options eight;
  eight.num_shards = 8;
  auto blocked = ShardedStateStore::Open(dir_, 1, eight);
  ASSERT_FALSE(blocked.ok());
  EXPECT_NE(blocked.status().message().find("SS3004"), std::string::npos)
      << blocked.status().ToString();
  // Under the migration override the on-disk count is adopted (sticky).
  eight.allow_shard_count_mismatch = true;
  auto store = ShardedStateStore::Open(dir_, 1, eight).TakeValue();
  EXPECT_EQ(store->num_shards(), 2);
  EXPECT_EQ(Rows(*store), 20);
  EXPECT_EQ(store->loaded_version(), 1);
}

TEST_F(ShardedStateStoreTest, CorruptShardCountIsIOError) {
  // SHARDS holds a positive decimal count and nothing else (one trailing
  // newline): a count with trailing text, a sign, no digits or an overflow
  // is corrupt, never a guess at the layout.
  for (const char* meta : {"4x", "-3", "", "99999999999", "+4", " 4", "0"}) {
    SCOPED_TRACE(std::string("SHARDS=\"") + meta + "\"");
    RemoveDirRecursive(dir_).ok();
    ASSERT_TRUE(EnsureDir(dir_).ok());
    ASSERT_TRUE(WriteFileAtomic(dir_ + "/SHARDS", meta).ok());
    ShardedStateStore::Options opts;
    opts.num_shards = 4;
    opts.allow_shard_count_mismatch = true;
    auto store = ShardedStateStore::Open(dir_, 0, opts);
    ASSERT_FALSE(store.ok());
    EXPECT_TRUE(store.status().IsIOError()) << store.status().ToString();
  }
  for (const char* meta : {"4", "4\n"}) {
    RemoveDirRecursive(dir_).ok();
    ASSERT_TRUE(EnsureDir(dir_).ok());
    ASSERT_TRUE(WriteFileAtomic(dir_ + "/SHARDS", meta).ok());
    auto store = ShardedStateStore::Open(dir_, 0);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->num_shards(), 4);
  }
}

TEST_F(ShardedStateStoreTest, StrayNamesAreNotShardsOrVersions) {
  // Shard directories are `s<digits>` and version files `<digits>.delta` /
  // `<digits>.snapshot`; a loosely parsed ` 5.delta` or `+5.delta` would be
  // read as version 5, and `s1x` as shard 1.
  ShardedStateStore::Options opts;
  opts.num_shards = 2;
  {
    auto store = ShardedStateStore::Open(dir_, 0, opts).TakeValue();
    ShardFor(store.get(), "a")->Put("a", "1");
    ASSERT_TRUE(store->Commit(1).ok());
  }
  for (int s = 0; s < 2; ++s) {
    const std::string shard = dir_ + "/s" + std::to_string(s);
    for (const char* name :
         {" 5.delta", "+5.delta", "5x.delta", "-5.snapshot"}) {
      ASSERT_TRUE(WriteFileAtomic(shard + "/" + name, "garbage").ok());
    }
  }
  ASSERT_TRUE(EnsureDir(dir_ + "/s1x").ok());
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/s1x/2.delta", "garbage").ok());
  auto store = ShardedStateStore::Open(dir_, 9, opts).TakeValue();
  EXPECT_EQ(store->loaded_version(), 1);
  EXPECT_EQ(*ShardFor(store.get(), "a")->Get("a"), "1");
  // Rollback and purge walk only the real shards and versions.
  ASSERT_TRUE(ShardedStateStore::TruncateAfter(dir_, 0).ok());
  ASSERT_TRUE(ShardedStateStore::PurgeBefore(dir_, 1).ok());
  EXPECT_TRUE(FileExists(dir_ + "/s1x/2.delta"));
  EXPECT_TRUE(FileExists(dir_ + "/s0/+5.delta"));
  EXPECT_EQ(ShardedStateStore::Open(dir_, 9, opts).TakeValue()
                ->loaded_version(),
            0);
}

TEST_F(ShardedStateStoreTest, ShardsCheckpointAndRestoreIndependently) {
  ShardedStateStore::Options opts;
  opts.num_shards = 3;
  {
    auto store = ShardedStateStore::Open(dir_, 0, opts).TakeValue();
    ShardFor(store.get(), "a")->Put("a", "1");
    ShardFor(store.get(), "b")->Put("b", "2");
    ShardFor(store.get(), "c")->Put("c", "3");
    ASSERT_TRUE(store->Commit(5).ok());
    ShardFor(store.get(), "d")->Put("d", "4");
    ASSERT_TRUE(store->Commit(6).ok());
  }
  // Each shard has its own directory with its own version files.
  for (int s = 0; s < 3; ++s) {
    EXPECT_TRUE(FileExists(dir_ + "/s" + std::to_string(s)));
  }
  // Restoring at 5 must not see the v6 write in any shard.
  auto v5 = ShardedStateStore::Open(dir_, 5, opts).TakeValue();
  EXPECT_EQ(Rows(*v5), 3);
  EXPECT_EQ(ShardFor(v5.get(), "d")->Get("d"), nullptr);
  EXPECT_EQ(v5->loaded_version(), 5);
  for (int s = 0; s < v5->num_shards(); ++s) {
    EXPECT_EQ(v5->shard(s)->loaded_version(), 5);
  }
  auto v6 = ShardedStateStore::Open(dir_, 6, opts).TakeValue();
  EXPECT_EQ(Rows(*v6), 4);
  EXPECT_NE(ShardFor(v6.get(), "d")->Get("d"), nullptr);
}

TEST_F(ShardedStateStoreTest, TruncateAfterWalksShardDirs) {
  ShardedStateStore::Options opts;
  opts.num_shards = 2;
  {
    auto store = ShardedStateStore::Open(dir_, 0, opts).TakeValue();
    ShardFor(store.get(), "a")->Put("a", "1");
    ASSERT_TRUE(store->Commit(1).ok());
    ShardFor(store.get(), "b")->Put("b", "2");
    ASSERT_TRUE(store->Commit(2).ok());
    ShardFor(store.get(), "c")->Put("c", "3");
    ASSERT_TRUE(store->Commit(3).ok());
  }
  ASSERT_TRUE(ShardedStateStore::TruncateAfter(dir_, 2).ok());
  auto store = ShardedStateStore::Open(dir_, 3, opts).TakeValue();
  EXPECT_EQ(store->loaded_version(), 2) << "v3 files must be gone";
  EXPECT_EQ(Rows(*store), 2);
}

// ---------------------------------------------------------------------------
// Differential equivalence battery.
// ---------------------------------------------------------------------------

/// Records each epoch's delivery, sorted and in arrival order, while
/// delegating table semantics to MemorySink, so runs at different shard
/// counts can be compared epoch by epoch, byte for byte, and runs at the
/// same shard count row for row in order.
class EpochRecordingSink : public Sink {
 public:
  bool SupportsMode(OutputMode mode) const override {
    return inner_.SupportsMode(mode);
  }
  Status CommitEpoch(int64_t epoch, OutputMode mode, int num_key_columns,
                     const std::vector<RecordBatchPtr>& batches) override {
    SS_RETURN_IF_ERROR(
        inner_.CommitEpoch(epoch, mode, num_key_columns, batches));
    std::vector<Row> rows;
    for (const auto& b : batches) {
      auto brows = b->ToRows();
      rows.insert(rows.end(), brows.begin(), brows.end());
    }
    arrivals_[epoch] = rows;
    std::sort(rows.begin(), rows.end(), RowLess());
    auto it = epochs_.find(epoch);
    if (it != epochs_.end() && it->second != rows) {
      // Recovery replay re-committed this epoch with different rows —
      // re-commits must be byte-identical for idempotent sinks to work.
      ++redelivery_mismatches_;
    }
    epochs_[epoch] = std::move(rows);
    return Status::OK();
  }
  std::vector<Row> SortedSnapshot() const { return inner_.SortedSnapshot(); }
  const std::map<int64_t, std::vector<Row>>& epochs() const { return epochs_; }
  const std::map<int64_t, std::vector<Row>>& arrivals() const {
    return arrivals_;
  }
  int64_t redelivery_mismatches() const { return redelivery_mismatches_; }

 private:
  MemorySink inner_;
  std::map<int64_t, std::vector<Row>> epochs_;    // sorted
  std::map<int64_t, std::vector<Row>> arrivals_;  // as delivered
  int64_t redelivery_mismatches_ = 0;
};

enum class Pipeline { kWindowedAgg, kDedup, kJoin, kMapGroups };

struct DifferentialRun {
  std::map<int64_t, std::vector<Row>> epochs;    // sorted per epoch
  std::map<int64_t, std::vector<Row>> arrivals;  // delivery order per epoch
  std::vector<Row> final_rows;
  int64_t state_rows = 0;   // summed over stateful operators
  int64_t state_bytes = 0;
};

SchemaPtr LeftSchema() {
  return Schema::Make({{"k", TypeId::kString, false},
                       {"v", TypeId::kInt64, false},
                       {"time", TypeId::kTimestamp, false}});
}

SchemaPtr RightSchema() {
  return Schema::Make({{"k", TypeId::kString, false},
                       {"rv", TypeId::kInt64, false},
                       {"rtime", TypeId::kTimestamp, false}});
}

/// Deterministic per-round workload, identical across shard counts. Small
/// key domain so keys recur (state updates + dedup hits + join matches);
/// event time advances so windows close and join state evicts.
std::vector<Row> MakeRound(Random* rng, int round, int rows) {
  static const char* kKeys[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                                "zeta", "eta", "theta"};
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    int64_t sec = round * 6 + static_cast<int64_t>(rng->Uniform(8));
    out.push_back({Value::Str(kKeys[rng->Uniform(8)]),
                   Value::Int64(static_cast<int64_t>(rng->Uniform(50))),
                   Value::Timestamp(sec * kSec)});
  }
  return out;
}

/// Update function of the kMapGroups pipeline: count and sum of v per key,
/// emitted on every invocation, with an event-time timeout 3 s after the
/// key's latest event; a timed-out key emits its totals once and drops its
/// state. Pure, so it may run concurrently for different keys.
GroupUpdateFn CountUntilIdle() {
  return [](const Row& key, const std::vector<Row>& values,
            GroupState* state) -> Result<std::vector<Row>> {
    int64_t n = state->exists() ? state->get()[0].int64_value() : 0;
    int64_t total = state->exists() ? state->get()[1].int64_value() : 0;
    if (state->HasTimedOut()) {
      state->remove();
      return std::vector<Row>{{key[0], Value::Int64(n), Value::Int64(total),
                               Value::Bool(true)}};
    }
    int64_t latest = INT64_MIN;
    for (const Row& v : values) {
      ++n;
      total += v[1].int64_value();
      latest = std::max(latest, v[2].int64_value());
    }
    state->update({Value::Int64(n), Value::Int64(total)});
    state->SetTimeoutTimestamp(latest + 3 * kSec);
    return std::vector<Row>{{key[0], Value::Int64(n), Value::Int64(total),
                             Value::Bool(false)}};
  };
}

/// The query of `pipeline` over `left` (and, for the join, a second stream
/// it creates in `*right`), with the output mode it runs in.
DataFrame MakePipeline(Pipeline pipeline,
                       const std::shared_ptr<MemoryStream>& left,
                       std::shared_ptr<MemoryStream>* right,
                       OutputMode* mode) {
  DataFrame df = DataFrame::ReadStream(left);
  switch (pipeline) {
    case Pipeline::kWindowedAgg:
      *mode = OutputMode::kUpdate;
      return df.WithWatermark("time", 5 * kSec)
          .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "w"),
                    NamedExpr{Col("k"), "k"}})
          .Agg({SumOf(Col("v"), "total")});
    case Pipeline::kDedup:
      *mode = OutputMode::kAppend;
      return df.SelectColumns({"k", "v"}).Distinct();
    case Pipeline::kJoin:
      *mode = OutputMode::kAppend;
      *right = std::make_shared<MemoryStream>("right", RightSchema(), 2);
      return df.WithWatermark("time", 5 * kSec)
          .Join(DataFrame::ReadStream(*right).WithWatermark("rtime",
                                                            5 * kSec),
                {"k"});
    case Pipeline::kMapGroups:
      *mode = OutputMode::kUpdate;
      return df.WithWatermark("time", 5 * kSec)
          .GroupByKey({As(Col("k"), "k")})
          .FlatMapGroupsWithState(
              CountUntilIdle(),
              Schema::Make({{"k", TypeId::kString, false},
                            {"n", TypeId::kInt64, false},
                            {"total", TypeId::kInt64, false},
                            {"timed_out", TypeId::kBool, false}}),
              GroupStateTimeout::kEventTime);
  }
  return df;
}

DifferentialRun RunPipeline(Pipeline pipeline, int num_shards, uint64_t seed,
                            bool restart_midway,
                            TaskScheduler* scheduler = nullptr) {
  DifferentialRun result;
  auto dir = MakeTempDir("sharded_diff");
  EXPECT_TRUE(dir.ok());

  auto left = std::make_shared<MemoryStream>("left", LeftSchema(), 2);
  std::shared_ptr<MemoryStream> right;
  OutputMode mode = OutputMode::kAppend;
  DataFrame df = MakePipeline(pipeline, left, &right, &mode);

  auto sink = std::make_shared<EpochRecordingSink>();
  QueryOptions opts;
  opts.mode = mode;
  opts.num_partitions = 2;
  opts.checkpoint_dir = *dir;
  opts.num_state_shards = num_shards;
  // Sparse checkpoints force the restart below to restore shards AND replay
  // the tail epochs from the WAL — recovery goes through both paths.
  opts.state_checkpoint_interval = 2;
  opts.enable_tracing = false;
  if (scheduler != nullptr) opts.scheduler = scheduler;

  auto query = StreamingQuery::Start(df, sink, opts);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (!query.ok()) return result;

  Random left_rng(seed);
  Random right_rng(seed + 1);
  const int kRounds = 6;
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(left->AddData(MakeRound(&left_rng, r, 10)).ok());
    if (right != nullptr) {
      // The right stream reuses the 3-column generator; rename is free
      // because MemoryStream only checks arity/types.
      EXPECT_TRUE(right->AddData(MakeRound(&right_rng, r, 10)).ok());
    }
    EXPECT_TRUE((*query)->ProcessAllAvailable().ok());
    if (restart_midway && r == 2) {
      // Simulated crash after three rounds: drop the query, recover from
      // the checkpoint (shards restore independently; epochs past the last
      // interval checkpoint replay from the WAL).
      query->reset();
      query = StreamingQuery::Start(df, sink, opts);
      EXPECT_TRUE(query.ok()) << query.status().ToString();
      if (!query.ok()) return result;
    }
  }

  QueryProgress last;
  EXPECT_TRUE((*query)->GetLastProgress(&last));
  for (const OperatorProgress& op : last.operators) {
    result.state_rows += op.state_rows;
    result.state_bytes += op.state_bytes;
    // Merged accounting: per-shard sizes must sum to the operator totals,
    // and the shard vector must match the configured shard count.
    if (!op.shard_state.empty()) {
      EXPECT_EQ(op.shard_state.size(), static_cast<size_t>(num_shards));
      int64_t rows = 0, bytes = 0;
      for (const auto& [r, b] : op.shard_state) {
        rows += r;
        bytes += b;
      }
      EXPECT_EQ(rows, op.state_rows) << op.name;
      EXPECT_EQ(bytes, op.state_bytes) << op.name;
    }
  }
  EXPECT_EQ(sink->redelivery_mismatches(), 0)
      << "recovery replay re-committed an epoch with different rows";
  result.epochs = sink->epochs();
  result.arrivals = sink->arrivals();
  result.final_rows = sink->SortedSnapshot();
  query->reset();
  RemoveDirRecursive(*dir).ok();
  return result;
}

void ExpectEquivalent(const DifferentialRun& golden,
                      const DifferentialRun& sharded, int num_shards) {
  SCOPED_TRACE("shards=" + std::to_string(num_shards));
  ASSERT_EQ(sharded.epochs.size(), golden.epochs.size());
  for (const auto& [epoch, golden_rows] : golden.epochs) {
    auto it = sharded.epochs.find(epoch);
    ASSERT_NE(it, sharded.epochs.end()) << "missing epoch " << epoch;
    EXPECT_EQ(it->second, golden_rows) << "epoch " << epoch << " diverged";
  }
  EXPECT_EQ(sharded.final_rows, golden.final_rows);
  // Merged state accounting equals the single-shard run's.
  EXPECT_EQ(sharded.state_rows, golden.state_rows);
  EXPECT_EQ(sharded.state_bytes, golden.state_bytes);
}

class ShardedDifferentialTest
    : public ::testing::TestWithParam<Pipeline> {};

TEST_P(ShardedDifferentialTest, OutputIsByteIdenticalAcrossShardCounts) {
  DifferentialRun golden = RunPipeline(GetParam(), 1, 20260808, false);
  ASSERT_FALSE(golden.epochs.empty());
  for (int shards : {2, 4, 7}) {
    DifferentialRun run = RunPipeline(GetParam(), shards, 20260808, false);
    ExpectEquivalent(golden, run, shards);
  }
}

TEST_P(ShardedDifferentialTest, StagedPathMatchesFusedGolden) {
  // Every stateful operator runs on one keyed-shard driver with two task
  // grains: inline (one task per partition folds every shard) when
  // partition parallelism covers the scheduler, as in the golden below,
  // and split (a [split] stage, then one fold task per shard) when spare
  // cores make per-shard tasks worthwhile. A pool scheduler wider than the
  // partition count forces the split grain, with real cross-thread
  // execution, and the output must still be byte-identical to the inline
  // golden. At the same shard count the rows must also arrive in the same
  // order: both grains fold each shard's rows in input order and merge
  // shard outputs in shard-index order.
  DifferentialRun golden = RunPipeline(GetParam(), 4, 20260810, false);
  ASSERT_FALSE(golden.epochs.empty());
  for (int shards : {1, 4, 7}) {
    PoolScheduler pool(8);  // parallelism 8 > 2 partitions -> split grain
    DifferentialRun run = RunPipeline(GetParam(), shards, 20260810, false,
                                      &pool);
    if (shards == 4) {
      ExpectEquivalent(golden, run, shards);
      ASSERT_EQ(run.arrivals.size(), golden.arrivals.size());
      for (const auto& [epoch, rows] : golden.arrivals) {
        auto it = run.arrivals.find(epoch);
        ASSERT_NE(it, run.arrivals.end()) << "missing epoch " << epoch;
        EXPECT_EQ(it->second, rows)
            << "epoch " << epoch << " arrived in a different order";
      }
    } else {
      // Different shard counts change the accounting vector but never the
      // rows.
      SCOPED_TRACE("shards=" + std::to_string(shards));
      ASSERT_EQ(run.epochs.size(), golden.epochs.size());
      for (const auto& [epoch, rows] : golden.epochs) {
        auto it = run.epochs.find(epoch);
        ASSERT_NE(it, run.epochs.end()) << "missing epoch " << epoch;
        EXPECT_EQ(it->second, rows) << "epoch " << epoch << " diverged";
      }
      EXPECT_EQ(run.final_rows, golden.final_rows);
      EXPECT_EQ(run.state_rows, golden.state_rows);
      EXPECT_EQ(run.state_bytes, golden.state_bytes);
    }
  }
}

TEST_P(ShardedDifferentialTest, EquivalenceHoldsAcrossRestartRecovery) {
  // Golden run has no restart; sharded runs crash after round 3 and recover
  // (restoring shards independently, replaying the interval tail) — the
  // outputs must still match epoch for epoch.
  DifferentialRun golden = RunPipeline(GetParam(), 1, 20260809, false);
  ASSERT_FALSE(golden.epochs.empty());
  for (int shards : {1, 2, 4, 7}) {
    DifferentialRun run = RunPipeline(GetParam(), shards, 20260809, true);
    ExpectEquivalent(golden, run, shards);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, ShardedDifferentialTest,
                         ::testing::Values(Pipeline::kWindowedAgg,
                                           Pipeline::kDedup, Pipeline::kJoin,
                                           Pipeline::kMapGroups),
                         [](const auto& info) {
                           switch (info.param) {
                             case Pipeline::kWindowedAgg: return "WindowedAgg";
                             case Pipeline::kDedup: return "Dedup";
                             case Pipeline::kJoin: return "Join";
                             case Pipeline::kMapGroups: return "MapGroups";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// In-task state commits.
// ---------------------------------------------------------------------------

/// Every shard directory (op<N>/p<M>/s<K>) under a checkpoint's state root,
/// with the versions of the state files it holds.
std::map<std::string, std::set<int64_t>> ShardVersions(
    const std::string& state_root) {
  namespace fs = std::filesystem;
  std::map<std::string, std::set<int64_t>> out;
  std::error_code ec;
  for (const auto& op : fs::directory_iterator(state_root, ec)) {
    if (!op.is_directory()) continue;
    for (const auto& part : fs::directory_iterator(op.path(), ec)) {
      if (!part.is_directory()) continue;
      for (const auto& shard : fs::directory_iterator(part.path(), ec)) {
        if (!shard.is_directory()) continue;
        std::set<int64_t>& versions = out[shard.path().string()];
        for (const auto& file : fs::directory_iterator(shard.path(), ec)) {
          const std::string ext = file.path().extension().string();
          if (ext != ".delta" && ext != ".snapshot") continue;
          versions.insert(std::stoll(file.path().stem().string()));
        }
      }
    }
  }
  return out;
}

class InTaskCommitTest
    : public ::testing::TestWithParam<std::tuple<Pipeline, bool>> {
 protected:
  void TearDown() override { Failpoints::Instance().DisarmAll(); }
};

TEST_P(InTaskCommitTest, EveryShardWritesItsVersionBeforeTheDriver) {
  // epoch.before_checkpoint fires right after execution, before the
  // driver's checkpoint step: with it armed to fail, whatever state files
  // the epoch left on disk were written by the fold tasks. Each epoch runs
  // into that failure, the files are checked, and a restart replays the
  // epoch (rewriting its files) and commits it.
  const auto [pipeline, use_pool] = GetParam();
  PoolScheduler pool(4);  // 4 cores > 2 partitions: the split grain
  auto dir = MakeTempDir("in_task_commit");
  ASSERT_TRUE(dir.ok());
  auto left = std::make_shared<MemoryStream>("left", LeftSchema(), 2);
  std::shared_ptr<MemoryStream> right;
  OutputMode mode = OutputMode::kAppend;
  DataFrame df = MakePipeline(pipeline, left, &right, &mode);
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = mode;
  opts.num_partitions = 2;
  opts.checkpoint_dir = *dir;
  opts.num_state_shards = 4;
  opts.state_checkpoint_interval = 3;
  opts.enable_tracing = false;
  if (use_pool) opts.scheduler = &pool;

  constexpr int kInterval = 3;
  Random rng(20261017);
  for (int epoch = 1; epoch <= 7; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    // Odd epochs carry one key, so one partition and most shards get no
    // rows; they must still write their version files.
    std::vector<Row> rows = MakeRound(&rng, epoch, 8);
    if (epoch % 2 == 1) {
      for (Row& row : rows) row[0] = Value::Str("alpha");
    }
    ASSERT_TRUE(left->AddData(rows).ok());
    if (right != nullptr) {
      ASSERT_TRUE(right->AddData(rows).ok());
    }

    auto query = StreamingQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    FailpointSpec fail;
    fail.sticky = true;
    ASSERT_TRUE(Failpoints::Instance().Arm("epoch.before_checkpoint", fail)
                    .ok());
    Status st = (*query)->ProcessAllAvailable();
    ASSERT_TRUE(Failpoints::IsInjected(st)) << st.ToString();
    query->reset();
    Failpoints::Instance().DisarmAll();

    const auto shards = ShardVersions(*dir + "/state");
    ASSERT_EQ(shards.size(), 8u) << "one store per partition, four shards";
    std::set<int64_t> expected;
    for (int64_t v = kInterval; v <= epoch; v += kInterval) expected.insert(v);
    for (const auto& [shard_dir, versions] : shards) {
      EXPECT_EQ(versions, expected) << shard_dir;
    }

    auto replay = StreamingQuery::Start(df, sink, opts);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    ASSERT_TRUE((*replay)->ProcessAllAvailable().ok());
    EXPECT_EQ((*replay)->last_epoch(), epoch);
  }
  RemoveDirRecursive(*dir).ok();
}

INSTANTIATE_TEST_SUITE_P(
    AllPipelinesBothGrains, InTaskCommitTest,
    ::testing::Combine(::testing::Values(Pipeline::kWindowedAgg,
                                         Pipeline::kDedup, Pipeline::kJoin,
                                         Pipeline::kMapGroups),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case Pipeline::kWindowedAgg: name = "WindowedAgg"; break;
        case Pipeline::kDedup: name = "Dedup"; break;
        case Pipeline::kJoin: name = "Join"; break;
        case Pipeline::kMapGroups: name = "MapGroups"; break;
      }
      return name + (std::get<1>(info.param) ? "Pool4" : "Inline");
    });

TEST(InTaskCommitMetricsTest, CheckpointCountersStayExact) {
  // One commit-latency sample per shard snapshot, written by the fold
  // tasks; the driver still counts one commit per checkpoint epoch, and
  // the bytes counter and entries gauge match the stores.
  PoolScheduler pool(4);
  auto dir = MakeTempDir("in_task_commit_metrics");
  ASSERT_TRUE(dir.ok());
  auto left = std::make_shared<MemoryStream>("left", LeftSchema(), 2);
  std::shared_ptr<MemoryStream> right;
  OutputMode mode = OutputMode::kAppend;
  DataFrame df = MakePipeline(Pipeline::kWindowedAgg, left, &right, &mode);
  QueryOptions opts;
  opts.mode = mode;
  opts.num_partitions = 2;
  opts.checkpoint_dir = *dir;
  opts.num_state_shards = 4;
  opts.state_checkpoint_interval = 3;
  opts.enable_tracing = false;
  opts.scheduler = &pool;
  auto query =
      StreamingQuery::Start(df, std::make_shared<MemorySink>(), opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  Random rng(7);
  for (int epoch = 1; epoch <= 6; ++epoch) {
    ASSERT_TRUE(left->AddData(MakeRound(&rng, epoch, 12)).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  }
  ASSERT_EQ((*query)->last_epoch(), 6);
  MetricsRegistry& m = *(*query)->metrics();
  const StateManager& state = (*query)->state();
  EXPECT_EQ(m.GetHistogram("sstreaming_state_commit_nanos")->count(),
            2 * 2 * 4)  // epochs 3 and 6 x 2 partitions x 4 shards
      << "every shard snapshot is timed in its task";
  EXPECT_EQ(m.GetCounter("sstreaming_state_commits_total")->value(), 2);
  EXPECT_EQ(m.GetCounter("sstreaming_state_checkpoint_bytes_total")->value(),
            state.TotalBytesWritten());
  EXPECT_GT(state.TotalBytesWritten(), 0);
  EXPECT_EQ(m.GetGauge("sstreaming_state_entries")->value(),
            state.TotalEntries());
  query->reset();
  RemoveDirRecursive(*dir).ok();
}

}  // namespace
}  // namespace sstreaming

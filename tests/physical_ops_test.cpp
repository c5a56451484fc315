#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "common/random.h"
#include "connectors/memory.h"
#include "incremental/incrementalizer.h"
#include "logical/dataframe.h"
#include "optimizer/optimizer.h"
#include "physical/fused_pipeline.h"
#include "physical/operators.h"
#include "runtime/scheduler.h"

namespace sstreaming {
namespace {

SchemaPtr EventSchema() {
  return Schema::Make({{"k", TypeId::kInt64, false},
                       {"s", TypeId::kString, true},
                       {"v", TypeId::kFloat64, true}});
}

RecordBatchPtr RandomBatch(int64_t n, uint64_t seed) {
  Random rng(seed);
  ColumnPtr k = Column::Make(TypeId::kInt64);
  ColumnPtr s = Column::Make(TypeId::kString);
  ColumnPtr v = Column::Make(TypeId::kFloat64);
  for (int64_t i = 0; i < n; ++i) {
    k->AppendInt64(static_cast<int64_t>(rng.Uniform(50)));
    if (rng.OneIn(0.1)) {
      s->AppendNull();
    } else {
      // std::string("s") rather than "s": gcc 12's -Wrestrict false-fires
      // on operator+(const char*, string&&) under -O2 (PR 105329).
      s->AppendString(std::string("s") + std::to_string(rng.Uniform(10)));
    }
    if (rng.OneIn(0.1)) {
      v->AppendNull();
    } else {
      v->AppendFloat64(rng.NextDouble());
    }
  }
  return RecordBatch::Make(EventSchema(), {k, s, v});
}

TEST(GatherTest, PreservesRowsInOrder) {
  RecordBatchPtr batch = RandomBatch(100, 1);
  std::vector<int32_t> indices = {5, 0, 99, 50, 5};
  RecordBatchPtr out = batch->Gather(indices);
  ASSERT_EQ(out->num_rows(), 5);
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(CompareRows(out->RowAt(static_cast<int64_t>(i)),
                          batch->RowAt(indices[i])),
              0);
  }
}

TEST(GatherTest, EmptyIndices) {
  RecordBatchPtr batch = RandomBatch(10, 2);
  EXPECT_EQ(batch->Gather({})->num_rows(), 0);
}

TEST(ColumnCodecTest, EncodeValueToMatchesBoxedEncoding) {
  RecordBatchPtr batch = RandomBatch(200, 3);
  for (int c = 0; c < batch->num_columns(); ++c) {
    const Column& col = *batch->column(c);
    for (int64_t i = 0; i < col.size(); ++i) {
      std::string fast;
      col.EncodeValueTo(i, &fast);
      std::string boxed;
      col.ValueAt(i).EncodeTo(&boxed);
      ASSERT_EQ(fast, boxed) << "col " << c << " row " << i;
    }
  }
}

TEST(ColumnHashTest, HashIntoMatchesBoxedHash) {
  RecordBatchPtr batch = RandomBatch(200, 4);
  for (int c = 0; c < batch->num_columns(); ++c) {
    const Column& col = *batch->column(c);
    std::vector<uint64_t> hashes(static_cast<size_t>(col.size()),
                                 0x811C9DC5ULL);
    col.HashInto(&hashes);
    for (int64_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(hashes[static_cast<size_t>(i)],
                HashMix(0x811C9DC5ULL, col.ValueAt(i).Hash()));
    }
  }
}

class ShuffleTest : public ::testing::TestWithParam<int> {};

TEST_P(ShuffleTest, PartitionsAreConsistentAndComplete) {
  // Property: after shuffling by key, (a) no rows are lost or invented,
  // (b) equal keys land in the same partition (the contract stateful ops
  // rely on), for any partition count.
  const int out_parts = GetParam();
  auto stream = std::make_shared<MemoryStream>("s", EventSchema(), 3);
  std::vector<Row> rows;
  Random rng(static_cast<uint64_t>(out_parts));
  for (int i = 0; i < 500; ++i) {
    rows.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(40))),
                    Value::Str("x"), Value::Float64(1.0)});
  }
  ASSERT_TRUE(stream->AddData(rows).ok());

  auto analyzed =
      Analyzer::Analyze(DataFrame::ReadStream(stream).plan()).TakeValue();
  auto scan = Incrementalize(analyzed, out_parts).TakeValue();
  ExprPtr key = Col("k")->Resolve(*analyzed->schema()).TakeValue();
  auto shuffle = std::make_shared<ShuffleExec>(
      99, scan.root, std::vector<ExprPtr>{key}, out_parts);

  InlineScheduler scheduler;
  StateManager state("", 0, ShardedStateStore::Options());
  ExecContext ctx;
  ctx.epoch = 1;
  ctx.scheduler = &scheduler;
  ctx.state = &state;
  auto offsets = stream->LatestOffsets().TakeValue();
  ctx.offsets["s"] = {std::vector<int64_t>(offsets.size(), 0), offsets};

  auto out = shuffle->Execute(&ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), static_cast<size_t>(out_parts));
  int64_t total = 0;
  std::map<int64_t, int> key_to_partition;
  for (int p = 0; p < out_parts; ++p) {
    const RecordBatchPtr& batch = (*out)[static_cast<size_t>(p)];
    total += batch->num_rows();
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      int64_t k = batch->column(0)->Int64At(i);
      auto it = key_to_partition.find(k);
      if (it == key_to_partition.end()) {
        key_to_partition[k] = p;
      } else {
        EXPECT_EQ(it->second, p) << "key " << k << " split across partitions";
      }
    }
  }
  EXPECT_EQ(total, 500);
}

TEST_P(ShuffleTest, RunsPipelineWithStaticJoinInMapTasks) {
  // A filter -> project -> static-join pipeline under the shuffle runs
  // inside the map tasks: the exchange still keeps each key in one
  // partition, and the rows are the nested-loop join's.
  const int out_parts = GetParam();
  auto stream = std::make_shared<MemoryStream>("s", EventSchema(), 3);
  std::vector<Row> rows;
  Random rng(static_cast<uint64_t>(out_parts) + 100);
  for (int i = 0; i < 500; ++i) {
    rows.push_back({Value::Int64(static_cast<int64_t>(rng.Uniform(40))),
                    Value::Str(std::to_string(i)),
                    Value::Float64(rng.NextDouble())});
  }
  ASSERT_TRUE(stream->AddData(rows).ok());
  // Keys 0..29, keys divisible by 3 twice: some stream keys match twice,
  // some not at all.
  SchemaPtr dim_schema = Schema::Make({{"k", TypeId::kInt64, false},
                                       {"label", TypeId::kString, false}});
  std::vector<Row> dims;
  for (int64_t k = 0; k < 30; ++k) {
    dims.push_back({Value::Int64(k), Value::Str("a")});
    if (k % 3 == 0) dims.push_back({Value::Int64(k), Value::Str("b")});
  }
  DataFrame df =
      DataFrame::ReadStream(stream)
          .Where(Gt(Col("v"), Lit(0.25)))
          .Select({As(Col("k"), "k"), As(Col("s"), "s")})
          .Join(DataFrame::FromRows(dim_schema, dims).TakeValue(), {"k"});
  auto analyzed = Analyzer::Analyze(df.plan()).TakeValue();
  auto plan = Incrementalize(analyzed, out_parts).TakeValue();
  const auto* pipeline =
      dynamic_cast<const FusedPipelineExec*>(plan.root.get());
  ASSERT_NE(pipeline, nullptr) << plan.root->TreeString();
  ASSERT_EQ(pipeline->stages().size(), 3u) << plan.root->TreeString();
  EXPECT_EQ(pipeline->stages()[2].kind,
            FusedPipelineExec::Stage::Kind::kStaticJoin);
  ExprPtr key = Col("k")->Resolve(*analyzed->schema()).TakeValue();
  auto shuffle = std::make_shared<ShuffleExec>(
      99, plan.root, std::vector<ExprPtr>{key}, out_parts);

  PoolScheduler scheduler(4);
  StateManager state("", 0, ShardedStateStore::Options());
  ExecContext ctx;
  ctx.epoch = 1;
  ctx.scheduler = &scheduler;
  ctx.state = &state;
  auto offsets = stream->LatestOffsets().TakeValue();
  ctx.offsets["s"] = {std::vector<int64_t>(offsets.size(), 0), offsets};

  auto out = shuffle->Execute(&ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), static_cast<size_t>(out_parts));
  std::map<int64_t, int> key_to_partition;
  std::multiset<std::string> got;
  for (int p = 0; p < out_parts; ++p) {
    const RecordBatchPtr& batch = (*out)[static_cast<size_t>(p)];
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      const int64_t k = batch->column(0)->Int64At(i);
      auto [it, inserted] = key_to_partition.emplace(k, p);
      EXPECT_EQ(it->second, p) << "key " << k << " split across partitions";
      got.insert(RowToString(batch->RowAt(i)));
    }
  }
  std::multiset<std::string> want;
  for (const Row& r : rows) {
    if (r[2].float64_value() <= 0.25) continue;
    for (const Row& d : dims) {
      if (d[0] == r[0]) want.insert(RowToString({r[0], r[1], d[1]}));
    }
  }
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want);
  // One map task per stream partition, charged to the shuffle; the
  // pipeline submitted no stage of its own.
  EXPECT_EQ(ctx.op_progress[99].tasks, 3);
  EXPECT_EQ(ctx.op_progress[pipeline->op_id()].tasks, 0);
  EXPECT_EQ(ctx.op_progress[pipeline->stages()[2].op_id].rows_out,
            static_cast<int64_t>(want.size()));
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, ShuffleTest,
                         ::testing::Values(1, 2, 3, 7, 16));

TEST(IncrementalizerTest, PureProjectionFusesIntoSource) {
  auto stream = std::make_shared<MemoryStream>("s", EventSchema(), 2);
  DataFrame df = DataFrame::ReadStream(stream).SelectColumns({"k"});
  auto analyzed = Analyzer::Analyze(df.plan()).TakeValue();
  auto plan = Incrementalize(analyzed, 2).TakeValue();
  // The projection disappears into the source read (§5.3).
  auto* source = dynamic_cast<SourceExec*>(plan.root.get());
  ASSERT_NE(source, nullptr) << plan.root->TreeString();
  EXPECT_TRUE(source->projected());
  EXPECT_EQ(plan.root->schema()->ToString(), "(k: int64?)");
}

TEST(IncrementalizerTest, OptimizerPrunesScanForAggregate) {
  auto stream = std::make_shared<MemoryStream>("s", EventSchema(), 2);
  DataFrame df = DataFrame::ReadStream(stream)
                     .Where(Gt(Col("k"), Lit(0)))
                     .GroupBy({"k"})
                     .Count();
  PlanPtr optimized = Optimizer::Optimize(df.plan());
  auto analyzed = Analyzer::Analyze(optimized).TakeValue();
  auto plan = Incrementalize(analyzed, 2).TakeValue();
  // Walk to the leaf: it must be a projected source (only `k` read).
  const PhysOp* node = plan.root.get();
  while (!node->children().empty()) node = node->children()[0].get();
  const auto* source = dynamic_cast<const SourceExec*>(node);
  ASSERT_NE(source, nullptr);
  EXPECT_TRUE(source->projected()) << plan.root->TreeString();
}

TEST(IncrementalizerTest, OperatorIdsAreDeterministic) {
  // Recovery correctness depends on stable operator ids across restarts.
  auto stream = std::make_shared<MemoryStream>("s", EventSchema(), 2);
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"k"}).Count();
  auto analyzed = Analyzer::Analyze(df.plan()).TakeValue();
  auto plan1 = Incrementalize(analyzed, 2).TakeValue();
  auto plan2 = Incrementalize(analyzed, 2).TakeValue();
  EXPECT_EQ(plan1.root->op_id(), plan2.root->op_id());
  EXPECT_EQ(plan1.root->TreeString(), plan2.root->TreeString());
  EXPECT_TRUE(plan1.has_stateful);
  EXPECT_EQ(plan1.num_key_columns, 1);

  // A filter below the aggregate runs as a one-stage fused pipeline
  // numbered after every other operator, so the aggregate's id is 3
  // (source 0, filter 1, shuffle 2), as it was when the filter ran on its
  // own: its state lives under state/op3/, and such checkpoints restore.
  DataFrame filtered = DataFrame::ReadStream(stream)
                           .Where(Gt(Col("v"), Lit(0.5)))
                           .GroupBy({"k"})
                           .Count();
  auto filtered_plan =
      Incrementalize(Analyzer::Analyze(filtered.plan()).TakeValue(), 2)
          .TakeValue();
  EXPECT_EQ(filtered_plan.root->op_id(), 3) << filtered_plan.root->TreeString();
  const PhysOp* shuffle = filtered_plan.root->children()[0].get();
  ASSERT_EQ(shuffle->children().size(), 1u);
  const auto* fused =
      dynamic_cast<const FusedPipelineExec*>(shuffle->children()[0].get());
  ASSERT_NE(fused, nullptr) << filtered_plan.root->TreeString();
  ASSERT_EQ(fused->stages().size(), 1u);
  EXPECT_EQ(fused->stages()[0].kind, FusedPipelineExec::Stage::Kind::kFilter);
  EXPECT_EQ(fused->stages()[0].op_id, 1);
  EXPECT_EQ(fused->op_id(), 4);
}

TEST(PhysOpTest, SortAndLimitOverPartitions) {
  auto stream = std::make_shared<MemoryStream>("s", EventSchema(), 3);
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({Value::Int64(20 - i), Value::Str("x"),
                    Value::Float64(static_cast<double>(i))});
  }
  ASSERT_TRUE(stream->AddData(rows).ok());
  auto analyzed =
      Analyzer::Analyze(DataFrame::ReadStream(stream).plan()).TakeValue();
  auto scan = Incrementalize(analyzed, 3).TakeValue();
  ExprPtr key = Col("k")->Resolve(*analyzed->schema()).TakeValue();
  auto sort = std::make_shared<SortExec>(
      90, scan.root, std::vector<SortExec::Key>{{key, true}});
  auto limit = std::make_shared<LimitExec>(91, PhysOpPtr(sort), 5);

  InlineScheduler scheduler;
  StateManager state("", 0, ShardedStateStore::Options());
  ExecContext ctx;
  ctx.epoch = 1;
  ctx.scheduler = &scheduler;
  ctx.state = &state;
  auto offsets = stream->LatestOffsets().TakeValue();
  ctx.offsets["s"] = {std::vector<int64_t>(offsets.size(), 0), offsets};
  auto out = limit->Execute(&ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  ASSERT_EQ((*out)[0]->num_rows(), 5);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*out)[0]->column(0)->Int64At(i), i + 1);
  }
}

}  // namespace
}  // namespace sstreaming

// Vectorized hot path: selection-vector semantics on RecordBatch, the
// filter stage's zero-copy contract, how the incrementalizer builds fused
// pipelines and their per-stage accounting, and the golden battery: all four stateful pipelines must reproduce the
// checked-in outputs in tests/golden/ byte for byte, including across a
// crash-restart and on a thread pool (docs/VECTORIZED_EXEC.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "connectors/memory.h"
#include "analysis/analyzer.h"
#include "exec/streaming_query.h"
#include "incremental/incrementalizer.h"
#include "physical/fused_pipeline.h"
#include "physical/operators.h"
#include "runtime/scheduler.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

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

// ---------------------------------------------------------------------------
// Selection-vector semantics on RecordBatch.
// ---------------------------------------------------------------------------

TEST(SelectionVectorTest, ViewSelectsLogicalRowsWithoutCopying) {
  RecordBatchPtr base = RandomBatch(10, 1);
  RecordBatchPtr view =
      RecordBatch::MakeView(base, SelectionVector::FromVector({5, 0, 9, 3}));
  ASSERT_TRUE(view->has_selection());
  EXPECT_EQ(view->num_rows(), 4);
  EXPECT_EQ(view->physical_rows(), 10);
  // Columns are shared, not copied.
  for (int c = 0; c < base->num_columns(); ++c) {
    EXPECT_EQ(view->column(c).get(), base->column(c).get());
  }
  // Row-level accessors see the logical view, in selection order.
  const int32_t idx[] = {5, 0, 9, 3};
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(CompareRows(view->RowAt(i), base->RowAt(idx[i])), 0);
    EXPECT_EQ(view->PhysIndex(i), idx[i]);
  }
  EXPECT_EQ(view->ToRows().size(), 4u);
}

TEST(SelectionVectorTest, ViewOverViewComposesToPhysicalIndices) {
  RecordBatchPtr base = RandomBatch(10, 2);
  RecordBatchPtr v1 =
      RecordBatch::MakeView(base, SelectionVector::FromVector({5, 0, 9, 3}));
  // Logical rows {2, 0} of v1 are physical rows {9, 5} of base.
  RecordBatchPtr v2 =
      RecordBatch::MakeView(v1, SelectionVector::FromVector({2, 0}));
  ASSERT_EQ(v2->num_rows(), 2);
  EXPECT_EQ(v2->PhysIndex(0), 9);
  EXPECT_EQ(v2->PhysIndex(1), 5);
  EXPECT_EQ(CompareRows(v2->RowAt(0), base->RowAt(9)), 0);
  EXPECT_EQ(CompareRows(v2->RowAt(1), base->RowAt(5)), 0);
}

TEST(SelectionVectorTest, EmptySelectionIsLogicallyEmpty) {
  RecordBatchPtr base = RandomBatch(10, 3);
  RecordBatchPtr view = RecordBatch::MakeView(base, SelectionVector());
  ASSERT_TRUE(view->has_selection());
  EXPECT_EQ(view->num_rows(), 0);
  EXPECT_EQ(view->physical_rows(), 10);
  EXPECT_TRUE(view->ToRows().empty());
  RecordBatchPtr compact = RecordBatch::Materialize(view);
  EXPECT_FALSE(compact->has_selection());
  EXPECT_EQ(compact->num_rows(), 0);
}

TEST(SelectionVectorTest, MaterializeWithoutSelectionIsTheSameBatch) {
  RecordBatchPtr base = RandomBatch(10, 4);
  // The no-selection fast path must not copy: pointer identity.
  EXPECT_EQ(RecordBatch::Materialize(base).get(), base.get());
}

TEST(SelectionVectorTest, MaterializeCompactsAndPreservesIngest) {
  RecordBatchPtr base = RandomBatch(10, 5);
  base->set_ingest_micros(12345);
  RecordBatchPtr view =
      RecordBatch::MakeView(base, SelectionVector::FromVector({7, 1, 4}));
  EXPECT_EQ(view->ingest_micros(), 12345);
  RecordBatchPtr compact = RecordBatch::Materialize(view);
  ASSERT_FALSE(compact->has_selection());
  ASSERT_EQ(compact->num_rows(), 3);
  EXPECT_EQ(compact->physical_rows(), 3);
  EXPECT_EQ(compact->ingest_micros(), 12345);
  EXPECT_EQ(compact->ToRows(), view->ToRows());
}

TEST(SelectionVectorTest, RowShapeOperationsSeeTheLogicalView) {
  RecordBatchPtr base = RandomBatch(12, 6);
  RecordBatchPtr view = RecordBatch::MakeView(
      base, SelectionVector::FromVector({11, 2, 7, 0, 5}));

  // Filter over the logical rows.
  std::vector<uint8_t> mask = {1, 0, 1, 0, 1};
  RecordBatchPtr filtered = view->Filter(mask);
  ASSERT_EQ(filtered->num_rows(), 3);
  EXPECT_EQ(CompareRows(filtered->RowAt(0), base->RowAt(11)), 0);
  EXPECT_EQ(CompareRows(filtered->RowAt(1), base->RowAt(7)), 0);
  EXPECT_EQ(CompareRows(filtered->RowAt(2), base->RowAt(5)), 0);

  // Gather over the logical rows.
  RecordBatchPtr gathered = view->Gather({4, 4, 1});
  ASSERT_EQ(gathered->num_rows(), 3);
  EXPECT_EQ(CompareRows(gathered->RowAt(0), base->RowAt(5)), 0);
  EXPECT_EQ(CompareRows(gathered->RowAt(1), base->RowAt(5)), 0);
  EXPECT_EQ(CompareRows(gathered->RowAt(2), base->RowAt(2)), 0);

  // Slice over the logical rows.
  RecordBatchPtr sliced = view->Slice(1, 2);
  ASSERT_EQ(sliced->num_rows(), 2);
  EXPECT_EQ(CompareRows(sliced->RowAt(0), base->RowAt(2)), 0);
  EXPECT_EQ(CompareRows(sliced->RowAt(1), base->RowAt(7)), 0);

  // SelectColumns keeps the logical view.
  RecordBatchPtr cols = view->SelectColumns({0});
  ASSERT_EQ(cols->num_rows(), 5);
  EXPECT_EQ(cols->RowAt(0).size(), 1u);
  EXPECT_EQ(cols->RowAt(0)[0], base->RowAt(11)[0]);
}

TEST(SelectionVectorTest, ConcatOverViewsKeepsRowsAndOldestIngest) {
  RecordBatchPtr a = RandomBatch(6, 7);
  a->set_ingest_micros(200);
  RecordBatchPtr b = RandomBatch(6, 8);
  b->set_ingest_micros(50);
  RecordBatchPtr va =
      RecordBatch::MakeView(a, SelectionVector::FromVector({3, 1}));
  RecordBatchPtr vb =
      RecordBatch::MakeView(b, SelectionVector::FromVector({0, 5, 2}));
  RecordBatchPtr merged = RecordBatch::Concat(EventSchema(), {va, vb});
  ASSERT_EQ(merged->num_rows(), 5);
  EXPECT_EQ(CompareRows(merged->RowAt(0), a->RowAt(3)), 0);
  EXPECT_EQ(CompareRows(merged->RowAt(1), a->RowAt(1)), 0);
  EXPECT_EQ(CompareRows(merged->RowAt(2), b->RowAt(0)), 0);
  EXPECT_EQ(CompareRows(merged->RowAt(3), b->RowAt(5)), 0);
  EXPECT_EQ(CompareRows(merged->RowAt(4), b->RowAt(2)), 0);
  // The sink-side latency stamp is the oldest contributor's.
  EXPECT_EQ(merged->ingest_micros(), 50);
}

// ---------------------------------------------------------------------------
// The filter stage's zero-copy contract.
// ---------------------------------------------------------------------------

/// Emits exactly the given batches, one per partition — gives the tests
/// pointer-level control over what an operator's child produces.
class FixedOp : public PhysOp {
 public:
  FixedOp(int op_id, SchemaPtr schema, std::vector<RecordBatchPtr> batches)
      : PhysOp(op_id, std::move(schema), {}), batches_(std::move(batches)) {}
  std::string name() const override { return "Fixed"; }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext*) override {
    return batches_;
  }

 private:
  std::vector<RecordBatchPtr> batches_;
};

struct ExecHarness {
  InlineScheduler scheduler;
  StateManager state{"", 0, ShardedStateStore::Options()};
  ExecContext ctx;

  ExecHarness() {
    ctx.epoch = 1;
    ctx.scheduler = &scheduler;
    ctx.state = &state;
  }
};

ExprPtr ResolvedPred(ExprPtr raw) {
  return raw->Resolve(*EventSchema()).TakeValue();
}

/// Fixed(0) -> FusedPipeline(2)[Filter(1)]: a filter on its own.
PhysOpPtr OneStageFilter(const RecordBatchPtr& batch, ExprPtr pred) {
  auto source = std::make_shared<FixedOp>(
      0, EventSchema(), std::vector<RecordBatchPtr>{batch});
  return std::make_shared<FusedPipelineExec>(
      2, source,
      std::vector<FusedPipelineExec::Stage>{
          FusedPipelineExec::Stage::Filter(1, std::move(pred))});
}

TEST(FilterStageSelectionTest, FullSurvivalPassesTheInputBatchThrough) {
  RecordBatchPtr batch = RandomBatch(100, 10);
  PhysOpPtr filter =
      OneStageFilter(batch, ResolvedPred(Ge(Col("k"), Lit(int64_t{0}))));
  ExecHarness h;
  auto out = filter->Execute(&h.ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  // Every row survives: the fast path must hand back the very same batch,
  // no selection vector and no copy.
  EXPECT_EQ((*out)[0].get(), batch.get());
  EXPECT_FALSE((*out)[0]->has_selection());
}

TEST(FilterStageSelectionTest, PartialSurvivalEmitsAViewNotACopy) {
  RecordBatchPtr batch = RandomBatch(200, 11);
  PhysOpPtr filter =
      OneStageFilter(batch, ResolvedPred(Lt(Col("k"), Lit(int64_t{25}))));
  ExecHarness h;
  auto out = filter->Execute(&h.ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  ASSERT_EQ(out->size(), 1u);
  const RecordBatchPtr& view = (*out)[0];
  ASSERT_TRUE(view->has_selection());
  // Zero-copy: the view shares the input's column storage.
  EXPECT_EQ(view->column(0).get(), batch->column(0).get());
  EXPECT_LT(view->num_rows(), batch->num_rows());
  EXPECT_GT(view->num_rows(), 0);
  // Logically, the view holds exactly the surviving rows, in input order.
  std::vector<Row> expect;
  for (const Row& row : batch->ToRows()) {
    if (row[0].int64_value() < 25) expect.push_back(row);
  }
  EXPECT_EQ(view->ToRows(), expect);
}

TEST(FilterStageSelectionTest, NoSurvivorsYieldsAnEmptyLogicalBatch) {
  RecordBatchPtr batch = RandomBatch(50, 12);
  PhysOpPtr filter =
      OneStageFilter(batch, ResolvedPred(Lt(Col("k"), Lit(int64_t{-1}))));
  ExecHarness h;
  auto out = filter->Execute(&h.ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0]->num_rows(), 0);
  EXPECT_TRUE(RecordBatch::Materialize((*out)[0])->ToRows().empty());
}

// ---------------------------------------------------------------------------
// Pipeline fusion: plan structure, execution, accounting.
// ---------------------------------------------------------------------------

SchemaPtr ProjectedSchema() {
  return Schema::Make(
      {{"k2", TypeId::kInt64, false}, {"s", TypeId::kString, true}});
}

std::vector<NamedExpr> ProjectedExprs() {
  return {{ResolvedPred(Mul(Col("k"), Lit(int64_t{2}))), "k2"},
          {ResolvedPred(Col("s")), "s"}};
}

/// source(0) -> FusedPipeline(3)[Filter(1) -> Project(2)].
PhysOpPtr MakeChain(const RecordBatchPtr& batch) {
  auto source = std::make_shared<StaticSourceExec>(
      0, EventSchema(), std::vector<RecordBatchPtr>{batch}, 1);
  return std::make_shared<FusedPipelineExec>(
      3, source,
      std::vector<FusedPipelineExec::Stage>{
          FusedPipelineExec::Stage::Filter(
              1, ResolvedPred(Lt(Col("k"), Lit(int64_t{30})))),
          FusedPipelineExec::Stage::Project(2, ProjectedSchema(),
                                            ProjectedExprs())});
}

Result<PhysicalPlan> IncrementalizeStream(const DataFrame& df) {
  SS_ASSIGN_OR_RETURN(PlanPtr analyzed, Analyzer::Analyze(df.plan()));
  return Incrementalize(analyzed, 2);
}

TEST(PipelineFusionTest, IncrementalizerFusesAChainIntoOnePipeline) {
  auto stream = std::make_shared<MemoryStream>("s", EventSchema(), 2);
  auto plan = IncrementalizeStream(
      DataFrame::ReadStream(stream)
          .Where(Lt(Col("k"), Lit(int64_t{30})))
          .Select({NamedExpr{Mul(Col("k"), Lit(int64_t{2})), "k2"},
                   NamedExpr{Col("s"), "s"}}));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto* fused = dynamic_cast<FusedPipelineExec*>(plan->root.get());
  ASSERT_NE(fused, nullptr) << plan->root->TreeString();
  // Stages (bottom -> top) carry the ids handed out in build order; the
  // fused node is numbered after them, and sits directly on the source.
  ASSERT_EQ(fused->stages().size(), 2u);
  EXPECT_EQ(fused->stages()[0].op_id, 1);
  EXPECT_EQ(fused->stages()[0].kind, FusedPipelineExec::Stage::Kind::kFilter);
  EXPECT_EQ(fused->stages()[1].op_id, 2);
  EXPECT_EQ(fused->stages()[1].kind, FusedPipelineExec::Stage::Kind::kProject);
  EXPECT_EQ(fused->op_id(), 3);
  ASSERT_EQ(fused->children().size(), 1u);
  EXPECT_EQ(fused->children()[0]->op_id(), 0);
  EXPECT_TRUE(fused->children()[0]->is_source_scan());
  // The projection on top sets the pipeline's output schema.
  EXPECT_EQ(fused->schema()->ToString(),
            fused->stages()[1].schema->ToString());
  EXPECT_EQ(fused->schema()->IndexOf("k2"), 0);
}

TEST(PipelineFusionTest, FusedExecutionMatchesRecordBatchPrimitives) {
  RecordBatchPtr batch = RandomBatch(500, 22);
  // Oracle: the chain spelled out with RecordBatch primitives, one
  // materialized intermediate per operator.
  auto mask_col =
      ResolvedPred(Lt(Col("k"), Lit(int64_t{30})))->EvalBatch(*batch);
  ASSERT_TRUE(mask_col.ok());
  std::vector<uint8_t> mask(static_cast<size_t>(batch->num_rows()));
  for (int64_t i = 0; i < batch->num_rows(); ++i) {
    mask[static_cast<size_t>(i)] =
        !(*mask_col)->IsNull(i) && (*mask_col)->BoolAt(i) ? 1 : 0;
  }
  RecordBatchPtr survivors = batch->Filter(mask);
  std::vector<ColumnPtr> columns;
  for (const NamedExpr& e : ProjectedExprs()) {
    auto col = e.expr->EvalBatch(*survivors);
    ASSERT_TRUE(col.ok());
    columns.push_back(*col);
  }
  RecordBatchPtr expect = RecordBatch::Make(ProjectedSchema(), columns);

  PhysOpPtr fused = MakeChain(batch);
  ExecHarness h;
  auto got = fused->Execute(&h.ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ(RecordBatch::Materialize((*got)[0])->ToRows(), expect->ToRows());

  // Per-stage accounting: each stage's op_id is credited with its own
  // output rows.
  std::lock_guard<std::mutex> lock(h.ctx.metrics_mu);
  for (int op_id : {1, 2}) {
    ASSERT_TRUE(h.ctx.op_progress.count(op_id)) << "op " << op_id;
    EXPECT_EQ(h.ctx.op_progress[op_id].rows_out, survivors->num_rows())
        << "op " << op_id;
  }
}

TEST(PipelineFusionTest, ProfileNodesChainStagesUnderTheirOwnIds) {
  PhysOpPtr root = MakeChain(RandomBatch(10, 23));
  std::vector<OpProfileNode> nodes;
  root->CollectProfileNodes(&nodes);
  // Fused node + one node per stage, wired fused <- Project <- Filter <-
  // source: each stage shows as its own operator.
  ASSERT_EQ(nodes.size(), 3u);
  std::map<int, const OpProfileNode*> by_id;
  for (const auto& n : nodes) by_id[n.op_id] = &n;
  ASSERT_TRUE(by_id.count(3) && by_id.count(2) && by_id.count(1));
  EXPECT_EQ(by_id[3]->child_ids, std::vector<int>{2});
  EXPECT_EQ(by_id[2]->child_ids, std::vector<int>{1});
  EXPECT_EQ(by_id[1]->child_ids, std::vector<int>{0});
  EXPECT_NE(by_id[3]->name.find("FusedPipeline"), std::string::npos);
  EXPECT_NE(by_id[1]->name.find("Filter"), std::string::npos);
  EXPECT_EQ(by_id[2]->name, "Project");
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE tie-out through a live query.
// ---------------------------------------------------------------------------

SchemaPtr StreamSchema() {
  return Schema::Make({{"k", TypeId::kString, false},
                       {"v", TypeId::kInt64, false},
                       {"time", TypeId::kTimestamp, false}});
}

std::vector<Row> StreamRows() {
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    // std::string("k"): gcc 12 -Wrestrict false positive (PR 105329).
    rows.push_back({Value::Str(std::string("k") + std::to_string(i % 8)),
                    Value::Int64(i % 80), Value::Timestamp(i * kSec)});
  }
  return rows;
}

/// Runs `df` over StreamRows() in one epoch and returns its progress.
QueryProgress RunOneEpoch(const DataFrame& df,
                          const std::shared_ptr<MemoryStream>& stream,
                          const std::shared_ptr<MemorySink>& sink) {
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 2;
  QueryProgress last;
  auto query = StreamingQuery::Start(df, sink, opts);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (!query.ok()) return last;
  EXPECT_TRUE(stream->AddData(StreamRows()).ok());
  EXPECT_TRUE((*query)->ProcessAllAvailable().ok());
  EXPECT_TRUE((*query)->GetLastProgress(&last));
  (*query)->Stop();
  return last;
}

TEST(PipelineFusionTest, QueryProgressRowAccountingTiesOutUnderFusion) {
  auto stream = std::make_shared<MemoryStream>("s", StreamSchema(), 2);
  DataFrame df = DataFrame::ReadStream(stream)
                     .Where(Lt(Col("v"), Lit(int64_t{40})))
                     .Select({NamedExpr{Col("k"), "k"},
                              NamedExpr{Add(Col("v"), Lit(int64_t{1})), "v1"}});
  auto sink = std::make_shared<MemorySink>();
  QueryProgress last = RunOneEpoch(df, stream, sink);

  const OperatorProgress* fused = nullptr;
  const OperatorProgress* filter = nullptr;
  const OperatorProgress* project = nullptr;
  for (const OperatorProgress& op : last.operators) {
    if (op.name.rfind("FusedPipeline", 0) == 0) fused = &op;
    if (op.name.rfind("Filter", 0) == 0) filter = &op;
    if (op.name == "Project") project = &op;
  }
  // The fused operators stay visible in the profile, each with its own
  // row totals.
  ASSERT_NE(fused, nullptr);
  ASSERT_NE(filter, nullptr);
  ASSERT_NE(project, nullptr);
  EXPECT_EQ(filter->rows_in, 100);
  // v = i % 80 over 100 rows: i in [0,40) and i in [80,100) pass v < 40.
  EXPECT_EQ(filter->rows_out, 60);
  EXPECT_EQ(project->rows_in, filter->rows_out);
  EXPECT_EQ(project->rows_out, project->rows_in);
  EXPECT_EQ(fused->rows_out, project->rows_out);
  EXPECT_EQ(sink->SortedSnapshot().size(), 60u);
}

TEST(PipelineFusionTest, OneStageRowAccountingTiesOutUnderItsOwnId) {
  auto stream = std::make_shared<MemoryStream>("s", StreamSchema(), 2);
  DataFrame df =
      DataFrame::ReadStream(stream).Where(Lt(Col("v"), Lit(int64_t{40})));
  auto sink = std::make_shared<MemorySink>();
  QueryProgress last = RunOneEpoch(df, stream, sink);

  const OperatorProgress* fused = nullptr;
  const OperatorProgress* filter = nullptr;
  for (const OperatorProgress& op : last.operators) {
    if (op.name.rfind("FusedPipeline", 0) == 0) fused = &op;
    if (op.name.rfind("Filter", 0) == 0) filter = &op;
  }
  ASSERT_NE(fused, nullptr);
  ASSERT_NE(filter, nullptr);
  // A lone filter is a one-stage pipeline: the stage reports under the
  // filter's build-order id (source 0, filter 1), the pipeline above it.
  EXPECT_EQ(filter->op_id, 1);
  EXPECT_EQ(fused->op_id, 2);
  EXPECT_EQ(filter->rows_in, 100);
  EXPECT_EQ(filter->rows_out, 60);
  EXPECT_EQ(fused->rows_in, filter->rows_out);
  EXPECT_EQ(fused->rows_out, filter->rows_out);
  EXPECT_EQ(sink->SortedSnapshot().size(), 60u);
}

// ---------------------------------------------------------------------------
// Golden battery: the four stateful pipelines must reproduce the outputs
// checked in under tests/golden/, per epoch and in final state accounting.
// ---------------------------------------------------------------------------

/// Records each epoch's first delivery (sorted) while delegating table
/// semantics to MemorySink (same harness as the sharded-state battery).
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
    std::sort(rows.begin(), rows.end(), RowLess());
    auto it = epochs_.find(epoch);
    if (it != epochs_.end() && it->second != rows) ++redelivery_mismatches_;
    epochs_[epoch] = std::move(rows);
    return Status::OK();
  }
  std::vector<Row> SortedSnapshot() const { return inner_.SortedSnapshot(); }
  const std::map<int64_t, std::vector<Row>>& epochs() const { return epochs_; }
  int64_t redelivery_mismatches() const { return redelivery_mismatches_; }

 private:
  MemorySink inner_;
  std::map<int64_t, std::vector<Row>> epochs_;
  int64_t redelivery_mismatches_ = 0;
};

enum class Pipeline { kWindowedAgg, kDedup, kJoin, kMapGroups };

struct DifferentialRun {
  std::map<int64_t, std::vector<Row>> epochs;
  std::vector<Row> final_rows;
  int64_t state_rows = 0;
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

/// Deterministic per-round workload, identical across execution strategies.
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

/// flatMapGroupsWithState update function of the kMapGroups pipeline: a
/// count and sum of v per key, emitted on every invocation, with an
/// event-time timeout 3 s after the key's latest event; a timed-out key
/// emits its final totals once and drops its state. Pure, so it may run
/// concurrently for different keys.
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

SchemaPtr CountUntilIdleSchema() {
  return Schema::Make({{"k", TypeId::kString, false},
                       {"n", TypeId::kInt64, false},
                       {"total", TypeId::kInt64, false},
                       {"timed_out", TypeId::kBool, false}});
}

/// Every pipeline carries a stateless prefix (Where + Watermark or Where +
/// Project) so fused stages and selection views reach the stateful
/// operator's materialization boundary. `scheduler` null runs inline.
DifferentialRun RunPipeline(Pipeline pipeline, uint64_t seed,
                            bool restart_midway,
                            TaskScheduler* scheduler = nullptr) {
  DifferentialRun result;
  auto dir = MakeTempDir("vectorized_diff");
  EXPECT_TRUE(dir.ok());

  auto left = std::make_shared<MemoryStream>("left", LeftSchema(), 2);
  std::shared_ptr<MemoryStream> right;
  DataFrame df = DataFrame::ReadStream(left).Where(
      Lt(Col("v"), Lit(int64_t{40})));
  OutputMode mode = OutputMode::kAppend;
  switch (pipeline) {
    case Pipeline::kWindowedAgg:
      // String group key -> exercises the dictionary key encoding too.
      df = df.WithWatermark("time", 5 * kSec)
               .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "w"),
                         NamedExpr{Col("k"), "k"}})
               .Agg({SumOf(Col("v"), "total")});
      mode = OutputMode::kUpdate;
      break;
    case Pipeline::kDedup:
      df = df.SelectColumns({"k", "v"}).Distinct();
      mode = OutputMode::kAppend;
      break;
    case Pipeline::kJoin:
      right = std::make_shared<MemoryStream>("right", RightSchema(), 2);
      df = df.WithWatermark("time", 5 * kSec)
               .Join(DataFrame::ReadStream(right).WithWatermark("rtime",
                                                                5 * kSec),
                     {"k"});
      mode = OutputMode::kAppend;
      break;
    case Pipeline::kMapGroups:
      // Event-time timeout behind a watermark: no clock involved.
      df = df.WithWatermark("time", 5 * kSec)
               .GroupByKey({As(Col("k"), "k")})
               .FlatMapGroupsWithState(CountUntilIdle(),
                                       CountUntilIdleSchema(),
                                       GroupStateTimeout::kEventTime);
      mode = OutputMode::kUpdate;
      break;
  }

  auto sink = std::make_shared<EpochRecordingSink>();
  QueryOptions opts;
  opts.mode = mode;
  opts.num_partitions = 2;
  opts.checkpoint_dir = *dir;
  opts.state_checkpoint_interval = 2;
  opts.enable_tracing = false;
  opts.scheduler = scheduler;

  auto query = StreamingQuery::Start(df, sink, opts);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (!query.ok()) return result;

  Random left_rng(seed);
  Random right_rng(seed + 1);
  const int kRounds = 6;
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_TRUE(left->AddData(MakeRound(&left_rng, r, 10)).ok());
    if (right != nullptr) {
      EXPECT_TRUE(right->AddData(MakeRound(&right_rng, r, 10)).ok());
    }
    EXPECT_TRUE((*query)->ProcessAllAvailable().ok());
    if (restart_midway && r == 2) {
      // Crash-recover: the rebuilt plan must number operators as before,
      // so checkpoint state dirs and watermark keys still line up (fused
      // nodes are numbered above every operator and stage).
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
  }
  EXPECT_EQ(sink->redelivery_mismatches(), 0)
      << "recovery replay re-committed an epoch with different rows";
  result.epochs = sink->epochs();
  result.final_rows = sink->SortedSnapshot();
  query->reset();
  RemoveDirRecursive(*dir).ok();
  return result;
}

/// Text form of a run, compared line by line against the checked-in
/// goldens: state totals, then every epoch's sorted delivery, then the
/// final table. Values are type-tagged and floats printed exactly (%a), so
/// equal text means byte-identical rows.
std::string ValueText(const Value& v) {
  std::string out = TypeName(v.type());
  out += ':';
  switch (v.type()) {
    case TypeId::kNull: break;
    case TypeId::kBool: out += v.bool_value() ? "true" : "false"; break;
    case TypeId::kInt64:
    case TypeId::kTimestamp: out += std::to_string(v.int64_value()); break;
    case TypeId::kFloat64: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%a", v.float64_value());
      out += buf;
      break;
    }
    case TypeId::kString: out += v.string_value(); break;
  }
  return out;
}

void AppendRows(const std::vector<Row>& rows, std::string* out) {
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) *out += '\t';
      *out += ValueText(row[i]);
    }
    *out += '\n';
  }
}

std::string GoldenText(const DifferentialRun& run) {
  std::string out = "state_rows " + std::to_string(run.state_rows) + "\n" +
                    "state_bytes " + std::to_string(run.state_bytes) + "\n";
  for (const auto& [epoch, rows] : run.epochs) {
    out += "epoch " + std::to_string(epoch) + " rows " +
           std::to_string(rows.size()) + "\n";
    AppendRows(rows, &out);
  }
  out += "final rows " + std::to_string(run.final_rows.size()) + "\n";
  AppendRows(run.final_rows, &out);
  return out;
}

const char* PipelineName(Pipeline pipeline) {
  switch (pipeline) {
    case Pipeline::kWindowedAgg: return "windowed_agg";
    case Pipeline::kDedup: return "dedup";
    case Pipeline::kJoin: return "join";
    case Pipeline::kMapGroups: return "map_groups";
  }
  return "unknown";
}

std::string GoldenPath(Pipeline pipeline, bool restart) {
  return std::string(SSTREAMING_SOURCE_DIR) + "/tests/golden/vectorized_" +
         PipelineName(pipeline) + (restart ? "_restart" : "") + ".txt";
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

void ExpectMatchesGolden(Pipeline pipeline, bool restart,
                         const DifferentialRun& run) {
  const std::string path = GoldenPath(pipeline, restart);
  SCOPED_TRACE(path);
  ASSERT_FALSE(run.epochs.empty());
  auto golden = ReadFile(path);
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  const std::vector<std::string> want = Lines(*golden);
  const std::vector<std::string> got = Lines(GoldenText(run));
  for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    // Stop at the first divergence: later lines only repeat the damage.
    ASSERT_EQ(got[i], want[i]) << "first difference at line " << i + 1;
  }
  EXPECT_EQ(got.size(), want.size());
}

// Input seeds the goldens were captured with: vectorized_<pipeline>.txt
// from a straight run, vectorized_<pipeline>_restart.txt from a run that
// crash-restarts after round 2.
constexpr uint64_t kGoldenSeed = 20260811;
constexpr uint64_t kRestartGoldenSeed = 20260812;

class VectorizedGoldenTest
    : public ::testing::TestWithParam<Pipeline> {};

TEST_P(VectorizedGoldenTest, OutputMatchesGolden) {
  ExpectMatchesGolden(GetParam(), false,
                      RunPipeline(GetParam(), kGoldenSeed, false));
}

TEST_P(VectorizedGoldenTest, OutputMatchesGoldenAcrossRestartRecovery) {
  ExpectMatchesGolden(GetParam(), true,
                      RunPipeline(GetParam(), kRestartGoldenSeed, true));
}

TEST_P(VectorizedGoldenTest, OutputMatchesGoldenOnAThreadPool) {
  // Fused stages, shuffle and the split grain's per-shard folds
  // (parallelism 4 > 2 partitions) run concurrently, the mapGroupsWithState
  // update function included; a thread-sanitizer target.
  PoolScheduler pool(4);
  ExpectMatchesGolden(GetParam(), false,
                      RunPipeline(GetParam(), kGoldenSeed, false, &pool));
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, VectorizedGoldenTest,
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

}  // namespace
}  // namespace sstreaming

// Ablation for §9.1's explanation of the Structured Streaming result: "the
// performance comes solely from Spark SQL's built-in execution
// optimizations ... storing data in a compact binary format and runtime
// code generation". This benchmark isolates that mechanism: the same
// filter+project+arith expression pipeline evaluated (a) row-at-a-time over
// boxed values (how the record-at-a-time baseline executes) and (b)
// vectorized over columnar batches (how the engine executes).

// The second half benchmarks the selection-vector + pipeline-fusion hot
// path (docs/VECTORIZED_EXEC.md): the same filter -> project -> aggregate
// chain executed operator-at-a-time with materialized intermediates (built
// here from RecordBatch primitives) versus as the engine's one fused pass
// carrying a selection vector, plus the per-row state-key encoding of a
// string group-by key in the stateful aggregate.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "expr/expression.h"
#include "physical/fused_pipeline.h"
#include "runtime/scheduler.h"
#include "types/record_batch.h"

namespace sstreaming {
namespace {

RecordBatchPtr MakeBatch(int64_t n) {
  auto schema = Schema::Make({{"a", TypeId::kInt64, false},
                              {"b", TypeId::kInt64, false},
                              {"tag", TypeId::kString, false}});
  ColumnPtr a = Column::Make(TypeId::kInt64);
  ColumnPtr b = Column::Make(TypeId::kInt64);
  ColumnPtr tag = Column::Make(TypeId::kString);
  a->Reserve(n);
  b->Reserve(n);
  tag->Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    a->AppendInt64(i % 1000);
    b->AppendInt64(i % 7);
    tag->AppendString(i % 3 == 0 ? "view" : "click");
  }
  return RecordBatch::Make(schema, {a, b, tag});
}

ExprPtr Pipeline(const Schema& schema) {
  // (tag = 'view') AND (a * 3 + b > 100)
  auto e = And(Eq(Col("tag"), Lit("view")),
               Gt(Add(Mul(Col("a"), Lit(3)), Col("b")), Lit(100)));
  return e->Resolve(schema).TakeValue();
}

void BM_RowAtATime(benchmark::State& state) {
  RecordBatchPtr batch = MakeBatch(state.range(0));
  ExprPtr expr = Pipeline(*batch->schema());
  auto rows = batch->ToRows();
  for (auto _ : state) {
    int64_t kept = 0;
    for (const Row& row : rows) {
      auto v = expr->EvalRow(row);
      if (v.ok() && !v->is_null() && v->bool_value()) ++kept;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RowAtATime)->Arg(1 << 14)->Arg(1 << 17);

void BM_Vectorized(benchmark::State& state) {
  RecordBatchPtr batch = MakeBatch(state.range(0));
  ExprPtr expr = Pipeline(*batch->schema());
  for (auto _ : state) {
    auto col = expr->EvalBatch(*batch);
    int64_t kept = 0;
    for (int64_t i = 0; i < (*col)->size(); ++i) {
      if (!(*col)->IsNull(i) && (*col)->BoolAt(i)) ++kept;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Vectorized)->Arg(1 << 14)->Arg(1 << 17);

void BM_RowFilterMaterialize(benchmark::State& state) {
  // End-to-end: filter + materialize survivors, row engine style.
  RecordBatchPtr batch = MakeBatch(state.range(0));
  ExprPtr expr = Pipeline(*batch->schema());
  auto rows = batch->ToRows();
  for (auto _ : state) {
    std::vector<Row> out;
    for (const Row& row : rows) {
      auto v = expr->EvalRow(row);
      if (v.ok() && !v->is_null() && v->bool_value()) out.push_back(row);
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RowFilterMaterialize)->Arg(1 << 17);

void BM_VectorizedFilterMaterialize(benchmark::State& state) {
  RecordBatchPtr batch = MakeBatch(state.range(0));
  ExprPtr expr = Pipeline(*batch->schema());
  for (auto _ : state) {
    auto col = expr->EvalBatch(*batch);
    std::vector<uint8_t> mask(static_cast<size_t>(batch->num_rows()));
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      mask[static_cast<size_t>(i)] =
          !(*col)->IsNull(i) && (*col)->BoolAt(i) ? 1 : 0;
    }
    auto out = batch->Filter(mask);
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VectorizedFilterMaterialize)->Arg(1 << 17);

// ---------------------------------------------------------------------------
// Fused pipeline vs. operator-at-a-time on the filter -> project ->
// aggregate hot path.
// ---------------------------------------------------------------------------

/// Hands back pre-built batches so the bench measures operator execution,
/// not source scan work.
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

/// A realistic event batch: the filter/project columns plus payload columns
/// that the query never projects. The operator-at-a-time engine still pays
/// to gather every one of them when the filter materializes its survivors;
/// the fused selection pass touches only what the projection references.
RecordBatchPtr MakeWideBatch(int64_t n) {
  auto schema = Schema::Make({{"a", TypeId::kInt64, false},
                              {"b", TypeId::kInt64, false},
                              {"tag", TypeId::kString, false},
                              {"url", TypeId::kString, false},
                              {"ua", TypeId::kString, false},
                              {"p0", TypeId::kInt64, false},
                              {"p1", TypeId::kInt64, false},
                              {"p2", TypeId::kFloat64, false}});
  ColumnPtr a = Column::Make(TypeId::kInt64);
  ColumnPtr b = Column::Make(TypeId::kInt64);
  ColumnPtr tag = Column::Make(TypeId::kString);
  ColumnPtr url = Column::Make(TypeId::kString);
  ColumnPtr ua = Column::Make(TypeId::kString);
  ColumnPtr p0 = Column::Make(TypeId::kInt64);
  ColumnPtr p1 = Column::Make(TypeId::kInt64);
  ColumnPtr p2 = Column::Make(TypeId::kFloat64);
  for (ColumnPtr* c : {&a, &b, &tag, &url, &ua, &p0, &p1, &p2}) {
    (*c)->Reserve(n);
  }
  for (int64_t i = 0; i < n; ++i) {
    a->AppendInt64(i % 1000);
    b->AppendInt64(i % 7);
    tag->AppendString(i % 3 == 0 ? "view" : "click");
    url->AppendString("https://example.com/page/" + std::to_string(i % 97));
    ua->AppendString(i % 2 == 0 ? "Mozilla/5.0 (X11; Linux x86_64)"
                                : "Mozilla/5.0 (Macintosh; Intel)");
    p0->AppendInt64(i);
    p1->AppendInt64(i * 31);
    p2->AppendFloat64(static_cast<double>(i) * 0.5);
  }
  return RecordBatch::Make(schema,
                           {a, b, tag, url, ua, p0, p1, p2});
}

/// Filter(a*3+b > 100 AND b < 6) -> Project(x = a*2 + b, a).
/// A cheap numeric predicate with high survival (~83%): the dominant cost
/// difference is what each engine does with the survivors. The projection
/// references neither `tag` nor the payload columns, so the fused pass
/// never touches them, while the materializing filter copies all eight
/// columns (three of them strings) for every surviving row.
struct Chain {
  ExprPtr predicate;
  SchemaPtr out_schema;
  std::vector<NamedExpr> exprs;
};

Chain MakeChain(const Schema& schema) {
  Chain chain;
  chain.predicate = And(Gt(Add(Mul(Col("a"), Lit(3)), Col("b")), Lit(100)),
                        Lt(Col("b"), Lit(6)))
                        ->Resolve(schema)
                        .TakeValue();
  chain.out_schema = Schema::Make(
      {{"x", TypeId::kInt64, false}, {"a", TypeId::kInt64, false}});
  chain.exprs = {
      {Add(Mul(Col("a"), Lit(2)), Col("b"))->Resolve(schema).TakeValue(),
       "x"},
      {Col("a")->Resolve(schema).TakeValue(), "a"}};
  return chain;
}

/// Operator-at-a-time execution of the chain from RecordBatch primitives:
/// the filter materializes every column of its survivors, then the
/// projection evaluates over that intermediate batch.
RecordBatchPtr RunMaterializing(const Chain& chain,
                                const RecordBatchPtr& batch) {
  ColumnPtr mask_col = chain.predicate->EvalBatch(*batch).TakeValue();
  std::vector<uint8_t> mask(static_cast<size_t>(batch->num_rows()));
  for (int64_t i = 0; i < batch->num_rows(); ++i) {
    // NULL predicate results drop the row (SQL semantics).
    mask[static_cast<size_t>(i)] =
        !mask_col->IsNull(i) && mask_col->BoolAt(i) ? 1 : 0;
  }
  RecordBatchPtr survivors = batch->Filter(mask);
  std::vector<ColumnPtr> columns;
  columns.reserve(chain.exprs.size());
  for (const NamedExpr& e : chain.exprs) {
    columns.push_back(e.expr->EvalBatch(*survivors).TakeValue());
  }
  return RecordBatch::Make(chain.out_schema, std::move(columns));
}

/// The engine's execution of the same chain: one fused pipeline.
PhysOpPtr MakeFusedChain(const Chain& chain, const RecordBatchPtr& batch) {
  auto source = std::make_shared<FixedOp>(
      0, batch->schema(), std::vector<RecordBatchPtr>{batch});
  return std::make_shared<FusedPipelineExec>(
      3, source,
      std::vector<FusedPipelineExec::Stage>{
          FusedPipelineExec::Stage::Filter(1, chain.predicate),
          FusedPipelineExec::Stage::Project(2, chain.out_schema,
                                            chain.exprs)});
}

struct BenchExec {
  InlineScheduler scheduler;
  StateManager state{"", 0, ShardedStateStore::Options()};
  ExecContext ctx;

  BenchExec() {
    ctx.epoch = 1;
    ctx.scheduler = &scheduler;
    ctx.state = &state;
  }
};

/// The "aggregate" consume: sum the projected column after the stateful
/// boundary's materialize-on-demand, exactly as StatefulAggExec sees it.
int64_t SumFirstColumn(const std::vector<RecordBatchPtr>& batches) {
  int64_t sum = 0;
  for (const RecordBatchPtr& b : batches) {
    RecordBatchPtr m = RecordBatch::Materialize(b);
    const Column& col = *m->column(0);
    for (int64_t i = 0; i < m->num_rows(); ++i) sum += col.Int64At(i);
  }
  return sum;
}

void BM_OperatorAtATimeMaterializing(benchmark::State& state) {
  // Pre-fusion engine: each operator materializes its full output batch.
  RecordBatchPtr batch = MakeWideBatch(state.range(0));
  const Chain chain = MakeChain(*batch->schema());
  for (auto _ : state) {
    RecordBatchPtr out = RunMaterializing(chain, batch);
    benchmark::DoNotOptimize(SumFirstColumn({out}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OperatorAtATimeMaterializing)->Arg(1 << 14)->Arg(1 << 17);

void BM_FusedSelectionPipeline(benchmark::State& state) {
  // Fused engine: one pass per batch, selection vector through the filter,
  // gather restricted to the columns the projection references.
  RecordBatchPtr batch = MakeWideBatch(state.range(0));
  PhysOpPtr root = MakeFusedChain(MakeChain(*batch->schema()), batch);
  BenchExec exec;
  for (auto _ : state) {
    auto out = root->Execute(&exec.ctx);
    benchmark::DoNotOptimize(SumFirstColumn(*out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FusedSelectionPipeline)->Arg(1 << 14)->Arg(1 << 17);

// ---------------------------------------------------------------------------
// State-key encoding of a string group-by key (the stateful aggregate's
// route loop).
// ---------------------------------------------------------------------------

ColumnPtr MakeKeyColumn(int64_t n) {
  static const char* kKeys[] = {"alpha", "beta", "gamma", "delta",
                                "epsilon", "zeta", "eta", "theta"};
  ColumnPtr col = Column::Make(TypeId::kString);
  col->Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    col->AppendString(kKeys[i % 8]);
  }
  return col;
}

void BM_KeyEncodePerRow(benchmark::State& state) {
  ColumnPtr col = MakeKeyColumn(state.range(0));
  std::string enc;
  for (auto _ : state) {
    size_t total = 0;
    for (int64_t i = 0; i < col->size(); ++i) {
      enc.clear();
      col->EncodeValueTo(i, &enc);
      total += enc.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KeyEncodePerRow)->Arg(1 << 17);

// ---------------------------------------------------------------------------
// Gather: a per-cell AppendFrom loop (one kind dispatch per cell) versus
// Column::AppendGather (one per column), over the survivors of a 2-in-3
// filter.
// Args: {rows, string column (0/1), AppendGather (0/1)}.
// ---------------------------------------------------------------------------

ColumnPtr MakeGatherSource(TypeId type, int64_t n) {
  ColumnPtr col = Column::Make(type);
  col->Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    if (type == TypeId::kString) {
      col->AppendString("campaign-" + std::to_string(i % 100));
    } else {
      col->AppendInt64(i * 31);
    }
  }
  return col;
}

void AppendEachCell(const Column& src, const std::vector<int32_t>& idx,
                    Column* out) {
  for (int32_t i : idx) out->AppendFrom(src, i);
}

void BM_Gather(benchmark::State& state) {
  const int64_t n = state.range(0);
  const TypeId type = state.range(1) != 0 ? TypeId::kString : TypeId::kInt64;
  const bool gather = state.range(2) != 0;
  ColumnPtr src = MakeGatherSource(type, n);
  std::vector<int32_t> idx;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 3 != 0) idx.push_back(static_cast<int32_t>(i));
  }
  const auto k = static_cast<int64_t>(idx.size());
  // Both paths must build the same column.
  Column per_cell(type);
  Column gathered(type);
  AppendEachCell(*src, idx, &per_cell);
  gathered.AppendGather(*src, idx.data(), k);
  for (int64_t i = 0; i < k; ++i) {
    if (!per_cell.ValueEquals(i, gathered, i)) {
      state.SkipWithError("AppendGather differs from per-cell AppendFrom");
      return;
    }
  }
  for (auto _ : state) {
    Column out(type);
    out.Reserve(k);
    if (gather) {
      out.AppendGather(*src, idx.data(), k);
    } else {
      AppendEachCell(*src, idx, &out);
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * k);
  state.SetLabel(std::string(TypeName(type)) +
                 (gather ? " AppendGather" : " per-cell AppendFrom"));
}
BENCHMARK(BM_Gather)->Apply([](benchmark::internal::Benchmark* b) {
  for (int64_t rows : {int64_t{1} << 14, int64_t{1} << 17}) {
    for (int64_t string : {0, 1}) {
      for (int64_t gather : {0, 1}) b->Args({rows, string, gather});
    }
  }
});

}  // namespace
}  // namespace sstreaming

BENCHMARK_MAIN();

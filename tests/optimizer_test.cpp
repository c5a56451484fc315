#include "optimizer/optimizer.h"

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "connectors/memory.h"
#include "logical/dataframe.h"

namespace sstreaming {
namespace {

SchemaPtr EventSchema() {
  return Schema::Make({{"a", TypeId::kInt64, false},
                       {"b", TypeId::kInt64, false},
                       {"s", TypeId::kString, true},
                       {"ts", TypeId::kTimestamp, false}});
}

DataFrame StreamDf() {
  auto source = std::make_shared<MemoryStream>("events", EventSchema(), 2);
  return DataFrame::ReadStream(source);
}

// Walks the plan to find the first node of a kind (preorder).
const LogicalPlan* FindNode(const PlanPtr& plan, LogicalPlan::Kind kind) {
  if (plan->kind() == kind) return plan.get();
  for (const PlanPtr& c : plan->children()) {
    if (const LogicalPlan* found = FindNode(c, kind)) return found;
  }
  return nullptr;
}

TEST(OptimizerTest, FoldConstantsFoldsLiteralSubtrees) {
  int folded = 0;
  ExprPtr e = FoldConstants(Add(Lit(2), Mul(Lit(3), Lit(4))), &folded);
  ASSERT_EQ(e->kind(), Expr::Kind::kLiteral);
  EXPECT_EQ(static_cast<const LiteralExpr&>(*e).value(), Value::Int64(14));
  EXPECT_GE(folded, 1);
}

TEST(OptimizerTest, FoldConstantsKeepsColumnRefs) {
  int folded = 0;
  ExprPtr e = FoldConstants(Add(Col("a"), Add(Lit(1), Lit(2))), &folded);
  ASSERT_EQ(e->kind(), Expr::Kind::kBinary);
  const auto& b = static_cast<const BinaryExpr&>(*e);
  EXPECT_EQ(b.right()->kind(), Expr::Kind::kLiteral);
}

TEST(OptimizerTest, FoldConstantsNeverTouchesUdfs) {
  int calls = 0;
  ScalarFn fn = [&calls](const std::vector<Value>&) -> Result<Value> {
    ++calls;
    return Value::Int64(1);
  };
  int folded = 0;
  ExprPtr e = FoldConstants(Udf("f", fn, TypeId::kInt64, {Lit(1)}), &folded);
  EXPECT_EQ(e->kind(), Expr::Kind::kUdf);
  EXPECT_EQ(calls, 0) << "optimizer must not execute user code";
}

TEST(OptimizerTest, MergesAdjacentFilters) {
  DataFrame df = StreamDf()
                     .Where(Gt(Col("a"), Lit(1)))
                     .Where(Lt(Col("b"), Lit(10)));
  Optimizer::Stats stats;
  PlanPtr opt = Optimizer::Optimize(df.plan(), &stats);
  EXPECT_GE(stats.filters_merged, 1);
  // Exactly one filter remains.
  int filters = 0;
  std::function<void(const PlanPtr&)> count = [&](const PlanPtr& p) {
    if (p->kind() == LogicalPlan::Kind::kFilter) ++filters;
    for (const auto& c : p->children()) count(c);
  };
  count(opt);
  EXPECT_EQ(filters, 1);
}

TEST(OptimizerTest, PushesFilterThroughProject) {
  DataFrame df = StreamDf()
                     .Select({As(Col("a"), "x"), As(Col("s"), "name")})
                     .Where(Gt(Col("x"), Lit(5)));
  Optimizer::Stats stats;
  PlanPtr opt = Optimizer::Optimize(df.plan(), &stats);
  EXPECT_GE(stats.predicates_pushed, 1);
  // Filter now sits below the project, referencing the underlying column.
  ASSERT_EQ(opt->kind(), LogicalPlan::Kind::kProject);
  ASSERT_EQ(opt->children()[0]->kind(), LogicalPlan::Kind::kFilter);
  const auto& filter =
      static_cast<const FilterNode&>(*opt->children()[0]);
  std::vector<std::string> refs;
  filter.predicate()->CollectColumnRefs(&refs);
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0], "a");
  // Optimized plan still analyzes and produces the same schema.
  auto reanalyzed = Analyzer::Analyze(opt);
  ASSERT_TRUE(reanalyzed.ok()) << reanalyzed.status().ToString();
  auto original = Analyzer::Analyze(df.plan()).TakeValue();
  EXPECT_TRUE((*reanalyzed)->schema()->Equals(*original->schema()));
}

TEST(OptimizerTest, DoesNotPushFilterThroughUdfProjection) {
  ScalarFn fn = [](const std::vector<Value>& args) -> Result<Value> {
    return args[0];
  };
  DataFrame df = StreamDf()
                     .Select({As(Udf("f", fn, TypeId::kInt64, {Col("a")}),
                                 "x")})
                     .Where(Gt(Col("x"), Lit(5)));
  PlanPtr opt = Optimizer::Optimize(df.plan());
  // Filter stays above the project (UDF must not be duplicated/moved).
  EXPECT_EQ(opt->kind(), LogicalPlan::Kind::kFilter);
}

TEST(OptimizerTest, PushesFilterThroughWatermark) {
  DataFrame df = StreamDf()
                     .WithWatermark("ts", 1000)
                     .Where(Gt(Col("a"), Lit(0)));
  Optimizer::Stats stats;
  PlanPtr opt = Optimizer::Optimize(df.plan(), &stats);
  EXPECT_EQ(opt->kind(), LogicalPlan::Kind::kWithWatermark);
  EXPECT_EQ(opt->children()[0]->kind(), LogicalPlan::Kind::kFilter);
}

TEST(OptimizerTest, PushesFilterIntoJoinSide) {
  auto right = DataFrame::FromRows(
                   Schema::Make({{"k", TypeId::kInt64, false},
                                 {"tag", TypeId::kString, false}}),
                   {{Value::Int64(1), Value::Str("x")}})
                   .TakeValue();
  // A filter over one input's columns moves into that input when the join
  // is inner or preserves it; above a side that only supplies matches it
  // stays above the join.
  struct Case {
    const char* name;
    JoinType type;
    ExprPtr predicate;
    int pushed_into;  // 0 left, 1 right, -1 stays above
  };
  const Case cases[] = {
      {"inner, right column", JoinType::kInner, Eq(Col("tag"), Lit("x")), 1},
      {"inner, left column", JoinType::kInner, Gt(Col("b"), Lit(0)), 0},
      {"left outer, left column", JoinType::kLeftOuter, Gt(Col("b"), Lit(0)),
       0},
      {"left outer, right column", JoinType::kLeftOuter,
       Eq(Col("tag"), Lit("x")), -1},
      {"right outer, left column", JoinType::kRightOuter,
       Gt(Col("b"), Lit(0)), -1},
      {"right outer, right column", JoinType::kRightOuter,
       Eq(Col("tag"), Lit("x")), 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    DataFrame df = StreamDf()
                       .Join(right, {Col("a")}, {Col("k")}, c.type)
                       .Where(c.predicate);
    Optimizer::Stats stats;
    PlanPtr opt = Optimizer::Optimize(df.plan(), &stats);
    if (c.pushed_into < 0) {
      EXPECT_EQ(stats.predicates_pushed, 0);
      ASSERT_EQ(opt->kind(), LogicalPlan::Kind::kFilter);
      EXPECT_EQ(opt->children()[0]->kind(), LogicalPlan::Kind::kJoin);
    } else {
      EXPECT_GE(stats.predicates_pushed, 1);
      ASSERT_EQ(opt->kind(), LogicalPlan::Kind::kJoin);
      EXPECT_EQ(opt->children()[static_cast<size_t>(c.pushed_into)]->kind(),
                LogicalPlan::Kind::kFilter);
    }
  }
}

TEST(OptimizerTest, RemovesTrueFilter) {
  DataFrame df = StreamDf().Where(Lit(true));
  Optimizer::Stats stats;
  PlanPtr opt = Optimizer::Optimize(df.plan(), &stats);
  EXPECT_EQ(opt->kind(), LogicalPlan::Kind::kStreamScan);
  EXPECT_GE(stats.trivial_filters_removed, 1);
}

TEST(OptimizerTest, FoldsFilterConstantThenRemoves) {
  // (1 < 2) folds to true, then the filter disappears.
  DataFrame df = StreamDf().Where(Lt(Lit(1), Lit(2)));
  PlanPtr opt = Optimizer::Optimize(df.plan());
  EXPECT_EQ(opt->kind(), LogicalPlan::Kind::kStreamScan);
}

TEST(OptimizerTest, CollapsesProjectPair) {
  DataFrame df = StreamDf()
                     .Select({As(Add(Col("a"), Col("b")), "sum"),
                              As(Col("s"), "s")})
                     .Select({As(Mul(Col("sum"), Lit(2)), "twice")});
  Optimizer::Stats stats;
  PlanPtr opt = Optimizer::Optimize(df.plan(), &stats);
  EXPECT_GE(stats.projects_collapsed, 1);
  ASSERT_EQ(opt->kind(), LogicalPlan::Kind::kProject);
  // The child is the scan, possibly behind the column-pruning projection
  // the scan-prune pass inserts (a, b are needed; s, ts are not).
  const PlanPtr& child = opt->children()[0];
  if (child->kind() == LogicalPlan::Kind::kProject) {
    EXPECT_GE(stats.scans_pruned, 1);
    EXPECT_EQ(child->children()[0]->kind(), LogicalPlan::Kind::kStreamScan);
  } else {
    EXPECT_EQ(child->kind(), LogicalPlan::Kind::kStreamScan);
  }
  auto analyzed = Analyzer::Analyze(opt);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ((*analyzed)->schema()->ToString(), "(twice: int64?)");
}

TEST(OptimizerTest, PrunesUnusedScanColumns) {
  // Aggregation needs only (a, ts); s and b should be pruned at the scan.
  DataFrame df = StreamDf()
                     .Where(Gt(Col("a"), Lit(0)))
                     .GroupBy({"a"})
                     .Agg({CountAll("n")});
  Optimizer::Stats stats;
  PlanPtr opt = Optimizer::Optimize(df.plan(), &stats);
  EXPECT_GE(stats.scans_pruned, 1);
  auto analyzed = Analyzer::Analyze(opt);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ((*analyzed)->schema()->ToString(), "(a: int64?, n: int64?)");
}

TEST(OptimizerTest, OptimizedStreamingPlanStillValidates) {
  DataFrame df = StreamDf()
                     .WithWatermark("ts", 1000)
                     .Where(Gt(Col("a"), Lit(0)))
                     .GroupBy({As(TumblingWindow(Col("ts"), 10000), "w")})
                     .Count();
  PlanPtr opt = Optimizer::Optimize(df.plan());
  auto analyzed = Analyzer::Analyze(opt);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_TRUE(ValidateStreamingQuery(*analyzed, OutputMode::kAppend).ok());
}

}  // namespace
}  // namespace sstreaming

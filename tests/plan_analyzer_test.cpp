#include "analysis/plan_analyzer.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "analysis/analyzer.h"
#include "connectors/memory.h"
#include "exec/query_manager.h"
#include "logical/dataframe.h"
#include "obs/listener.h"
#include "obs/metrics.h"

namespace sstreaming {
namespace {

constexpr int64_t kSecond = 1000000;

SchemaPtr EventSchema() {
  return Schema::Make({{"user", TypeId::kString, false},
                       {"latency", TypeId::kInt64, false},
                       {"country", TypeId::kString, true},
                       {"time", TypeId::kTimestamp, false}});
}

DataFrame StreamDf() {
  auto source = std::make_shared<MemoryStream>("events", EventSchema(), 2);
  return DataFrame::ReadStream(source);
}

DataFrame StaticDf() {
  return DataFrame::FromRows(
             Schema::Make({{"country", TypeId::kString, false},
                           {"region", TypeId::kString, false}}),
             {{Value::Str("ca"), Value::Str("na")}})
      .TakeValue();
}

/// Resolves the plan and runs the static analyzer over it.
PlanAnalysis AnalyzePlan(const DataFrame& df, OutputMode mode) {
  auto analyzed = Analyzer::Analyze(df.plan());
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  return PlanAnalyzer::Analyze(*analyzed, mode);
}

std::set<std::string> Watermarks(const DataFrame& df) {
  auto analyzed = Analyzer::Analyze(df.plan());
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  return PropagatedWatermarkColumns(*analyzed);
}

// ---------------------------------------------------------------------------
// Error codes (SS1xxx)

TEST(PlanAnalyzerTest, BatchPlanIsSS1001) {
  PlanAnalysis a = AnalyzePlan(StaticDf().GroupBy({"region"}).Count(),
                               OutputMode::kUpdate);
  EXPECT_TRUE(a.Has(DiagCode::kNotStreaming));
  EXPECT_TRUE(a.FirstErrorStatus().IsInvalidArgument());
  // A streaming plan never fires it.
  EXPECT_FALSE(AnalyzePlan(StreamDf(), OutputMode::kAppend)
                   .Has(DiagCode::kNotStreaming));
}

TEST(PlanAnalyzerTest, TwoAggregationsAreSS1002) {
  DataFrame df = StreamDf()
                     .GroupBy({"country"})
                     .Count()
                     .GroupBy({"count"})
                     .Agg({CountAll("n")});
  PlanAnalysis a = AnalyzePlan(df, OutputMode::kUpdate);
  EXPECT_TRUE(a.Has(DiagCode::kMultipleAggregations));
  // One aggregation is fine.
  EXPECT_FALSE(AnalyzePlan(StreamDf().GroupBy({"country"}).Count(),
                           OutputMode::kUpdate)
                   .Has(DiagCode::kMultipleAggregations));
}

TEST(PlanAnalyzerTest, AppendAggregateWithoutWatermarkIsSS1003) {
  DataFrame df = StreamDf().GroupBy({"country"}).Count();
  PlanAnalysis a = AnalyzePlan(df, OutputMode::kAppend);
  EXPECT_TRUE(a.Has(DiagCode::kAppendAggregateNoWatermark));
  // The message must name the operator and the mode.
  ASSERT_FALSE(a.errors().empty());
  const Diagnostic diag = a.errors()[0];
  EXPECT_NE(diag.message.find("Aggregate"), std::string::npos)
      << diag.message;
  EXPECT_NE(diag.message.find("append"), std::string::npos) << diag.message;
  // Watermarked tumbling-window aggregation is append-compatible.
  DataFrame ok =
      StreamDf()
          .WithWatermark("time", 10 * kSecond)
          .GroupBy({As(TumblingWindow(Col("time"), 30 * kSecond), "window")})
          .Count();
  EXPECT_FALSE(AnalyzePlan(ok, OutputMode::kAppend)
                   .Has(DiagCode::kAppendAggregateNoWatermark));
}

TEST(PlanAnalyzerTest, StreamStreamOuterJoinWithoutWatermarksIsSS1004) {
  auto s1 = std::make_shared<MemoryStream>("s1", EventSchema(), 1);
  auto s2 = std::make_shared<MemoryStream>("s2", EventSchema(), 1);
  DataFrame left = DataFrame::ReadStream(s1);
  DataFrame right = DataFrame::ReadStream(s2);

  DataFrame outer = left.Join(right, {"user"}, JoinType::kLeftOuter);
  EXPECT_TRUE(AnalyzePlan(outer, OutputMode::kAppend)
                  .Has(DiagCode::kStreamStreamOuterNoWatermark));

  DataFrame watermarked =
      left.WithWatermark("time", kSecond)
          .Join(right.WithWatermark("time", kSecond), {"user"},
                JoinType::kLeftOuter);
  EXPECT_FALSE(AnalyzePlan(watermarked, OutputMode::kAppend)
                   .Has(DiagCode::kStreamStreamOuterNoWatermark));
}

TEST(PlanAnalyzerTest, OuterJoinPreservingStaticSideIsSS1005) {
  DataFrame bad = StaticDf().Join(StreamDf(), {"country"},
                                  JoinType::kLeftOuter);
  PlanAnalysis a = AnalyzePlan(bad, OutputMode::kAppend);
  EXPECT_TRUE(a.Has(DiagCode::kStaticSidePreserved));
  EXPECT_TRUE(a.FirstErrorStatus().IsUnsupportedOperation());
  // Preserving the stream side is supported.
  DataFrame ok = StreamDf().Join(StaticDf(), {"country"},
                                 JoinType::kLeftOuter);
  EXPECT_FALSE(AnalyzePlan(ok, OutputMode::kAppend)
                   .Has(DiagCode::kStaticSidePreserved));
}

TEST(PlanAnalyzerTest, SortAndLimitOutsideCompleteAreSS1006AndSS1008) {
  DataFrame agg = StreamDf().GroupBy({"country"}).Count();
  DataFrame sorted = agg.OrderBy({SortKey{Col("count"), false}});
  PlanAnalysis a = AnalyzePlan(sorted.Limit(5), OutputMode::kUpdate);
  EXPECT_TRUE(a.Has(DiagCode::kSortNotComplete));
  EXPECT_TRUE(a.Has(DiagCode::kLimitNotComplete));
  // Both are legal in complete mode (top-K over the full result table).
  PlanAnalysis complete = AnalyzePlan(sorted.Limit(5), OutputMode::kComplete);
  EXPECT_FALSE(complete.Has(DiagCode::kSortNotComplete));
  EXPECT_FALSE(complete.Has(DiagCode::kLimitNotComplete));
  EXPECT_FALSE(complete.has_errors());
}

TEST(PlanAnalyzerTest, SortWithoutAggregationIsSS1007) {
  DataFrame raw = StreamDf().OrderBy({SortKey{Col("latency"), true}});
  EXPECT_TRUE(AnalyzePlan(raw, OutputMode::kComplete)
                  .Has(DiagCode::kSortBeforeAggregation));
}

TEST(PlanAnalyzerTest, EventTimeTimeoutWithoutWatermarkIsSS1009) {
  SchemaPtr out_schema = Schema::Make({{"user", TypeId::kString, false},
                                       {"events", TypeId::kInt64, false}});
  GroupUpdateFn fn = [](const Row&, const std::vector<Row>&,
                        GroupState*) -> Result<std::vector<Row>> {
    return std::vector<Row>{};
  };
  DataFrame no_wm = StreamDf()
                        .GroupByKey({As(Col("user"), "user")})
                        .FlatMapGroupsWithState(
                            fn, out_schema, GroupStateTimeout::kEventTime);
  EXPECT_TRUE(AnalyzePlan(no_wm, OutputMode::kUpdate)
                  .Has(DiagCode::kEventTimeTimeoutNoWatermark));

  DataFrame with_wm = StreamDf()
                          .WithWatermark("time", kSecond)
                          .GroupByKey({As(Col("user"), "user")})
                          .FlatMapGroupsWithState(
                              fn, out_schema, GroupStateTimeout::kEventTime);
  EXPECT_FALSE(AnalyzePlan(with_wm, OutputMode::kUpdate)
                   .Has(DiagCode::kEventTimeTimeoutNoWatermark));
}

TEST(PlanAnalyzerTest, CompleteModeWithoutAggregationIsSS1010) {
  DataFrame df = StreamDf().Where(Eq(Col("country"), Lit("ca")));
  EXPECT_TRUE(AnalyzePlan(df, OutputMode::kComplete)
                  .Has(DiagCode::kCompleteNoAggregation));
  EXPECT_FALSE(AnalyzePlan(StreamDf().GroupBy({"country"}).Count(),
                           OutputMode::kComplete)
                   .Has(DiagCode::kCompleteNoAggregation));
}

// ---------------------------------------------------------------------------
// All violations reported, not first-error-wins

TEST(PlanAnalyzerTest, ReportsEveryViolationWithProvenance) {
  // Two independent violations in one plan: sort outside complete mode AND
  // limit outside complete mode, on top of an unwatermarked aggregate.
  DataFrame df = StreamDf()
                     .GroupBy({"country"})
                     .Count()
                     .OrderBy({SortKey{Col("count"), false}})
                     .Limit(3);
  PlanAnalysis a = AnalyzePlan(df, OutputMode::kUpdate);
  EXPECT_GE(a.errors().size(), 2u);
  for (const Diagnostic& d : a.errors()) {
    EXPECT_FALSE(d.node.empty()) << DiagCodeString(d.code);
    EXPECT_FALSE(d.path.empty()) << DiagCodeString(d.code);
  }
  // Explain() renders the summary and each code.
  std::string text = a.Explain();
  EXPECT_NE(text.find("error"), std::string::npos) << text;
  EXPECT_NE(text.find("SS1006"), std::string::npos) << text;
  EXPECT_NE(text.find("SS1008"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Warning codes (SS2xxx)

TEST(PlanAnalyzerTest, UnwatermarkedAggregateWarnsSS2001WithGrowthEstimate) {
  DataFrame df = StreamDf().GroupBy({"country"}).Count();
  PlanAnalysis a = AnalyzePlan(df, OutputMode::kUpdate);
  ASSERT_TRUE(a.Has(DiagCode::kUnboundedAggregationState));
  EXPECT_FALSE(a.has_errors());
  EXPECT_TRUE(a.FirstErrorStatus().ok());  // warnings never fail a query
  const Diagnostic w = a.warnings()[0];
  EXPECT_EQ(w.severity, DiagSeverity::kWarning);
  EXPECT_NE(w.state_growth.find("O("), std::string::npos) << w.state_growth;
  // Watermarked windowed aggregation bounds its state: no warning.
  DataFrame ok =
      StreamDf()
          .WithWatermark("time", 10 * kSecond)
          .GroupBy({As(TumblingWindow(Col("time"), 30 * kSecond), "window")})
          .Count();
  EXPECT_FALSE(AnalyzePlan(ok, OutputMode::kUpdate)
                   .Has(DiagCode::kUnboundedAggregationState));
}

TEST(PlanAnalyzerTest, DistinctWithoutWatermarkWarnsSS2002) {
  EXPECT_TRUE(AnalyzePlan(StreamDf().Distinct(), OutputMode::kAppend)
                  .Has(DiagCode::kUnboundedDistinctState));
}

// The dedup operator never evicts, so a watermark does not silence SS2002.
TEST(PlanAnalyzerTest, WatermarkedDistinctStillWarnsSS2002) {
  DataFrame df = StreamDf().WithWatermark("time", 10 * kSecond).Distinct();
  PlanAnalysis a = AnalyzePlan(df, OutputMode::kAppend);
  ASSERT_TRUE(a.Has(DiagCode::kUnboundedDistinctState));
  EXPECT_FALSE(a.has_errors());
  for (const Diagnostic& w : a.warnings()) {
    if (w.code != DiagCode::kUnboundedDistinctState) continue;
    EXPECT_EQ(w.message.find("add withWatermark()"), std::string::npos)
        << w.message;
    EXPECT_NE(w.message.find("window()"), std::string::npos) << w.message;
  }
}

// Nor does a projection that drops the watermark under a Distinct warn
// SS2004: forwarding the column would not bound the Distinct's state.
TEST(PlanAnalyzerTest, ProjectionUnderDistinctIsNotSS2004) {
  DataFrame df = StreamDf()
                     .WithWatermark("time", 10 * kSecond)
                     .Select({As(Col("user"), "user")})
                     .Distinct();
  PlanAnalysis a = AnalyzePlan(df, OutputMode::kAppend);
  EXPECT_TRUE(a.Has(DiagCode::kUnboundedDistinctState));
  EXPECT_FALSE(a.Has(DiagCode::kWatermarkDroppedByProjection));
}

TEST(PlanAnalyzerTest, InnerStreamStreamJoinWithoutWatermarkWarnsSS2003) {
  auto s1 = std::make_shared<MemoryStream>("s1", EventSchema(), 1);
  auto s2 = std::make_shared<MemoryStream>("s2", EventSchema(), 1);
  DataFrame joined = DataFrame::ReadStream(s1).Join(
      DataFrame::ReadStream(s2), {"user"});
  PlanAnalysis a = AnalyzePlan(joined, OutputMode::kAppend);
  EXPECT_TRUE(a.Has(DiagCode::kUnboundedJoinState));
  EXPECT_FALSE(a.has_errors());  // inner join is legal, just unbounded
  // Stream-static joins keep no unbounded stream state: no warning.
  EXPECT_FALSE(AnalyzePlan(StreamDf().Join(StaticDf(), {"country"}),
                           OutputMode::kAppend)
                   .Has(DiagCode::kUnboundedJoinState));
}

TEST(PlanAnalyzerTest, ProjectionDroppingWatermarkWarnsSS2004) {
  // The projection drops `time` (the watermarked column) before the
  // aggregation, so the watermark cannot bound the aggregate's state.
  DataFrame df = StreamDf()
                     .WithWatermark("time", 10 * kSecond)
                     .Select({As(Col("country"), "country"),
                              As(Col("latency"), "latency")})
                     .GroupBy({"country"})
                     .Count();
  EXPECT_TRUE(AnalyzePlan(df, OutputMode::kUpdate)
                  .Has(DiagCode::kWatermarkDroppedByProjection));
  // Keeping the watermarked column does not warn.
  DataFrame ok =
      StreamDf()
          .WithWatermark("time", 10 * kSecond)
          .Select({As(Col("country"), "country"), As(Col("time"), "time")})
          .GroupBy({As(TumblingWindow(Col("time"), 30 * kSecond), "window")})
          .Count();
  EXPECT_FALSE(AnalyzePlan(ok, OutputMode::kUpdate)
                   .Has(DiagCode::kWatermarkDroppedByProjection));
}

TEST(PlanAnalyzerTest, CompleteModeWarnsSS2005) {
  DataFrame df = StreamDf().GroupBy({"country"}).Count();
  EXPECT_TRUE(AnalyzePlan(df, OutputMode::kComplete)
                  .Has(DiagCode::kCompleteModeMemory));
  EXPECT_FALSE(AnalyzePlan(df, OutputMode::kUpdate)
                   .Has(DiagCode::kCompleteModeMemory));
}

TEST(PlanAnalyzerTest, StateWithoutTimeoutWarnsSS2006) {
  SchemaPtr out_schema = Schema::Make({{"user", TypeId::kString, false},
                                       {"events", TypeId::kInt64, false}});
  GroupUpdateFn fn = [](const Row&, const std::vector<Row>&,
                        GroupState*) -> Result<std::vector<Row>> {
    return std::vector<Row>{};
  };
  DataFrame df = StreamDf()
                     .GroupByKey({As(Col("user"), "user")})
                     .FlatMapGroupsWithState(fn, out_schema,
                                             GroupStateTimeout::kNone);
  EXPECT_TRUE(AnalyzePlan(df, OutputMode::kUpdate)
                  .Has(DiagCode::kStateWithoutTimeout));
  DataFrame with_timeout =
      StreamDf()
          .GroupByKey({As(Col("user"), "user")})
          .FlatMapGroupsWithState(fn, out_schema,
                                  GroupStateTimeout::kProcessingTime);
  EXPECT_FALSE(AnalyzePlan(with_timeout, OutputMode::kUpdate)
                   .Has(DiagCode::kStateWithoutTimeout));
}

// ---------------------------------------------------------------------------
// Watermark propagation

TEST(WatermarkPropagationTest, SurvivesFilterAndRenamingProjection) {
  DataFrame df = StreamDf().WithWatermark("time", kSecond);
  EXPECT_EQ(Watermarks(df), std::set<std::string>{"time"});
  // Filter passes it through untouched.
  EXPECT_EQ(Watermarks(df.Where(Eq(Col("country"), Lit("ca")))),
            std::set<std::string>{"time"});
  // A projection that renames the column renames the watermark with it.
  DataFrame renamed = df.Select(
      {As(Col("user"), "user"), As(Col("time"), "event_time")});
  EXPECT_EQ(Watermarks(renamed), std::set<std::string>{"event_time"});
  // A computed expression over the column does NOT carry the watermark.
  DataFrame computed = df.Select(
      {As(Col("user"), "user"), As(Add(Col("time"), Lit(1)), "t2")});
  EXPECT_TRUE(Watermarks(computed).empty());
}

TEST(WatermarkPropagationTest, DroppedByProjection) {
  DataFrame df = StreamDf()
                     .WithWatermark("time", kSecond)
                     .Select({As(Col("user"), "user")});
  EXPECT_TRUE(Watermarks(df).empty());
}

TEST(WatermarkPropagationTest, FlowsThroughJoinFromBothSides) {
  auto s1 = std::make_shared<MemoryStream>("s1", EventSchema(), 1);
  auto s2 = std::make_shared<MemoryStream>(
      "s2",
      Schema::Make({{"user", TypeId::kString, false},
                    {"click_time", TypeId::kTimestamp, false}}),
      1);
  DataFrame left = DataFrame::ReadStream(s1).WithWatermark("time", kSecond);
  DataFrame right =
      DataFrame::ReadStream(s2).WithWatermark("click_time", kSecond);
  DataFrame joined = left.Join(right, {"user"});
  EXPECT_EQ(Watermarks(joined),
            (std::set<std::string>{"time", "click_time"}));
}

TEST(WatermarkPropagationTest, WindowAggregateExportsWindowBounds) {
  DataFrame df =
      StreamDf()
          .WithWatermark("time", 10 * kSecond)
          .GroupBy({As(TumblingWindow(Col("time"), 30 * kSecond), "window")})
          .Count();
  EXPECT_EQ(Watermarks(df),
            (std::set<std::string>{"window_start", "window_end"}));
}

// ---------------------------------------------------------------------------
// End-to-end: warnings reach the listener and the metrics registry

TEST(PlanAnalyzerEndToEndTest, UnboundedStateWarningSurfacesEverywhere) {
  auto stream = std::make_shared<MemoryStream>(
      "events",
      Schema::Make({{"k", TypeId::kString, false},
                    {"v", TypeId::kInt64, false}}),
      1);
  auto sink = std::make_shared<MemorySink>();
  auto listener = std::make_shared<CollectingListener>();
  auto metrics = std::make_shared<MetricsRegistry>();

  QueryManager manager;
  manager.AddListener(listener);
  QueryOptions options;
  options.mode = OutputMode::kUpdate;
  options.metrics = metrics;
  // Aggregation with no watermark: runs, but keeps state forever (SS2001).
  ASSERT_TRUE(manager
                  .StartQuerySynchronous(
                      "unbounded",
                      DataFrame::ReadStream(stream).GroupBy({"k"}).Count(),
                      sink, options)
                  .ok());
  ASSERT_TRUE(stream->AddData({{Value::Str("a"), Value::Int64(1)}}).ok());
  ASSERT_TRUE(manager.ProcessAllAvailable().ok());
  ASSERT_TRUE(manager.StopQuery("unbounded").ok());

  // 1) The started event carries the structured warning.
  ASSERT_EQ(listener->started().size(), 1u);
  const std::vector<Diagnostic> warnings =
      listener->started()[0].plan_warnings;
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].code, DiagCode::kUnboundedAggregationState);
  EXPECT_EQ(warnings[0].severity, DiagSeverity::kWarning);
  EXPECT_FALSE(warnings[0].state_growth.empty());

  // 2) The metrics registry counted it, labeled with the stable code.
  Counter* counter = metrics->GetCounter("sstreaming_plan_warnings_total",
                                         {{"code", "SS2001"}});
  EXPECT_EQ(counter->value(), 1);
}

TEST(PlanAnalyzerEndToEndTest, CleanQueryProducesNoWarnings) {
  auto stream = std::make_shared<MemoryStream>(
      "events",
      Schema::Make({{"k", TypeId::kString, false},
                    {"v", TypeId::kInt64, false}}),
      1);
  auto listener = std::make_shared<CollectingListener>();
  QueryManager manager;
  manager.AddListener(listener);
  ASSERT_TRUE(manager
                  .StartQuerySynchronous(
                      "clean",
                      DataFrame::ReadStream(stream).Where(
                          Eq(Col("k"), Lit("a"))),
                      std::make_shared<MemorySink>(), QueryOptions())
                  .ok());
  ASSERT_TRUE(manager.StopQuery("clean").ok());
  ASSERT_EQ(listener->started().size(), 1u);
  EXPECT_TRUE(listener->started()[0].plan_warnings.empty());
}

}  // namespace
}  // namespace sstreaming

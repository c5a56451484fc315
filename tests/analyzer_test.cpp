#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include "connectors/memory.h"
#include "logical/dataframe.h"

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

TEST(AnalyzerTest, ResolvesSimplePipeline) {
  DataFrame df = StreamDf()
                     .Where(Eq(Col("country"), Lit("ca")))
                     .Select({As(Col("user"), "user"),
                              As(Mul(Col("latency"), Lit(2)), "lat2")});
  auto analyzed = Analyzer::Analyze(df.plan());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ((*analyzed)->schema()->ToString(),
            "(user: string?, lat2: int64?)");
  EXPECT_TRUE((*analyzed)->IsStreaming());
}

TEST(AnalyzerTest, UnknownColumnFails) {
  DataFrame df = StreamDf().Where(Eq(Col("nope"), Lit(1)));
  auto analyzed = Analyzer::Analyze(df.plan());
  ASSERT_FALSE(analyzed.ok());
  EXPECT_TRUE(analyzed.status().IsAnalysisError());
}

TEST(AnalyzerTest, FilterMustBeBoolean) {
  DataFrame df = StreamDf().Where(Add(Col("latency"), Lit(1)));
  EXPECT_FALSE(Analyzer::Analyze(df.plan()).ok());
}

TEST(AnalyzerTest, ProjectRejectsDuplicateNames) {
  DataFrame df = StreamDf().Select(
      {As(Col("user"), "x"), As(Col("country"), "x")});
  EXPECT_FALSE(Analyzer::Analyze(df.plan()).ok());
}

TEST(AnalyzerTest, WithColumnExpandsStar) {
  DataFrame df = StreamDf().WithColumn("lat_ms", Div(Col("latency"),
                                                     Lit(1000)));
  auto analyzed = Analyzer::Analyze(df.plan());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ((*analyzed)->schema()->num_fields(), 5);
  EXPECT_EQ((*analyzed)->schema()->field(4).name, "lat_ms");
  // Replacing an existing column keeps arity.
  DataFrame df2 = StreamDf().WithColumn("latency", Mul(Col("latency"),
                                                       Lit(2)));
  auto analyzed2 = Analyzer::Analyze(df2.plan());
  ASSERT_TRUE(analyzed2.ok());
  EXPECT_EQ((*analyzed2)->schema()->num_fields(), 4);
}

TEST(AnalyzerTest, AggregateSchema) {
  DataFrame df = StreamDf().GroupBy({"country"}).Agg(
      {CountAll("n"), AvgOf(Col("latency"), "avg_latency")});
  auto analyzed = Analyzer::Analyze(df.plan());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ((*analyzed)->schema()->ToString(),
            "(country: string?, n: int64?, avg_latency: float64?)");
}

TEST(AnalyzerTest, GroupedSumAndAvgSchema) {
  auto analyzed = Analyzer::Analyze(
      StreamDf().GroupBy({"country"}).Sum("latency").plan());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ((*analyzed)->schema()->ToString(),
            "(country: string?, sum: int64?)");
  analyzed = Analyzer::Analyze(
      StreamDf().GroupBy({"country"}).Avg("latency", "mean").plan());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ((*analyzed)->schema()->ToString(),
            "(country: string?, mean: float64?)");
}

TEST(AnalyzerTest, WindowedAggregateSchemaHasStartEnd) {
  DataFrame df =
      StreamDf()
          .GroupBy({As(TumblingWindow(Col("time"), 30 * kSecond), "window")})
          .Count();
  auto analyzed = Analyzer::Analyze(df.plan());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ((*analyzed)->schema()->ToString(),
            "(window_start: timestamp, window_end: timestamp, "
            "count: int64?)");
}

TEST(AnalyzerTest, WatermarkValidation) {
  EXPECT_TRUE(
      Analyzer::Analyze(StreamDf().WithWatermark("time", kSecond).plan())
          .ok());
  EXPECT_FALSE(
      Analyzer::Analyze(StreamDf().WithWatermark("latency", kSecond).plan())
          .ok());
  EXPECT_FALSE(
      Analyzer::Analyze(StreamDf().WithWatermark("missing", kSecond).plan())
          .ok());
}

TEST(AnalyzerTest, JoinSchemaDropsDuplicateKey) {
  DataFrame joined = StreamDf().Join(StaticDf(), {"country"});
  auto analyzed = Analyzer::Analyze(joined.plan());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  // country appears once; region appended.
  EXPECT_EQ((*analyzed)->schema()->ToString(),
            "(user: string, latency: int64, country: string?, "
            "time: timestamp, region: string?)");
}

// A RIGHT OUTER join null-pads the left columns of an unmatched right row,
// so they are nullable; the USING key takes the right row's key and stays
// non-nullable when that key is.
TEST(AnalyzerTest, RightOuterJoinMakesLeftColumnsNullable) {
  auto side = [](const char* value) {
    return DataFrame::FromRows(Schema::Make({{"k", TypeId::kInt64, false},
                                             {value, TypeId::kString, false}}),
                               {})
        .TakeValue();
  };
  auto analyzed = Analyzer::Analyze(
      side("l").Join(side("r"), {"k"}, JoinType::kRightOuter).plan());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ((*analyzed)->schema()->ToString(),
            "(k: int64, l: string?, r: string?)");
  // A nullable right key makes the USING column nullable too.
  DataFrame nullable_key =
      DataFrame::FromRows(Schema::Make({{"k", TypeId::kInt64, true},
                                        {"r", TypeId::kString, false}}),
                          {})
          .TakeValue();
  analyzed = Analyzer::Analyze(
      side("l").Join(nullable_key, {"k"}, JoinType::kRightOuter).plan());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ((*analyzed)->schema()->ToString(),
            "(k: int64?, l: string?, r: string?)");
}

TEST(AnalyzerTest, JoinKeyTypeMismatch) {
  DataFrame joined =
      StreamDf().Join(StaticDf(), {Col("latency")}, {Col("country")});
  EXPECT_FALSE(Analyzer::Analyze(joined.plan()).ok());
}

// --- Output mode validation (§5.1) ---

TEST(OutputModeTest, AppendWithNonWindowedAggregationRejected) {
  // The paper's canonical example: counts by country can never be final.
  DataFrame df = StreamDf().GroupBy({"country"}).Count();
  auto analyzed = Analyzer::Analyze(df.plan()).TakeValue();
  Status s = ValidateStreamingQuery(analyzed, OutputMode::kAppend);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsAnalysisError());
  EXPECT_TRUE(ValidateStreamingQuery(analyzed, OutputMode::kUpdate).ok());
  EXPECT_TRUE(ValidateStreamingQuery(analyzed, OutputMode::kComplete).ok());
}

TEST(OutputModeTest, AppendWithWatermarkedWindowAggregationAllowed) {
  DataFrame df =
      StreamDf()
          .WithWatermark("time", 10 * kSecond)
          .GroupBy({As(TumblingWindow(Col("time"), 30 * kSecond), "window")})
          .Count();
  auto analyzed = Analyzer::Analyze(df.plan()).TakeValue();
  EXPECT_TRUE(ValidateStreamingQuery(analyzed, OutputMode::kAppend).ok());
}

TEST(OutputModeTest, AppendWindowWithoutWatermarkRejected) {
  DataFrame df =
      StreamDf()
          .GroupBy({As(TumblingWindow(Col("time"), 30 * kSecond), "window")})
          .Count();
  auto analyzed = Analyzer::Analyze(df.plan()).TakeValue();
  EXPECT_FALSE(ValidateStreamingQuery(analyzed, OutputMode::kAppend).ok());
}

TEST(OutputModeTest, CompleteRequiresAggregation) {
  DataFrame df = StreamDf().Where(Eq(Col("country"), Lit("ca")));
  auto analyzed = Analyzer::Analyze(df.plan()).TakeValue();
  Status s = ValidateStreamingQuery(analyzed, OutputMode::kComplete);
  ASSERT_FALSE(s.ok());
  // Map-only queries are fine in append mode.
  EXPECT_TRUE(ValidateStreamingQuery(analyzed, OutputMode::kAppend).ok());
}

TEST(OutputModeTest, TwoStreamingAggregationsRejected) {
  DataFrame df = StreamDf()
                     .GroupBy({"country"})
                     .Count()
                     .GroupBy({"count"})
                     .Agg({CountAll("n")});
  auto analyzed = Analyzer::Analyze(df.plan()).TakeValue();
  Status s = ValidateStreamingQuery(analyzed, OutputMode::kUpdate);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnsupportedOperation());
}

TEST(OutputModeTest, SortOnlyInCompleteAfterAggregation) {
  DataFrame agg = StreamDf().GroupBy({"country"}).Count();
  DataFrame sorted = agg.OrderBy({SortKey{Col("count"), false}});
  auto analyzed = Analyzer::Analyze(sorted.plan()).TakeValue();
  EXPECT_TRUE(ValidateStreamingQuery(analyzed, OutputMode::kComplete).ok());
  EXPECT_FALSE(ValidateStreamingQuery(analyzed, OutputMode::kUpdate).ok());
  // Sorting the raw stream is never allowed.
  DataFrame raw_sorted = StreamDf().OrderBy({SortKey{Col("latency"), true}});
  auto analyzed2 = Analyzer::Analyze(raw_sorted.plan()).TakeValue();
  EXPECT_FALSE(
      ValidateStreamingQuery(analyzed2, OutputMode::kComplete).ok());
}

TEST(OutputModeTest, StreamStreamOuterJoinNeedsWatermarks) {
  auto s1 = std::make_shared<MemoryStream>("s1", EventSchema(), 1);
  auto s2 = std::make_shared<MemoryStream>("s2", EventSchema(), 1);
  DataFrame left = DataFrame::ReadStream(s1);
  DataFrame right = DataFrame::ReadStream(s2);

  DataFrame inner = left.Join(right, {"user"});
  auto analyzed = Analyzer::Analyze(inner.plan()).TakeValue();
  EXPECT_TRUE(ValidateStreamingQuery(analyzed, OutputMode::kAppend).ok());

  DataFrame outer = left.Join(right, {"user"}, JoinType::kLeftOuter);
  auto analyzed2 = Analyzer::Analyze(outer.plan()).TakeValue();
  EXPECT_FALSE(ValidateStreamingQuery(analyzed2, OutputMode::kAppend).ok());

  DataFrame outer_wm =
      left.WithWatermark("time", kSecond)
          .Join(right.WithWatermark("time", kSecond), {"user"},
                JoinType::kLeftOuter);
  auto analyzed3 = Analyzer::Analyze(outer_wm.plan()).TakeValue();
  EXPECT_TRUE(ValidateStreamingQuery(analyzed3, OutputMode::kAppend).ok());
}

TEST(OutputModeTest, StreamStaticOuterMustPreserveStream) {
  DataFrame stream = StreamDf();
  DataFrame táble = StaticDf();
  // stream LEFT OUTER static: ok (stream preserved).
  auto ok_plan = Analyzer::Analyze(
                     stream.Join(táble, {"country"}, JoinType::kLeftOuter)
                         .plan())
                     .TakeValue();
  EXPECT_TRUE(ValidateStreamingQuery(ok_plan, OutputMode::kAppend).ok());
  // static LEFT OUTER stream: rejected.
  auto bad_plan = Analyzer::Analyze(
                      táble.Join(stream, {"country"}, JoinType::kLeftOuter)
                          .plan())
                      .TakeValue();
  EXPECT_FALSE(ValidateStreamingQuery(bad_plan, OutputMode::kAppend).ok());
}

TEST(OutputModeTest, BatchPlanRejectedByStreamingValidator) {
  DataFrame df = StaticDf().GroupBy({"region"}).Count();
  auto analyzed = Analyzer::Analyze(df.plan()).TakeValue();
  EXPECT_FALSE(ValidateStreamingQuery(analyzed, OutputMode::kUpdate).ok());
}

TEST(OutputModeTest, MapGroupsEventTimeTimeoutNeedsWatermark) {
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
  auto analyzed = Analyzer::Analyze(no_wm.plan()).TakeValue();
  EXPECT_FALSE(ValidateStreamingQuery(analyzed, OutputMode::kUpdate).ok());

  DataFrame with_wm = StreamDf()
                          .WithWatermark("time", kSecond)
                          .GroupByKey({As(Col("user"), "user")})
                          .FlatMapGroupsWithState(
                              fn, out_schema, GroupStateTimeout::kEventTime);
  auto analyzed2 = Analyzer::Analyze(with_wm.plan()).TakeValue();
  EXPECT_TRUE(ValidateStreamingQuery(analyzed2, OutputMode::kUpdate).ok());
}

}  // namespace
}  // namespace sstreaming

#include "sql/parser.h"

#include <gtest/gtest.h>

#include "connectors/memory.h"
#include "exec/batch_executor.h"
#include "exec/streaming_query.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

SqlContext MakeContext() {
  SqlContext ctx;
  auto sales = DataFrame::FromRows(
                   Schema::Make({{"region", TypeId::kString, false},
                                 {"amount", TypeId::kInt64, false},
                                 {"ts", TypeId::kTimestamp, false}}),
                   {{Value::Str("na"), Value::Int64(10), Value::Timestamp(1)},
                    {Value::Str("na"), Value::Int64(20), Value::Timestamp(2)},
                    {Value::Str("eu"), Value::Int64(5), Value::Timestamp(3)},
                    {Value::Str("eu"), Value::Int64(7), Value::Timestamp(4)},
                    {Value::Str("ap"), Value::Int64(100),
                     Value::Timestamp(5)}})
                   .TakeValue();
  ctx.RegisterTable("sales", sales);
  auto regions =
      DataFrame::FromRows(Schema::Make({{"region", TypeId::kString, false},
                                        {"name", TypeId::kString, false}}),
                          {{Value::Str("na"), Value::Str("North America")},
                           {Value::Str("eu"), Value::Str("Europe")}})
          .TakeValue();
  ctx.RegisterTable("regions", regions);
  return ctx;
}

std::vector<Row> RunSql(const SqlContext& ctx, const std::string& sql) {
  auto df = ctx.Sql(sql);
  EXPECT_TRUE(df.ok()) << sql << " -> " << df.status().ToString();
  if (!df.ok()) return {};
  auto rows = RunBatchSorted(*df);
  EXPECT_TRUE(rows.ok()) << sql << " -> " << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Row>{};
}

TEST(SqlTest, SelectStar) {
  auto ctx = MakeContext();
  EXPECT_EQ(RunSql(ctx, "SELECT * FROM sales").size(), 5u);
}

TEST(SqlTest, WhereAndProjection) {
  auto ctx = MakeContext();
  auto rows = RunSql(ctx, "SELECT amount * 2 AS double_amount FROM sales "
                       "WHERE region = 'na'");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int64(20));
  EXPECT_EQ(rows[1][0], Value::Int64(40));
}

TEST(SqlTest, OperatorsAndPrecedence) {
  auto ctx = MakeContext();
  // 2 + 3 * 4 = 14 (not 20); AND binds tighter than OR.
  auto rows = RunSql(ctx, "SELECT amount FROM sales WHERE amount = 2 + 3 * 4 "
                       "OR region = 'ap' AND amount >= 100");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(100));
}

TEST(SqlTest, GroupByAggregates) {
  auto ctx = MakeContext();
  auto rows = RunSql(ctx,
                  "SELECT region, COUNT(*) AS n, SUM(amount) AS total, "
                  "AVG(amount) AS mean FROM sales GROUP BY region");
  ASSERT_EQ(rows.size(), 3u);
  // sorted: ap, eu, na
  EXPECT_EQ(rows[0][0], Value::Str("ap"));
  EXPECT_EQ(rows[0][1], Value::Int64(1));
  EXPECT_EQ(rows[1][2], Value::Int64(12));          // eu total
  EXPECT_DOUBLE_EQ(rows[2][3].float64_value(), 15);  // na mean
}

TEST(SqlTest, GlobalAggregate) {
  auto ctx = MakeContext();
  auto rows = RunSql(ctx, "SELECT MIN(amount) AS lo, MAX(amount) AS hi "
                       "FROM sales");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(5));
  EXPECT_EQ(rows[0][1], Value::Int64(100));
}

TEST(SqlTest, JoinUsing) {
  auto ctx = MakeContext();
  auto rows = RunSql(ctx, "SELECT name, amount FROM sales "
                       "JOIN regions USING (region) WHERE amount > 6");
  ASSERT_EQ(rows.size(), 3u);  // na 10, na 20, eu 7
}

TEST(SqlTest, LeftJoinOn) {
  auto ctx = MakeContext();
  auto rows = RunSql(ctx, "SELECT region, name FROM sales "
                       "LEFT JOIN regions ON region = region");
  ASSERT_EQ(rows.size(), 5u);
  // 'ap' has no region entry -> NULL name.
  EXPECT_EQ(rows[0][0], Value::Str("ap"));
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST(SqlTest, HavingOrderLimit) {
  auto ctx = MakeContext();
  auto df = ctx.Sql(
      "SELECT region, SUM(amount) AS total FROM sales GROUP BY region "
      "HAVING total < 100 ORDER BY total DESC LIMIT 1");
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  auto rows = RunBatch(*df);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Str("na"));
  EXPECT_EQ((*rows)[0][1], Value::Int64(30));
}

TEST(SqlTest, Distinct) {
  auto ctx = MakeContext();
  EXPECT_EQ(RunSql(ctx, "SELECT DISTINCT region FROM sales").size(), 3u);
}

TEST(SqlTest, CastAndIsNull) {
  auto ctx = MakeContext();
  auto rows = RunSql(ctx, "SELECT CAST(amount AS STRING) AS s FROM sales "
                       "WHERE region IS NOT NULL AND amount = 100");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Str("100"));
}

TEST(SqlTest, ParseIntervals) {
  EXPECT_EQ(*ParseIntervalMicros("10 seconds"), 10 * kSec);
  EXPECT_EQ(*ParseIntervalMicros("5 minutes"), 300 * kSec);
  EXPECT_EQ(*ParseIntervalMicros("1 hour"), 3600 * kSec);
  EXPECT_EQ(*ParseIntervalMicros("250 ms"), 250000);
  EXPECT_FALSE(ParseIntervalMicros("ten seconds").ok());
  EXPECT_FALSE(ParseIntervalMicros("5 parsecs").ok());
}

TEST(SqlTest, SyntaxErrorsAreReported) {
  auto ctx = MakeContext();
  EXPECT_FALSE(ctx.Sql("SELEC * FROM sales").ok());
  EXPECT_FALSE(ctx.Sql("SELECT FROM sales").ok());
  EXPECT_FALSE(ctx.Sql("SELECT * FROM nope").ok());
  EXPECT_FALSE(ctx.Sql("SELECT * FROM sales WHERE").ok());
  EXPECT_FALSE(ctx.Sql("SELECT * FROM sales LIMIT x").ok());
  EXPECT_FALSE(ctx.Sql("SELECT * FROM sales trailing garbage").ok());
  // Analysis errors surface at analysis, not parse.
  auto df = ctx.Sql("SELECT missing_col FROM sales");
  ASSERT_TRUE(df.ok());
  EXPECT_FALSE(RunBatch(*df).ok());
}

// A numeric literal that its type cannot hold is a parse error, not an
// uncaught exception.
TEST(SqlTest, OutOfRangeNumericLiteralsAreErrors) {
  auto ctx = MakeContext();
  const std::string big_float = std::string(400, '9') + ".5";
  for (const std::string& sql :
       {std::string("SELECT * FROM sales LIMIT 99999999999999999999"),
        std::string("SELECT amount + 99999999999999999999 FROM sales"),
        std::string("SELECT amount + 9223372036854775808 FROM sales"),
        "SELECT amount * " + big_float + " FROM sales",
        std::string("SELECT amount * 1.2.3 FROM sales")}) {
    auto df = ctx.Sql(sql);
    ASSERT_FALSE(df.ok()) << sql;
    EXPECT_TRUE(df.status().IsInvalidArgument()) << df.status().ToString();
  }
  EXPECT_FALSE(ParseIntervalMicros(std::string(400, '9') + " seconds").ok());
  EXPECT_FALSE(ParseIntervalMicros("9999999999999999 days").ok());
  // The largest int64 literal still parses.
  auto rows = RunSql(ctx,
                     "SELECT 9223372036854775807 AS m FROM sales LIMIT 1");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(INT64_MAX));
}

// `%` over a FLOAT64 operand is a FLOAT64 fmod, and INT64_MIN % -1 is 0.
TEST(SqlTest, ModuloOfFloatsAndOfInt64MinByMinusOne) {
  SqlContext ctx;
  ctx.RegisterTable(
      "t", DataFrame::FromRows(Schema::Make({{"a", TypeId::kInt64, false},
                                             {"b", TypeId::kInt64, false},
                                             {"x", TypeId::kFloat64, false}}),
                               {{Value::Int64(INT64_MIN), Value::Int64(-1),
                                 Value::Float64(7.5)}})
               .TakeValue());
  auto rows = RunSql(ctx, "SELECT a % b AS m, x % 2 AS f FROM t");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(0));
  EXPECT_EQ(rows[0][1].type(), TypeId::kFloat64);
  EXPECT_EQ(rows[0][1], Value::Float64(1.5));
}

TEST(SqlTest, NonAggregateSelectItemMustBeGrouped) {
  auto ctx = MakeContext();
  EXPECT_FALSE(
      ctx.Sql("SELECT ts, COUNT(*) FROM sales GROUP BY region").ok());
}

// --- The paper's headline: the SAME SQL text runs as batch or streaming ---

TEST(SqlTest, StreamingSqlWindowedQuery) {
  auto schema = Schema::Make({{"campaign", TypeId::kString, false},
                              {"event_time", TypeId::kTimestamp, false}});
  auto stream = std::make_shared<MemoryStream>("clicks", schema, 2);
  SqlContext ctx;
  ctx.RegisterTable("clicks", DataFrame::ReadStream(stream));

  auto df = ctx.Sql(
      "SELECT window(event_time, '10 seconds') AS w, campaign, "
      "COUNT(*) AS clicks FROM clicks GROUP BY "
      "window(event_time, '10 seconds'), campaign");
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  EXPECT_TRUE(df->IsStreaming());

  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 2;
  auto query = StreamingQuery::Start(*df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream
                  ->AddData({{Value::Str("c1"), Value::Timestamp(1 * kSec)},
                             {Value::Str("c1"), Value::Timestamp(2 * kSec)},
                             {Value::Str("c2"), Value::Timestamp(15 * kSec)}})
                  .ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  // (w_start, w_end, campaign, clicks)
  EXPECT_EQ(rows[0][0], Value::Timestamp(0));
  EXPECT_EQ(rows[0][2], Value::Str("c1"));
  EXPECT_EQ(rows[0][3], Value::Int64(2));
  EXPECT_EQ(rows[1][0], Value::Timestamp(10 * kSec));
  EXPECT_EQ(rows[1][3], Value::Int64(1));
}

TEST(SqlTest, SameSqlBatchAndStreaming) {
  auto schema = Schema::Make({{"k", TypeId::kString, false},
                              {"v", TypeId::kInt64, false}});
  std::vector<Row> data = {{Value::Str("a"), Value::Int64(1)},
                           {Value::Str("b"), Value::Int64(2)},
                           {Value::Str("a"), Value::Int64(3)}};
  const std::string sql =
      "SELECT k, SUM(v) AS total FROM t GROUP BY k";

  SqlContext batch_ctx;
  batch_ctx.RegisterTable("t",
                          DataFrame::FromRows(schema, data).TakeValue());
  auto batch_rows = RunBatchSorted(*batch_ctx.Sql(sql));
  ASSERT_TRUE(batch_rows.ok());

  auto stream = std::make_shared<MemoryStream>("t", schema, 2);
  SqlContext stream_ctx;
  stream_ctx.RegisterTable("t", DataFrame::ReadStream(stream));
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  auto query = StreamingQuery::Start(*stream_ctx.Sql(sql), sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData(data).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());

  auto stream_rows = sink->SortedSnapshot();
  ASSERT_EQ(stream_rows.size(), batch_rows->size());
  for (size_t i = 0; i < stream_rows.size(); ++i) {
    EXPECT_EQ(CompareRows(stream_rows[i], (*batch_rows)[i]), 0);
  }
}

TEST(SqlTest, CaseInsensitiveKeywordsAndTables) {
  auto ctx = MakeContext();
  auto rows = RunSql(ctx, "select region, count(*) as n from SALES "
                       "group by region");
  EXPECT_EQ(rows.size(), 3u);
}

TEST(SqlTest, ExplainAnalyzeStreamingQuery) {
  auto schema = Schema::Make({{"campaign", TypeId::kString, false},
                              {"event_time", TypeId::kTimestamp, false}});
  auto stream = std::make_shared<MemoryStream>("clicks", schema, 2);
  SqlContext ctx;
  ctx.RegisterTable("clicks", DataFrame::ReadStream(stream));
  ASSERT_TRUE(stream
                  ->AddData({{Value::Str("c1"), Value::Timestamp(1 * kSec)},
                             {Value::Str("c2"), Value::Timestamp(2 * kSec)}})
                  .ok());
  auto text = ctx.ExplainAnalyzeSql(
      "SELECT campaign, COUNT(*) AS clicks FROM clicks GROUP BY campaign",
      OutputMode::kUpdate);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // The profile ran a real epoch: actuals, not estimates.
  EXPECT_NE(text->find("EXPLAIN ANALYZE"), std::string::npos) << *text;
  EXPECT_NE(text->find("epochs=1"), std::string::npos) << *text;
  EXPECT_NE(text->find("rows_in=2"), std::string::npos) << *text;
  // And it was side-effect free for the stream: the data is still there
  // for a real query to consume (MemoryStream reads do not retire offsets).
  EXPECT_NE(text->find("state_rows="), std::string::npos)
      << "the aggregate holds state: " << *text;
}

TEST(SqlTest, ExplainAnalyzeBatchFallsBackToExplain) {
  auto ctx = MakeContext();
  auto text = ctx.ExplainAnalyzeSql(
      "SELECT region, COUNT(*) AS n FROM sales GROUP BY region",
      OutputMode::kAppend);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("batch plan; no epochs to profile"),
            std::string::npos)
      << *text;
}

}  // namespace
}  // namespace sstreaming

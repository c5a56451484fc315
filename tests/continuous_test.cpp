#include "exec/continuous.h"

#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "connectors/bus_connectors.h"
#include "connectors/memory.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

SchemaPtr EventSchema() {
  return Schema::Make({{"k", TypeId::kString, false},
                       {"v", TypeId::kInt64, false},
                       {"time", TypeId::kTimestamp, false}});
}

ContinuousQuery::Options FastOptions() {
  ContinuousQuery::Options opts;
  opts.epoch_interval_micros = 20000;
  opts.poll_sleep_micros = 100;
  return opts;
}

void WaitFor(const std::function<bool()>& cond, int64_t timeout_ms = 5000) {
  int64_t waited = 0;
  while (!cond() && waited < timeout_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    waited += 2;
  }
}

TEST(ContinuousTest, MapPipelineDeliversRecords) {
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream)
                     .Where(Gt(Col("v"), Lit(0)))
                     .Select({As(Col("k"), "k"), As(Mul(Col("v"), Lit(2)),
                                                    "v2")});
  auto query = ContinuousQuery::Start(df, sink, FastOptions());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({{Value::Str("a"), Value::Int64(1),
                                Value::Timestamp(1)},
                               {Value::Str("b"), Value::Int64(-1),
                                Value::Timestamp(2)},
                               {Value::Str("c"), Value::Int64(3),
                                Value::Timestamp(3)}})
                  .ok());
  // Wait for the filtered record too: records_processed() counts all three
  // inputs, and the "b" row can lose the race with Stop() under load.
  WaitFor([&] {
    return sink->Snapshot().size() >= 2 &&
           (*query)->records_processed() >= 3;
  });
  (*query)->Stop();
  auto rows = sink->SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Str("a"));
  EXPECT_EQ(rows[0][1], Value::Int64(2));
  EXPECT_EQ(rows[1][1], Value::Int64(6));
  EXPECT_EQ((*query)->records_processed(), 3);
}

TEST(ContinuousTest, RejectsAggregations) {
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream).GroupBy({"k"}).Count();
  auto query = ContinuousQuery::Start(df, sink, FastOptions());
  ASSERT_FALSE(query.ok());
  EXPECT_TRUE(query.status().IsUnsupportedOperation());
}

TEST(ContinuousTest, RejectsStreamStreamJoin) {
  auto s1 = std::make_shared<MemoryStream>("s1", EventSchema(), 1);
  auto s2 = std::make_shared<MemoryStream>("s2", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(s1).Join(DataFrame::ReadStream(s2), {"k"});
  EXPECT_FALSE(ContinuousQuery::Start(df, sink, FastOptions()).ok());
}

// The static join's probe is a stage of the one fused pipeline over the
// scan, but not a map-like one (§6.3): the plan is still refused.
TEST(ContinuousTest, RejectsStreamStaticJoin) {
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  SchemaPtr dim_schema = Schema::Make({{"k", TypeId::kString, false},
                                       {"label", TypeId::kString, false}});
  DataFrame dims =
      DataFrame::FromRows(dim_schema, {{Value::Str("a"), Value::Str("x")}})
          .TakeValue();
  DataFrame df = DataFrame::ReadStream(stream)
                     .Where(Gt(Col("v"), Lit(0)))
                     .Join(dims, {"k"});
  auto query = ContinuousQuery::Start(df, sink, FastOptions());
  ASSERT_FALSE(query.ok());
  EXPECT_TRUE(query.status().IsUnsupportedOperation())
      << query.status().ToString();
  EXPECT_NE(query.status().ToString().find("StreamStaticJoin"),
            std::string::npos)
      << query.status().ToString();
}

TEST(ContinuousTest, EpochMarkersAdvanceOffsets) {
  auto dir = MakeTempDir("sstreaming_continuous_test");
  ASSERT_TRUE(dir.ok());
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream);
  ContinuousQuery::Options opts = FastOptions();
  opts.checkpoint_dir = *dir;
  {
    auto query = ContinuousQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ASSERT_TRUE(stream->AddData({{Value::Str("a"), Value::Int64(1),
                                  Value::Timestamp(1)}})
                    .ok());
    WaitFor([&] { return sink->Snapshot().size() >= 1; });
    (*query)->Stop();  // writes a final epoch marker
  }
  auto wal = WriteAheadLog::Open(*dir + "/wal").TakeValue();
  auto committed = wal.LatestCommittedEpoch();
  ASSERT_TRUE(committed.ok());
  ASSERT_TRUE(committed->has_value());
  auto plan = wal.ReadPlan(**committed);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->sources[0].end[0], 1);

  // Restart resumes after the committed offsets: only new records flow.
  ASSERT_TRUE(stream->AddData({{Value::Str("b"), Value::Int64(2),
                                Value::Timestamp(2)}})
                  .ok());
  auto sink2 = std::make_shared<MemorySink>();
  {
    auto query = ContinuousQuery::Start(df, sink2, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    WaitFor([&] { return sink2->Snapshot().size() >= 1; });
    (*query)->Stop();
  }
  auto rows = sink2->SortedSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Str("b"));
  RemoveDirRecursive(*dir).ok();
}

// A restart into the *same* sink must keep the first run's output. Sink
// commit ids used to restart at 0 in every run, and MemorySink append mode
// keeps one delivery per id, so the second run's "b" replaced the first
// run's "a".
TEST(ContinuousTest, RestartIntoSameSinkKeepsEarlierOutput) {
  auto dir = MakeTempDir("sstreaming_continuous_test");
  ASSERT_TRUE(dir.ok());
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = DataFrame::ReadStream(stream);
  ContinuousQuery::Options opts = FastOptions();
  opts.checkpoint_dir = *dir;
  auto run = [&](const std::string& key, int64_t v) {
    ASSERT_TRUE(stream
                    ->AddData({{Value::Str(key), Value::Int64(v),
                                Value::Timestamp(v)}})
                    .ok());
    auto query = ContinuousQuery::Start(df, sink, opts);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    WaitFor([&] { return sink->Snapshot().size() >= static_cast<size_t>(v); });
    (*query)->Stop();  // writes a final epoch marker
  };
  run("a", 1);
  run("b", 2);
  const std::vector<Row> rows = sink->Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Str("a"));
  EXPECT_EQ(rows[1][0], Value::Str("b"));
  RemoveDirRecursive(*dir).ok();
}

TEST(ContinuousTest, LowLatencyDelivery) {
  // Records should reach the sink in well under one microbatch interval.
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  std::atomic<int64_t> delivered_at{0};
  auto sink = std::make_shared<ForeachSink>(
      [&](int64_t, OutputMode, const std::vector<Row>&) -> Status {
        delivered_at.store(MonotonicNanos());
        return Status::OK();
      });
  auto query =
      ContinuousQuery::Start(DataFrame::ReadStream(stream), sink,
                             FastOptions());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // warm up
  int64_t t0 = MonotonicNanos();
  ASSERT_TRUE(stream->AddData({{Value::Str("x"), Value::Int64(1),
                                Value::Timestamp(1)}})
                  .ok());
  WaitFor([&] { return delivered_at.load() != 0; });
  (*query)->Stop();
  ASSERT_NE(delivered_at.load(), 0);
  int64_t latency_ms = (delivered_at.load() - t0) / 1000000;
  EXPECT_LT(latency_ms, 200) << "continuous mode must deliver quickly";
}


// ---------------------------------------------------------------------------
// Map-like pipelines against a row loop written here, not with the engine:
// each case's oracle maps one input row to its output row, or to nothing
// when a filter drops it. Inputs carry NULLs in every nullable column,
// NaN and -0.0 among the doubles, and strings that do and do not parse as
// numbers; they arrive in several chunks, on 1 and on 3 partitions.
// ---------------------------------------------------------------------------

SchemaPtr OracleSchema() {
  return Schema::Make({{"k", TypeId::kString, true},
                       {"v", TypeId::kInt64, true},
                       {"f", TypeId::kFloat64, true},
                       {"time", TypeId::kTimestamp, false}});
}

std::vector<Row> OracleInput(uint64_t seed, int n) {
  Random rng(seed);
  const char* strings[] = {"7", "-3", "x", "", "12"};
  const double doubles[] = {2.5, -1.75, 0.0, -0.0,
                            std::numeric_limits<double>::quiet_NaN(), 100.25};
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Row row;
    row.push_back(rng.OneIn(0.15) ? Value::Null()
                                  : Value::Str(strings[rng.Uniform(5)]));
    row.push_back(rng.OneIn(0.15)
                      ? Value::Null()
                      : Value::Int64(static_cast<int64_t>(rng.Uniform(11)) -
                                     5));
    row.push_back(rng.OneIn(0.15) ? Value::Null()
                                  : Value::Float64(doubles[rng.Uniform(6)]));
    row.push_back(Value::Timestamp(static_cast<int64_t>(i) * 1000));
    rows.push_back(std::move(row));
  }
  return rows;
}

// Expected cells, computed with plain C++ on the input values.
std::optional<int64_t> OracleV(const Row& r) {
  if (r[1].is_null()) return std::nullopt;
  return r[1].int64_value();
}

Value OracleStringToInt64(const Value& k) {
  if (k.is_null()) return Value::Null();
  const std::string& s = k.string_value();
  if (s == "7") return Value::Int64(7);
  if (s == "-3") return Value::Int64(-3);
  if (s == "12") return Value::Int64(12);
  return Value::Null();  // "x" and "" do not parse
}

Value OracleFloatToInt64(const Value& f) {
  if (f.is_null() || std::isnan(f.float64_value())) return Value::Null();
  return Value::Int64(static_cast<int64_t>(std::trunc(f.float64_value())));
}

Value OracleFloatPlus(const Value& f, double d) {
  if (f.is_null()) return Value::Null();
  return Value::Float64(f.float64_value() + d);
}

struct MapCase {
  const char* name;
  std::function<DataFrame(DataFrame)> query;
  std::function<std::optional<Row>(const Row&)> oracle;
};

std::vector<MapCase> MapCases() {
  std::vector<MapCase> cases;
  // A filter whose predicate is NULL where v is NULL: those rows drop.
  cases.push_back(
      {"null-predicate filter",
       [](DataFrame df) { return df.Where(Gt(Col("v"), Lit(0))); },
       [](const Row& r) -> std::optional<Row> {
         auto v = OracleV(r);
         if (!v.has_value() || *v <= 0) return std::nullopt;
         return r;
       }});
  // Arithmetic and casts over the string, float64 and timestamp columns.
  cases.push_back(
      {"arithmetic and casts",
       [](DataFrame df) {
         return df.Select(
             {As(Cast(Col("k"), TypeId::kInt64), "k_int"),
              As(Cast(Col("k"), TypeId::kFloat64), "k_dbl"),
              As(Add(Col("f"), Lit(1.5)), "f_plus"),
              As(Cast(Col("f"), TypeId::kInt64), "f_int"),
              As(Cast(Col("time"), TypeId::kInt64), "t_int"),
              As(Mul(Col("v"), Lit(3)), "v3")});
       },
       [](const Row& r) -> std::optional<Row> {
         Value k_dbl = Value::Null();
         Value k_int = OracleStringToInt64(r[0]);
         if (!k_int.is_null()) {
           k_dbl = Value::Float64(static_cast<double>(k_int.int64_value()));
         }
         auto v = OracleV(r);
         return Row{k_int,
                    k_dbl,
                    OracleFloatPlus(r[2], 1.5),
                    OracleFloatToInt64(r[2]),
                    Value::Int64(r[3].int64_value()),
                    v.has_value() ? Value::Int64(*v * 3) : Value::Null()};
       }});
  // A pure column projection over the scan: pushed into the read.
  cases.push_back({"column projection",
                   [](DataFrame df) { return df.SelectColumns({"f", "k"}); },
                   [](const Row& r) -> std::optional<Row> {
                     return Row{r[2], r[0]};
                   }});
  // filter -> project -> filter.
  cases.push_back(
      {"filter-project-filter",
       [](DataFrame df) {
         return df.Where(IsNotNull(Col("k")))
             .Select({As(Col("k"), "k"), As(Sub(Col("v"), Lit(1)), "v1"),
                      As(Col("f"), "f")})
             .Where(Lt(Col("v1"), Lit(2)));
       },
       [](const Row& r) -> std::optional<Row> {
         auto v = OracleV(r);
         if (r[0].is_null() || !v.has_value() || *v - 1 >= 2) {
           return std::nullopt;
         }
         return Row{r[0], Value::Int64(*v - 1), r[2]};
       }});
  // A watermark inside the chain changes no row.
  cases.push_back(
      {"watermark in the chain",
       [](DataFrame df) {
         return df.Where(Ne(Col("v"), Lit(0)))
             .WithWatermark("time", 1000000)
             .Select({As(Col("time"), "time"),
                      As(Add(Col("f"), Lit(-0.5)), "f_minus")});
       },
       [](const Row& r) -> std::optional<Row> {
         auto v = OracleV(r);
         if (!v.has_value() || *v == 0) return std::nullopt;
         return Row{r[3], OracleFloatPlus(r[2], -0.5)};
       }});
  return cases;
}

std::multiset<std::string> EncodedRows(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& row : rows) {
    std::string enc;
    EncodeRow(row, &enc);
    out.insert(std::move(enc));
  }
  return out;
}

TEST(ContinuousTest, MapPipelinesMatchRowLoopOracle) {
  constexpr int kChunks = 3;
  constexpr int kRowsPerChunk = 60;
  for (const MapCase& c : MapCases()) {
    for (int partitions : {1, 3}) {
      SCOPED_TRACE(std::string(c.name) + ", " + std::to_string(partitions) +
                   " partitions");
      const std::vector<Row> input =
          OracleInput(static_cast<uint64_t>(partitions) * 31 + 7,
                      kChunks * kRowsPerChunk);
      std::vector<Row> want;
      for (const Row& r : input) {
        if (std::optional<Row> out = c.oracle(r)) want.push_back(*out);
      }
      auto stream =
          std::make_shared<MemoryStream>("events", OracleSchema(), partitions);
      auto sink = std::make_shared<MemorySink>();
      ContinuousQuery::Options opts = FastOptions();
      opts.max_chunk_records = 16;
      auto query =
          ContinuousQuery::Start(c.query(DataFrame::ReadStream(stream)), sink,
                                 opts);
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      for (int chunk = 0; chunk < kChunks; ++chunk) {
        ASSERT_TRUE(stream
                        ->AddData(std::vector<Row>(
                            input.begin() + chunk * kRowsPerChunk,
                            input.begin() + (chunk + 1) * kRowsPerChunk))
                        .ok());
      }
      WaitFor([&] {
        return (*query)->records_processed() >=
               static_cast<int64_t>(input.size());
      });
      (*query)->Stop();
      ASSERT_TRUE((*query)->error().ok()) << (*query)->error().ToString();
      EXPECT_EQ((*query)->records_processed(),
                static_cast<int64_t>(input.size()));
      std::vector<Row> got = sink->Snapshot();
      EXPECT_EQ(EncodedRows(got), EncodedRows(want))
          << "got " << got.size() << " rows, want " << want.size();
    }
  }
}

// A source whose reads fail from offset `fail_from` on: the worker that
// reaches it stops with the read's error while the query is still running.
class FailingSource : public Source {
 public:
  FailingSource(std::shared_ptr<MemoryStream> inner, int64_t fail_from)
      : inner_(std::move(inner)), fail_from_(fail_from) {}

  const std::string& name() const override { return inner_->name(); }
  SchemaPtr schema() const override { return inner_->schema(); }
  int num_partitions() const override { return inner_->num_partitions(); }
  Result<std::vector<int64_t>> LatestOffsets() const override {
    return inner_->LatestOffsets();
  }
  Result<RecordBatchPtr> ReadPartition(int partition, int64_t start,
                                       int64_t end) const override {
    if (end > fail_from_) return Status::IOError("injected read failure");
    return inner_->ReadPartition(partition, start, end);
  }

 private:
  std::shared_ptr<MemoryStream> inner_;
  int64_t fail_from_;
};

TEST(ContinuousTest, WorkerReadFailureSurfacesThroughError) {
  auto stream = std::make_shared<MemoryStream>("events", EventSchema(), 1);
  auto source = std::make_shared<FailingSource>(stream, /*fail_from=*/3);
  auto sink = std::make_shared<MemorySink>();
  ContinuousQuery::Options opts = FastOptions();
  opts.max_chunk_records = 1;
  auto query =
      ContinuousQuery::Start(DataFrame::ReadStream(source), sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_TRUE((*query)->error().ok());
  for (int64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(stream
                    ->AddData({{Value::Str("a"), Value::Int64(v),
                                Value::Timestamp(v)}})
                    .ok());
  }
  // Poll while the query runs: the reader races the worker's write.
  WaitFor([&] { return !(*query)->error().ok(); });
  const Status error = (*query)->error();
  EXPECT_TRUE((*query)->IsActive());
  EXPECT_TRUE(error.IsIOError()) << error.ToString();
  EXPECT_NE(error.ToString().find("injected read failure"), std::string::npos);
  (*query)->Stop();
  // The records before offset 3 were delivered, and no later one.
  EXPECT_EQ((*query)->records_processed(), 3);
  EXPECT_EQ(sink->Snapshot().size(), 3u);
}

}  // namespace
}  // namespace sstreaming

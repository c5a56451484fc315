#include "obs/progress.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "obs/metrics.h"
#include "obs/plan_profile.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

SchemaPtr ClickSchema() {
  return Schema::Make({{"country", TypeId::kString, false},
                       {"latency", TypeId::kInt64, false},
                       {"time", TypeId::kTimestamp, false}});
}

Row Click(const char* country, int64_t latency, int64_t time_sec) {
  return {Value::Str(country), Value::Int64(latency),
          Value::Timestamp(time_sec * kSec)};
}

QueryProgress MakeFullProgress() {
  QueryProgress p;
  p.epoch = 12;
  p.rows_read = 1000;
  p.rows_written = 42;
  p.watermark_micros = 11 * kSec;
  p.state_entries = 7;
  p.state_bytes = 4096;
  p.duration_nanos = 600;
  p.plan_nanos = 100;
  p.source_read_nanos = 150;
  p.exec_nanos = 200;
  p.checkpoint_nanos = 50;
  p.commit_nanos = 75;
  p.other_nanos = 25;
  p.trigger_wait_nanos = 999;
  p.trigger_drift_nanos = 1234;
  p.watermark_lag_micros = 3 * kSec;
  LogHistogram e2e;
  e2e.RecordN(2500, 40);
  e2e.RecordN(90000, 2);
  p.e2e_latency = LatencySummary::FromHistogram(e2e);
  SourceProgress src;
  src.name = "clicks";
  src.rows = 1000;
  src.rows_per_sec = 123456.789;
  src.backlog_rows = 17;
  src.backlog_age_micros = 250000;
  p.sources.push_back(src);
  OperatorProgress op;
  op.op_id = 3;
  op.name = "StatefulAggregate";
  op.rows_in = 1000;
  op.rows_out = 42;
  op.batches = 4;
  op.cpu_nanos = 180;
  op.output_bytes = 2048;
  op.state_rows = 7;
  op.state_bytes = 4096;
  op.tasks = 8;
  op.stage_nanos = 900;
  op.queue_wait_nanos = 300;
  op.task_run_nanos = 700;
  op.max_task_run_nanos = 150;
  p.operators.push_back(op);
  return p;
}

TEST(ProgressJsonTest, RoundTripIsByteIdentical) {
  QueryProgress p = MakeFullProgress();
  std::string dump = p.ToJson().Dump();
  auto parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto back = QueryProgress::FromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToJson().Dump(), dump);
  ASSERT_EQ(back->operators.size(), 1u);
  EXPECT_EQ(back->operators[0].stage_nanos, 900);
  EXPECT_EQ(back->operators[0].max_task_run_nanos, 150);
}

TEST(ProgressJsonTest, RoundTripPreservesUnsetWatermark) {
  QueryProgress p = MakeFullProgress();
  p.watermark_micros = INT64_MIN;  // serialized by omission
  std::string dump = p.ToJson().Dump();
  EXPECT_EQ(dump.find("watermarkMicros"), std::string::npos);
  auto parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok());
  auto back = QueryProgress::FromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->watermark_micros, INT64_MIN);
  EXPECT_EQ(back->ToJson().Dump(), dump);
}

TEST(ProgressJsonTest, FromJsonToleratesMissingNewFields) {
  // A log line from a build without the memory-accounting fields.
  auto parsed = Json::Parse(
      R"({"epoch": 3, "rowsRead": 10, "rowsWritten": 5,)"
      R"( "stateEntries": 2, "durationNanos": 100})");
  ASSERT_TRUE(parsed.ok());
  auto back = QueryProgress::FromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->epoch, 3);
  EXPECT_EQ(back->state_bytes, 0);
  EXPECT_TRUE(back->operators.empty());
}

// Merging every per-epoch LatencySummary must reproduce the histogram that
// recorded the full value stream — same count/sum/max, same buckets, and
// therefore the same quantile estimates. This is the contract that lets the
// lifetime Prometheus series and the per-epoch QueryProgress summaries tie
// out exactly.
TEST(LatencySummaryTest, MergedEpochSummariesReproduceLifetimeHistogram) {
  LogHistogram lifetime;
  LogHistogram merged;
  for (int epoch = 0; epoch < 5; ++epoch) {
    LogHistogram per_epoch;
    for (int i = 0; i < 100; ++i) {
      // Spread samples over several powers of two, different mix per epoch.
      int64_t value = (epoch + 1) * 1000 + i * i * 7;
      per_epoch.Record(value);
      lifetime.Record(value);
    }
    LatencySummary summary = LatencySummary::FromHistogram(per_epoch);
    // The summary survives JSON too — merge what a reader would parse back.
    auto parsed = LatencySummary::FromJson(summary.ToJson());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    parsed->MergeInto(&merged);
  }
  EXPECT_EQ(merged.count(), lifetime.count());
  EXPECT_EQ(merged.sum(), lifetime.sum());
  EXPECT_EQ(merged.max(), lifetime.max());
  for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
    ASSERT_EQ(merged.bucket_count(i), lifetime.bucket_count(i))
        << "bucket " << i;
  }
  EXPECT_EQ(merged.ValueAtQuantile(0.50), lifetime.ValueAtQuantile(0.50));
  EXPECT_EQ(merged.ValueAtQuantile(0.99), lifetime.ValueAtQuantile(0.99));
}

TEST(LatencySummaryTest, JsonRoundTripIsByteIdentical) {
  LogHistogram h;
  h.RecordN(100, 3);
  h.RecordN(5000, 10);
  h.RecordN(123456, 1);
  LatencySummary s = LatencySummary::FromHistogram(h);
  std::string dump = s.ToJson().Dump();
  auto parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok());
  auto back = LatencySummary::FromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToJson().Dump(), dump);
  EXPECT_EQ(back->count, 14);
  EXPECT_EQ(back->max_micros, 123456);
}

// The documented invariant on a real stateful query: stage durations sum to
// duration_nanos, and the new accounting fields are populated.
TEST(ProgressJsonTest, RealQueryProgressInvariants) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(stream)
          .WithWatermark("time", 5 * kSec)
          .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "window")})
          .Count();
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 3;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(stream->AddData({Click("ca", 1, 2), Click("ny", 1, 7)}).ok());
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());

  QueryProgress last;
  ASSERT_TRUE((*query)->GetLastProgress(&last));
  EXPECT_EQ(last.StageSumNanos(), last.duration_nanos);
  EXPECT_GT(last.state_entries, 0);
  EXPECT_GT(last.state_bytes, 0) << "memory accounting must see the window "
                                    "state";
  bool saw_stateful = false;
  int64_t op_state_bytes = 0;
  for (const OperatorProgress& op : last.operators) {
    if (op.state_rows > 0) {
      saw_stateful = true;
      op_state_bytes += op.state_bytes;
      EXPECT_GT(op.state_bytes, 0);
    }
    if (op.rows_out > 0) {
      EXPECT_GT(op.output_bytes, 0);
    }
  }
  EXPECT_TRUE(saw_stateful);
  EXPECT_EQ(op_state_bytes, last.state_bytes)
      << "query total must equal the per-operator sum";

  // The real progress also survives the JSON round trip byte-identically.
  std::string dump = last.ToJson().Dump();
  auto parsed = Json::Parse(dump);
  ASSERT_TRUE(parsed.ok());
  auto back = QueryProgress::FromJson(*parsed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToJson().Dump(), dump);
}

// Every state-size surface comes from one per-shard record: on every epoch,
// for every stateful operator, the `shard=` gauges sum to the operator's
// gauges and OperatorProgress sizes, and those sum to the progress totals.
TEST(ProgressJsonTest, StateGaugesSumShardsToOperatorsToTotals) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  // Two stateful operators: dedup, then a running count.
  DataFrame df = DataFrame::ReadStream(stream).Distinct().GroupBy(
      {"country"}).Count();
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 2;
  opts.num_state_shards = 3;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  MetricsRegistry* metrics = (*query)->metrics().get();
  int epochs = 0;
  (*query)->SetProgressCallback([&](const QueryProgress& p) {
    ++epochs;
    int stateful = 0;
    int64_t rows = 0, bytes = 0;
    for (const OperatorProgress& op : p.operators) {
      if (op.shard_state.empty()) continue;
      ++stateful;
      SCOPED_TRACE("epoch " + std::to_string(p.epoch) + " op " + op.name);
      const std::string id = std::to_string(op.op_id);
      EXPECT_EQ(op.shard_state.size(), 3u);
      int64_t shard_rows = 0, shard_bytes = 0;
      for (size_t s = 0; s < op.shard_state.size(); ++s) {
        MetricLabels labels{{"op_id", id}, {"shard", std::to_string(s)}};
        const int64_t r =
            metrics->GetGauge("sstreaming_state_shard_rows", labels)->value();
        const int64_t b =
            metrics->GetGauge("sstreaming_state_shard_bytes", labels)->value();
        EXPECT_EQ(r, op.shard_state[s].first);
        EXPECT_EQ(b, op.shard_state[s].second);
        shard_rows += r;
        shard_bytes += b;
      }
      MetricLabels labels{{"op_id", id}};
      EXPECT_EQ(metrics->GetGauge("sstreaming_state_rows", labels)->value(),
                shard_rows);
      EXPECT_EQ(metrics->GetGauge("sstreaming_state_bytes", labels)->value(),
                shard_bytes);
      EXPECT_EQ(op.state_rows, shard_rows);
      EXPECT_EQ(op.state_bytes, shard_bytes);
      rows += op.state_rows;
      bytes += op.state_bytes;
    }
    EXPECT_EQ(stateful, 2) << "epoch " << p.epoch;
    EXPECT_EQ(p.state_entries, rows) << "epoch " << p.epoch;
    EXPECT_EQ(p.state_bytes, bytes) << "epoch " << p.epoch;
    EXPECT_GT(p.state_entries, 0) << "epoch " << p.epoch;
  });
  const char* countries[] = {"ca", "ny", "tx", "wa", "fl"};
  for (int e = 1; e <= 4; ++e) {
    std::vector<Row> rows;
    for (int i = 0; i < 6 * e; ++i) {
      rows.push_back(Click(countries[i % 5], i % 3, e));
    }
    ASSERT_TRUE(stream->AddData(rows).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  }
  EXPECT_EQ(epochs, 4);
}

// EXPLAIN ANALYZE is a fold of the per-epoch records: after a multi-epoch
// stateful query, every plan-profile node's totals equal that operator's
// OperatorProgress of each epoch merged field by field (counters summed,
// the slowest task's max, the latest state size), and its peak state is
// the largest size any epoch left.
TEST(PlanProfileTest, NodeTotalsAreMergedEpochRecords) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  DataFrame df =
      DataFrame::ReadStream(stream)
          .WithWatermark("time", 5 * kSec)
          .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "window"),
                    NamedExpr{Col("country"), "country"}})
          .Count();
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 3;
  opts.num_state_shards = 2;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  // Windows open and close across the epochs, so the state grows and
  // shrinks again: the latest size ends below the peak.
  const std::vector<std::vector<Row>> epochs = {
      {Click("ca", 1, 2), Click("ny", 1, 7), Click("de", 2, 8)},
      {Click("ca", 1, 16), Click("fr", 3, 17), Click("ny", 1, 18)},
      {Click("jp", 1, 33)},
      {Click("ca", 1, 51)}};
  for (const std::vector<Row>& rows : epochs) {
    ASSERT_TRUE(stream->AddData(rows).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  }

  const std::vector<QueryProgress> history = (*query)->GetProgressSnapshot();
  ASSERT_EQ(history.size(), epochs.size());
  const PlanProfile& profile = (*query)->plan_profile();
  EXPECT_EQ(profile.ToJson().Get("epochs").int_value(),
            static_cast<int64_t>(history.size()));
  const std::vector<PlanProfile::Node> nodes = profile.Snapshot();
  ASSERT_EQ(nodes.size(), history.back().operators.size());
  bool saw_tasks = false, saw_shrunk_state = false;
  for (const PlanProfile::Node& node : nodes) {
    SCOPED_TRACE(node.op.name + " [op " + std::to_string(node.op.op_id) +
                 "]");
    OperatorProgress want;
    int64_t peak_rows = 0, peak_bytes = 0;
    for (const QueryProgress& p : history) {
      const OperatorProgress* op = nullptr;
      for (const OperatorProgress& o : p.operators) {
        if (o.op_id == node.op.op_id) op = &o;
      }
      ASSERT_NE(op, nullptr) << "epoch " << p.epoch;
      want.rows_in += op->rows_in;
      want.rows_out += op->rows_out;
      want.batches += op->batches;
      want.cpu_nanos += op->cpu_nanos;
      want.output_bytes += op->output_bytes;
      want.tasks += op->tasks;
      want.stage_nanos += op->stage_nanos;
      want.queue_wait_nanos += op->queue_wait_nanos;
      want.task_run_nanos += op->task_run_nanos;
      want.max_task_run_nanos =
          std::max(want.max_task_run_nanos, op->max_task_run_nanos);
      want.state_rows = op->state_rows;
      want.state_bytes = op->state_bytes;
      want.shard_state = op->shard_state;
      peak_rows = std::max(peak_rows, op->state_rows);
      peak_bytes = std::max(peak_bytes, op->state_bytes);
    }
    const OperatorProgress& got = node.totals;
    EXPECT_EQ(got.op_id, node.op.op_id);
    EXPECT_EQ(got.name, node.op.name);
    EXPECT_EQ(got.rows_in, want.rows_in);
    EXPECT_EQ(got.rows_out, want.rows_out);
    EXPECT_EQ(got.batches, want.batches);
    EXPECT_EQ(got.cpu_nanos, want.cpu_nanos);
    EXPECT_EQ(got.output_bytes, want.output_bytes);
    EXPECT_EQ(got.tasks, want.tasks);
    EXPECT_EQ(got.stage_nanos, want.stage_nanos);
    EXPECT_EQ(got.queue_wait_nanos, want.queue_wait_nanos);
    EXPECT_EQ(got.task_run_nanos, want.task_run_nanos);
    EXPECT_EQ(got.max_task_run_nanos, want.max_task_run_nanos);
    EXPECT_EQ(got.state_rows, want.state_rows);
    EXPECT_EQ(got.state_bytes, want.state_bytes);
    EXPECT_EQ(got.shard_state, want.shard_state);
    EXPECT_EQ(node.peak_state_rows, peak_rows);
    EXPECT_EQ(node.peak_state_bytes, peak_bytes);
    EXPECT_GE(node.peak_state_rows, got.state_rows);
    EXPECT_GE(node.peak_state_bytes, got.state_bytes);
    if (got.tasks > 0) {
      saw_tasks = true;
      EXPECT_GT(got.stage_nanos, 0);
    }
    if (node.peak_state_rows > got.state_rows) saw_shrunk_state = true;
  }
  EXPECT_TRUE(saw_tasks) << "some operator must have run scheduler tasks";
  EXPECT_TRUE(saw_shrunk_state)
      << "the windows' eviction must leave the state below its peak";
}

}  // namespace
}  // namespace sstreaming

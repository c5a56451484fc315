#include "obs/doctor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "obs/http_server.h"
#include "obs/query_history.h"
#include "runtime/scheduler.h"
#include "state/sharded_state_store.h"
#include "storage/fs.h"
#include "testing/failpoints.h"
#include "types/row.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

std::string TempDir() {
  auto dir = MakeTempDir("sstreaming_doctor");
  EXPECT_TRUE(dir.ok()) << dir.status().ToString();
  return *dir;
}

SchemaPtr ClickSchema() {
  return Schema::Make({{"country", TypeId::kString, false},
                       {"time", TypeId::kTimestamp, false}});
}

Row Click(const std::string& country, int64_t time_sec) {
  return {Value::Str(country), Value::Timestamp(time_sec * kSec)};
}

DataFrame CountByCountry(const std::shared_ptr<MemoryStream>& stream) {
  return DataFrame::ReadStream(stream).GroupBy({"country"}).Count();
}

/// The diagnosis the HTTP endpoint computes: the query's live progress
/// window plus its configuration.
DoctorReport OnlineDiagnosis(const StreamingQuery& query,
                             const std::string& name) {
  DoctorInput input;
  input.query_name = name;
  input.window = query.GetProgressSnapshot();
  input.scheduler_parallelism = query.scheduler_parallelism();
  input.num_state_shards = query.num_state_shards();
  return Diagnose(input);
}

/// After the query stopped, the offline path (`ssctl doctor`) must reach the
/// same top verdict from the durable history alone, and the termination-time
/// "doctor" event the engine appended must agree.
void ExpectOfflineParity(const std::string& dir, const std::string& verdict) {
  auto offline = DiagnoseHistory(dir);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  EXPECT_EQ(offline->top_verdict(), verdict) << offline->Render();
  auto events = QueryHistoryLog::ReadAll(dir);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  bool saw_doctor = false;
  for (const Json& event : *events) {
    if (event.Get("event").string_value() != "doctor") continue;
    saw_doctor = true;
    EXPECT_EQ(event.Get("report").Get("topVerdict").string_value(), verdict);
  }
  EXPECT_TRUE(saw_doctor) << "no doctor event in the durable history";
}

// --- injected-bottleneck scenarios: each makes one rule the true story ----

// A slow sink (delay failpoint inside Sink::CommitEpoch) dominates epoch
// time, so the doctor must call the query sink-bound — online, over HTTP,
// and offline from the history after termination.
TEST(DoctorTest, SlowSinkYieldsSinkBound) {
  std::string dir = TempDir();
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 2;
  opts.checkpoint_dir = dir;
  opts.query_name = "sinkbound";

  FailpointSpec spec;
  spec.action = FailpointSpec::Action::kDelay;
  spec.delay_micros = 20000;
  spec.sticky = true;

  auto query = StreamingQuery::Start(CountByCountry(stream), sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        Failpoints::Instance().Arm("sink.commit.before_apply", spec).ok());
    ASSERT_TRUE(stream->AddData({Click("ca", i), Click("ny", i)}).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    // The delay must dominate however long a slow disk's fsyncs make the
    // rest of an epoch: the next one is at least four times the last
    // epoch's time outside the sink.
    QueryProgress last;
    ASSERT_TRUE((*query)->GetLastProgress(&last));
    spec.delay_micros = std::max<int64_t>(
        20000, 4 * (last.duration_nanos - last.sink_commit_nanos) / 1000);
  }
  Failpoints::Instance().DisarmAll();

  DoctorReport report = OnlineDiagnosis(**query, "sinkbound");
  ASSERT_EQ(report.top_verdict(), "sink-bound") << report.Render();
  const DoctorFinding& top = report.findings.front();
  EXPECT_GT(top.score, 0.35) << report.Render();
  EXPECT_FALSE(top.summary.empty());
  EXPECT_FALSE(top.suggestion.empty());
  EXPECT_GT(top.evidence.Get("fraction").double_value(), 0.35);

  // The HTTP route serves the same diagnosis, and unknown queries 404.
  ObservabilityServer server;
  server.MountQuery("sinkbound", query->get());
  HttpResponse resp = server.Handle({"GET", "/queries/sinkbound/doctor", ""});
  EXPECT_EQ(resp.status, 200);
  auto body = Json::Parse(resp.body);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(body->Get("topVerdict").string_value(), "sink-bound");
  EXPECT_GE(body->Get("findings").array_items().size(), 1u);
  EXPECT_EQ(server.Handle({"GET", "/queries/nope/doctor", ""}).status, 404);

  (*query)->Stop();
  ExpectOfflineParity(dir, "sink-bound");
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
}

// A query that drains its input instantly and then waits on the source is
// mostly idle with zero backlog: source-starved.
TEST(DoctorTest, StarvedSourceYieldsSourceStarved) {
  std::string dir = TempDir();
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 1);
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 2;
  opts.checkpoint_dir = dir;
  opts.query_name = "starved";

  auto query = StreamingQuery::Start(CountByCountry(stream), sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  // Arrivals are far slower than processing: the gap between triggers is
  // charged to trigger_wait_nanos of the next epoch. A loaded test machine
  // or a slow disk's fsyncs can stretch epoch processing, so each gap is at
  // least four times the last epoch, and starved epochs keep coming until
  // the idle fraction dominates (bounded so a real regression still fails).
  DoctorReport report;
  int64_t gap_micros = 40000;
  for (int i = 0; i < 40; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(gap_micros));
    ASSERT_TRUE(stream->AddData({Click("ca", i)}).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
    QueryProgress last;
    ASSERT_TRUE((*query)->GetLastProgress(&last));
    gap_micros = std::max<int64_t>(40000, 4 * last.duration_nanos / 1000);
    if (i < 4) continue;
    report = OnlineDiagnosis(**query, "starved");
    if (report.top_verdict() == "source-starved") break;
  }
  ASSERT_EQ(report.top_verdict(), "source-starved") << report.Render();
  EXPECT_GT(report.findings.front()
                .evidence.Get("idleFraction")
                .double_value(),
            0.6);
  EXPECT_EQ(report.findings.front()
                .evidence.Get("lastBacklogRows")
                .int_value(),
            0);

  (*query)->Stop();
  ExpectOfflineParity(dir, "source-starved");
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
}

// Grouping keys chosen to collide on one state shard (via the store's own
// stable hash) leave the shard breakdown maximally imbalanced:
// stateful-shard-skew.
TEST(DoctorTest, SkewedKeysYieldStatefulShardSkew) {
  // The GroupBy state key is the encoded key row (arity byte + encoded
  // values), so the test can precompute which shard a country lands on and
  // pick ~80 countries that all hash to shard 0 of 4.
  std::vector<std::string> hot;
  for (int i = 0; static_cast<int>(hot.size()) < 80; ++i) {
    std::string country = "c" + std::to_string(i);
    std::string enc;
    EncodeRow({Value::Str(country)}, &enc);
    if (StateStore::HashKey(enc) % 4 == 0) hot.push_back(country);
  }

  std::string dir = TempDir();
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 2;
  opts.num_state_shards = 4;
  opts.checkpoint_dir = dir;
  opts.query_name = "skew";

  auto query = StreamingQuery::Start(CountByCountry(stream), sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (int epoch = 0; epoch < 2; ++epoch) {
    std::vector<Row> rows;
    for (const std::string& country : hot) rows.push_back(Click(country, epoch));
    ASSERT_TRUE(stream->AddData(std::move(rows)).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  }

  DoctorReport report = OnlineDiagnosis(**query, "skew");
  ASSERT_EQ(report.top_verdict(), "stateful-shard-skew") << report.Render();
  const Json& evidence = report.findings.front().evidence;
  EXPECT_EQ(evidence.Get("shards").int_value(), 4);
  EXPECT_EQ(evidence.Get("maxShardRows").int_value(), 80);
  EXPECT_EQ(evidence.Get("totalStateRows").int_value(), 80);
  EXPECT_DOUBLE_EQ(evidence.Get("imbalance").double_value(), 4.0);

  (*query)->Stop();
  ExpectOfflineParity(dir, "stateful-shard-skew");
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
}

// Eight partitions' worth of tasks contending for a one-thread pool spend
// most of their scheduler time queued: scheduler-saturated.
TEST(DoctorTest, UndersizedPoolYieldsSchedulerSaturated) {
  std::string dir = TempDir();
  PoolScheduler pool(1);
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 8);
  auto sink = std::make_shared<MemorySink>();
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 8;
  opts.scheduler = &pool;
  opts.checkpoint_dir = dir;
  opts.query_name = "saturated";

  auto query = StreamingQuery::Start(CountByCountry(stream), sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (int epoch = 0; epoch < 2; ++epoch) {
    std::vector<Row> rows;
    rows.reserve(50000);
    for (int i = 0; i < 50000; ++i) {
      std::string country = "c";
      country += std::to_string(i % 256);
      rows.push_back(Click(country, epoch));
    }
    ASSERT_TRUE(stream->AddData(std::move(rows)).ok());
    ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  }

  DoctorReport report = OnlineDiagnosis(**query, "saturated");
  ASSERT_EQ(report.top_verdict(), "scheduler-saturated") << report.Render();
  const Json& evidence = report.findings.front().evidence;
  EXPECT_GT(evidence.Get("queuedFraction").double_value(), 0.4);
  EXPECT_EQ(evidence.Get("schedulerParallelism").int_value(), 1);

  (*query)->Stop();
  ExpectOfflineParity(dir, "scheduler-saturated");
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
}

// --- trend rules over synthetic windows (no live query needed) ------------

TEST(DoctorTest, GrowingWatermarkLagYieldsWatermarkLagging) {
  DoctorInput input;
  input.query_name = "wm";
  for (int i = 0; i < 6; ++i) {
    QueryProgress p;
    p.epoch = i;
    p.duration_nanos = 1000000;
    p.watermark_micros = i * kSec;
    p.watermark_lag_micros = 2 * kSec + i * 4 * kSec;  // 2s -> 22s, growing
    input.window.push_back(p);
  }
  DoctorReport report = Diagnose(input);
  ASSERT_EQ(report.top_verdict(), "watermark-lagging") << report.Render();
  const Json& evidence = report.findings.front().evidence;
  EXPECT_EQ(evidence.Get("lagFirstMicros").int_value(), 2 * kSec);
  EXPECT_EQ(evidence.Get("lagLastMicros").int_value(), 22 * kSec);
}

TEST(DoctorTest, LargeConstantWatermarkLagIsHealthy) {
  // A big but flat lag is just the configured watermark delay, not a
  // falling-behind pipeline.
  DoctorInput input;
  for (int i = 0; i < 6; ++i) {
    QueryProgress p;
    p.epoch = i;
    p.duration_nanos = 1000000;
    p.watermark_micros = i * kSec;
    p.watermark_lag_micros = 30 * kSec;
    input.window.push_back(p);
  }
  EXPECT_EQ(Diagnose(input).top_verdict(), "healthy");
}

TEST(DoctorTest, UnboundedStateYieldsStateGrowth) {
  DoctorInput input;
  input.query_name = "growth";
  for (int i = 0; i < 6; ++i) {
    QueryProgress p;
    p.epoch = i;
    p.duration_nanos = 1000000;
    p.state_entries = 500 * (i + 1);  // 500 -> 3000: 6x over the window
    input.window.push_back(p);
  }
  DoctorReport report = Diagnose(input);
  ASSERT_EQ(report.top_verdict(), "state-growth") << report.Render();
  EXPECT_DOUBLE_EQ(
      report.findings.front().evidence.Get("growthFactor").double_value(),
      6.0);
}

TEST(DoctorTest, QuietWindowIsHealthy) {
  DoctorInput input;
  input.query_name = "quiet";
  for (int i = 0; i < 8; ++i) {
    QueryProgress p;
    p.epoch = i;
    p.duration_nanos = 1000000;
    p.state_entries = 100;
    input.window.push_back(p);
  }
  DoctorReport report = Diagnose(input);
  EXPECT_TRUE(report.findings.empty()) << report.Render();
  EXPECT_EQ(report.top_verdict(), "healthy");
  EXPECT_NE(report.Render().find("healthy"), std::string::npos);
}

TEST(DoctorTest, FindingsAreRankedByScore) {
  // Severe sink-bound (0.9) plus mild state growth (2x -> score 0.5): the
  // report must rank the sink first.
  DoctorInput input;
  input.query_name = "ranked";
  for (int i = 0; i < 6; ++i) {
    QueryProgress p;
    p.epoch = i;
    p.duration_nanos = 10000000;
    p.sink_commit_nanos = 9000000;
    p.state_entries = 600 + 120 * i;  // 600 -> 1200
    input.window.push_back(p);
  }
  DoctorReport report = Diagnose(input);
  ASSERT_EQ(report.findings.size(), 2u) << report.Render();
  EXPECT_EQ(report.findings[0].verdict, "sink-bound");
  EXPECT_EQ(report.findings[1].verdict, "state-growth");
  EXPECT_GE(report.findings[0].score, report.findings[1].score);
  EXPECT_NE(report.Render().find("[sink-bound]"), std::string::npos);
}

TEST(DoctorTest, DiagnoseHistoryIsNotFoundWithoutHistory) {
  std::string dir = TempDir();
  auto report = DiagnoseHistory(dir);
  EXPECT_TRUE(report.status().IsNotFound()) << report.status().ToString();
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
}

}  // namespace
}  // namespace sstreaming

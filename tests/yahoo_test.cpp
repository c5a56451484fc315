#include "workloads/yahoo.h"

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/flinksim.h"
#include "baselines/kstreamssim.h"
#include "common/clock.h"
#include "connectors/bus_connectors.h"
#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"

namespace sstreaming {
namespace {

using Counts = std::map<std::pair<int64_t, int64_t>, int64_t>;

YahooConfig SmallConfig() {
  YahooConfig config;
  config.num_partitions = 4;
  config.num_events = 20000;
  config.num_campaigns = 10;
  config.ads_per_campaign = 5;
  config.event_time_span_seconds = 50;
  return config;
}

struct Generated {
  MessageBus bus;
  std::vector<Row> campaigns;
  std::vector<Row> all_events;
  Counts reference;
};

void Generate(const YahooConfig& config, Generated* g) {
  auto campaigns = GenerateYahooData(&g->bus, "events", config);
  ASSERT_TRUE(campaigns.ok()) << campaigns.status().ToString();
  g->campaigns = *campaigns;
  for (int p = 0; p < config.num_partitions; ++p) {
    auto end = g->bus.EndOffset("events", p);
    ASSERT_TRUE(end.ok());
    auto rows = g->bus.Read("events", p, 0, *end);
    ASSERT_TRUE(rows.ok());
    g->all_events.insert(g->all_events.end(), rows->begin(), rows->end());
  }
  ASSERT_EQ(static_cast<int64_t>(g->all_events.size()), config.num_events);
  g->reference = YahooReferenceCounts(g->all_events, g->campaigns);
  ASSERT_FALSE(g->reference.empty());
}

TEST(YahooWorkloadTest, GeneratorIsDeterministic) {
  Generated g1, g2;
  Generate(SmallConfig(), &g1);
  Generate(SmallConfig(), &g2);
  ASSERT_EQ(g1.all_events.size(), g2.all_events.size());
  for (size_t i = 0; i < g1.all_events.size(); ++i) {
    EXPECT_EQ(CompareRows(g1.all_events[i], g2.all_events[i]), 0);
  }
  EXPECT_EQ(g1.reference, g2.reference);
}

TEST(YahooWorkloadTest, StructuredStreamingMatchesReference) {
  Generated g;
  Generate(SmallConfig(), &g);
  auto source =
      std::make_shared<BusSource>(&g.bus, "events", YahooEventSchema());
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = YahooQuery(source, g.campaigns);
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 4;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());

  Counts got;
  for (const Row& row : sink->Snapshot()) {
    // (window_start, window_end, campaign_id, count)
    got[{row[2].int64_value(), row[0].int64_value() / 1000000}] =
        row[3].int64_value();
  }
  EXPECT_EQ(got, g.reference);
}

// The tie-out contract on the full Yahoo pipeline: every epoch's
// QueryProgress carries an e2e-latency summary, and merging those summaries
// reproduces the lifetime `sstreaming_e2e_latency_micros` Prometheus
// histogram exactly — same count, same buckets, same p99. A dashboard built
// on either surface reports the same latency.
TEST(YahooWorkloadTest, EndToEndLatencyTiesOutWithPrometheus) {
  constexpr int64_t kSec = 1000000;
  ManualClock clock(1000 * kSec);
  Generated g;
  g.bus.set_ingest_clock(&clock);  // events are ingest-stamped at append
  Generate(SmallConfig(), &g);
  clock.AdvanceMicros(2 * kSec);  // the backlog ages before we consume it

  auto source =
      std::make_shared<BusSource>(&g.bus, "events", YahooEventSchema());
  auto sink = std::make_shared<MemorySink>();
  auto metrics = std::make_shared<MetricsRegistry>();
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 4;
  opts.clock = &clock;
  opts.metrics = metrics;
  opts.max_records_per_epoch = 4000;  // several epochs over 20000 events
  auto query = StreamingQuery::Start(YahooQuery(source, g.campaigns), sink,
                                     opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  int epochs = 0;
  while (true) {
    auto ran = (*query)->ProcessOneTrigger();
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    if (!*ran) break;
    ++epochs;
    clock.AdvanceMicros(kSec / 2);  // spread commit times across buckets
  }
  ASSERT_GE(epochs, 5);

  LogHistogram merged;
  int64_t rows_written = 0;
  for (const QueryProgress& p : (*query)->recent_progress()) {
    EXPECT_FALSE(p.e2e_latency.empty()) << "epoch " << p.epoch;
    p.e2e_latency.MergeInto(&merged);
    rows_written += p.rows_written;
  }
  LogHistogram* lifetime =
      metrics->GetHistogram("sstreaming_e2e_latency_micros");
  ASSERT_NE(lifetime, nullptr);
  ASSERT_GT(lifetime->count(), 0);
  EXPECT_EQ(lifetime->count(), rows_written)
      << "every written row contributes one latency sample";
  EXPECT_EQ(merged.count(), lifetime->count());
  EXPECT_EQ(merged.sum(), lifetime->sum());
  EXPECT_EQ(merged.max(), lifetime->max());
  for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
    ASSERT_EQ(merged.bucket_count(i), lifetime->bucket_count(i))
        << "bucket " << i;
  }
  EXPECT_EQ(merged.ValueAtQuantile(0.99), lifetime->ValueAtQuantile(0.99));
  // Latency is bounded below by the 2s the backlog aged before processing.
  EXPECT_GE(merged.ValueAtQuantile(0.50), 2 * kSec);
}

/// Forwards every stage to `inner`, recording the stage names in order.
class StageRecorder : public TaskScheduler {
 public:
  explicit StageRecorder(TaskScheduler* inner) : inner_(inner) {}

  Status RunStage(const std::string& stage_name,
                  std::vector<std::function<Status()>> tasks,
                  StageWait* wait) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      names_.push_back(stage_name);
    }
    return inner_->RunStage(stage_name, std::move(tasks), wait);
  }
  int parallelism() const override { return inner_->parallelism(); }

  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(names_, {});
  }

 private:
  TaskScheduler* inner_;
  std::mutex mu_;
  std::vector<std::string> names_;
};

/// Runs the Yahoo query over SmallConfig() in epochs of at most
/// `max_records` records on `scheduler`, and returns each epoch's stage
/// names.
std::vector<std::vector<std::string>> YahooEpochStages(
    int num_partitions, TaskScheduler* scheduler, int64_t max_records) {
  Generated g;
  Generate(SmallConfig(), &g);
  auto source =
      std::make_shared<BusSource>(&g.bus, "events", YahooEventSchema());
  StageRecorder recorder(scheduler);
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = num_partitions;
  opts.scheduler = &recorder;
  opts.max_records_per_epoch = max_records;
  auto query = StreamingQuery::Start(YahooQuery(source, g.campaigns),
                                     std::make_shared<MemorySink>(), opts);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  std::vector<std::vector<std::string>> epochs;
  if (!query.ok()) return epochs;
  recorder.Take();  // anything the start submitted
  while (true) {
    auto ran = (*query)->ProcessOneTrigger();
    EXPECT_TRUE(ran.ok()) << ran.status().ToString();
    if (!ran.ok() || !*ran) break;
    epochs.push_back(recorder.Take());
  }
  return epochs;
}

// A stage of the epoch's job ends only at a shuffle (paper §6.2): the
// filter, the projection and the static join's probe run inside the
// shuffle's map tasks, and the exchange's reduce side and the aggregate's
// [eval] run inside its fold tasks (inline grain: 8 partitions on 4
// threads).
TEST(YahooWorkloadTest, InlineGrainEpochRunsThreeStages) {
  PoolScheduler pool(4);
  const auto epochs = YahooEpochStages(8, &pool, 5000);
  ASSERT_GE(epochs.size(), 4u);
  const std::vector<std::string> want = {
      "Source[bus:events]", "Shuffle p=8/map", "StatefulAggregate"};
  for (size_t e = 0; e < epochs.size(); ++e) {
    EXPECT_EQ(epochs[e], want) << "epoch " << e + 1;
  }
}

// On the split grain (1 partition on 8 threads) the partition's input is
// concatenated in the aggregate's [eval] task; there is still no reduce
// stage.
TEST(YahooWorkloadTest, SplitGrainEpochHasNoReduceStage) {
  PoolScheduler pool(8);
  const auto epochs = YahooEpochStages(1, &pool, 5000);
  ASSERT_GE(epochs.size(), 4u);
  const std::vector<std::string> want = {
      "Source[bus:events]", "Shuffle p=1/map", "StatefulAggregate[eval]",
      "StatefulAggregate[split]", "StatefulAggregate"};
  for (size_t e = 0; e < epochs.size(); ++e) {
    EXPECT_EQ(epochs[e], want) << "epoch " << e + 1;
  }
}

// Running the pipeline inside the map tasks changes no operator's record:
// every operator keeps its op_id (and so its state directory), and its
// rows and batches are the ones the plan reported when each operator ran
// its own stage. The map stage's tasks are the shuffle's.
TEST(YahooWorkloadTest, FusedMapStageKeepsOperatorCounters) {
  Generated g;
  Generate(SmallConfig(), &g);
  auto source =
      std::make_shared<BusSource>(&g.bus, "events", YahooEventSchema());
  PoolScheduler pool(4);
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = 8;
  opts.scheduler = &pool;
  auto query = StreamingQuery::Start(YahooQuery(source, g.campaigns),
                                     std::make_shared<MemorySink>(), opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE((*query)->ProcessAllAvailable().ok());
  QueryProgress p;
  ASSERT_TRUE((*query)->GetLastProgress(&p));
  ASSERT_EQ(p.epoch, 1);

  // Tasks: the source's reads, the shuffle's map (which runs the
  // pipeline) and the aggregate's folds; no other operator submits a stage.
  struct Want {
    const char* name;
    int64_t rows_in, rows_out, batches, tasks;
  };
  const std::map<int, Want> want = {
      {0, {"Source[bus:events]", 0, 20000, 4, 4}},
      {1, {"Filter (event_type = view)", 20000, 6697, 4, 0}},
      {2, {"Project", 6697, 6697, 4, 0}},
      {3, {"StreamStaticJoin", 6697, 6697, 4, 0}},
      {4, {"Shuffle p=8", 6697, 6697, 8, 4}},
      {5, {"StatefulAggregate", 6697, 50, 8, 8}},
      {6, {"FusedPipeline[Filter (event_type = view) -> Project -> "
           "StreamStaticJoin]",
           6697, 6697, 4, 0}},
  };
  ASSERT_EQ(p.operators.size(), want.size());
  for (const OperatorProgress& op : p.operators) {
    SCOPED_TRACE(op.name);
    auto it = want.find(op.op_id);
    ASSERT_NE(it, want.end());
    EXPECT_EQ(op.name, it->second.name);
    EXPECT_EQ(op.rows_in, it->second.rows_in);
    EXPECT_EQ(op.rows_out, it->second.rows_out);
    EXPECT_EQ(op.batches, it->second.batches);
    EXPECT_GE(op.cpu_nanos, 0);
    EXPECT_EQ(op.tasks, it->second.tasks);
    EXPECT_EQ(op.stage_nanos > 0, it->second.tasks > 0);
  }
}

TEST(YahooWorkloadTest, FlinkSimMatchesReference) {
  Generated g;
  Generate(SmallConfig(), &g);
  Counts got;
  for (int p = 0; p < 4; ++p) {
    auto pipeline = flinksim::BuildYahooPipeline(g.campaigns);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    auto end = g.bus.EndOffset("events", p);
    auto rows = g.bus.Read("events", p, 0, *end);
    ASSERT_TRUE(rows.ok());
    (*pipeline)->ProcessAll(*rows);
    (*pipeline)->Finish();
    auto* counter =
        static_cast<flinksim::WindowCountOperator*>((*pipeline)->last());
    flinksim::MergeYahooCounts(*counter, &got);
  }
  EXPECT_EQ(got, g.reference);
}

TEST(YahooWorkloadTest, KStreamsSimMatchesReference) {
  Generated g;
  Generate(SmallConfig(), &g);
  InlineScheduler scheduler;
  auto result = kstreamssim::RunYahoo(&g.bus, "events", "repartition",
                                      g.campaigns, &scheduler);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->counts, g.reference);
  EXPECT_GT(result->intermediate_records, 0);
}

TEST(YahooWorkloadTest, AllThreeEnginesAgree) {
  // The comparability requirement behind Figure 6a: identical answers.
  Generated g;
  Generate(SmallConfig(), &g);

  // flinksim
  Counts flink;
  for (int p = 0; p < 4; ++p) {
    auto pipeline = flinksim::BuildYahooPipeline(g.campaigns).TakeValue();
    auto rows = g.bus.Read("events", p, 0, *g.bus.EndOffset("events", p));
    pipeline->ProcessAll(*rows);
    auto* counter =
        static_cast<flinksim::WindowCountOperator*>(pipeline->last());
    flinksim::MergeYahooCounts(*counter, &flink);
  }
  // kstreams
  InlineScheduler scheduler;
  auto ks = kstreamssim::RunYahoo(&g.bus, "events", "repartition2",
                                  g.campaigns, &scheduler)
                .TakeValue();
  EXPECT_EQ(flink, ks.counts);
  EXPECT_EQ(flink, g.reference);
}

}  // namespace
}  // namespace sstreaming

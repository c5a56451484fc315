#ifndef SSTREAMING_BENCH_YAHOO_COMMON_H_
#define SSTREAMING_BENCH_YAHOO_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "baselines/flinksim.h"
#include "baselines/kstreamssim.h"
#include "connectors/bus_connectors.h"
#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "runtime/scheduler.h"
#include "workloads/yahoo.h"

namespace sstreaming {
namespace bench {

// Per-run actuals beyond throughput, for machine-readable output (--json).
// Epoch latencies are wall-clock per-trigger durations from QueryProgress.
struct StructuredRunStats {
  double records_per_sec = 0;
  int64_t epochs = 0;
  int64_t p50_epoch_nanos = 0;
  int64_t p99_epoch_nanos = 0;
  /// Simulated nanos spent in the stateful aggregation's stages (eval,
  /// shard split, per-shard fold), read from the aggregate's plan-profile
  /// totals — the denominator of the shard-scaling benchmark's
  /// stateful-stage throughput.
  int64_t stateful_stage_nanos = 0;
};

// Runs the Structured Streaming Yahoo query over all data in `bus`'s
// `topic`, charging task durations to `scheduler`. Returns records/second
// of simulated cluster time; fills `stats` when non-null. `num_state_shards`
// <= 0 keeps the engine default.
inline double RunStructured(MessageBus* bus, const std::string& topic,
                            const std::vector<Row>& campaigns,
                            int num_partitions,
                            SimClusterScheduler* scheduler,
                            int64_t num_events,
                            StructuredRunStats* stats = nullptr,
                            int num_state_shards = 0) {
  auto source = std::make_shared<BusSource>(bus, topic, YahooEventSchema());
  auto sink = std::make_shared<MemorySink>();
  DataFrame df = YahooQuery(source, campaigns);
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.num_partitions = num_partitions;
  opts.scheduler = scheduler;
  if (num_state_shards > 0) opts.num_state_shards = num_state_shards;
  scheduler->reset_virtual_time();
  auto query = StreamingQuery::Start(df, sink, opts);
  SS_CHECK(query.ok()) << query.status().ToString();
  SS_CHECK_OK((*query)->ProcessAllAvailable());
  double seconds =
      static_cast<double>(scheduler->virtual_nanos()) / 1e9;
  double records_per_sec = static_cast<double>(num_events) / seconds;
  if (stats != nullptr) {
    stats->records_per_sec = records_per_sec;
    for (const PlanProfile::Node& node :
         (*query)->plan_profile().Snapshot()) {
      if (node.op.name == "StatefulAggregate") {
        stats->stateful_stage_nanos += node.totals.stage_nanos;
      }
    }
    std::vector<int64_t> durations;
    for (const QueryProgress& p : (*query)->recent_progress()) {
      durations.push_back(p.duration_nanos);
    }
    std::sort(durations.begin(), durations.end());
    stats->epochs = static_cast<int64_t>(durations.size());
    if (!durations.empty()) {
      stats->p50_epoch_nanos = durations[durations.size() / 2];
      stats->p99_epoch_nanos = durations[durations.size() * 99 / 100];
    }
  }
  return records_per_sec;
}

// Runs the flinksim pipelines (one per partition, as scheduler tasks).
inline double RunFlink(MessageBus* bus, const std::string& topic,
                       const std::vector<Row>& campaigns, int num_partitions,
                       SimClusterScheduler* scheduler, int64_t num_events) {
  scheduler->reset_virtual_time();
  std::vector<std::unique_ptr<flinksim::Pipeline>> pipelines;
  for (int p = 0; p < num_partitions; ++p) {
    pipelines.push_back(
        flinksim::BuildYahooPipeline(campaigns).TakeValue());
  }
  std::vector<std::function<Status()>> tasks;
  for (int p = 0; p < num_partitions; ++p) {
    tasks.push_back([=, &pipelines]() -> Status {
      SS_ASSIGN_OR_RETURN(int64_t end, bus->EndOffset(topic, p));
      SS_ASSIGN_OR_RETURN(std::vector<Row> rows, bus->Read(topic, p, 0, end));
      pipelines[static_cast<size_t>(p)]->ProcessAll(rows);
      pipelines[static_cast<size_t>(p)]->Finish();
      return Status::OK();
    });
  }
  SS_CHECK_OK(scheduler->RunStage("flink", std::move(tasks)));
  double seconds =
      static_cast<double>(scheduler->virtual_nanos()) / 1e9;
  return static_cast<double>(num_events) / seconds;
}

// Runs the kstreamssim topology.
inline double RunKStreams(MessageBus* bus, const std::string& topic,
                          const std::vector<Row>& campaigns,
                          SimClusterScheduler* scheduler,
                          int64_t num_events,
                          const std::string& repartition_topic) {
  scheduler->reset_virtual_time();
  auto result = kstreamssim::RunYahoo(bus, topic, repartition_topic,
                                      campaigns, scheduler);
  SS_CHECK(result.ok()) << result.status().ToString();
  double seconds =
      static_cast<double>(scheduler->virtual_nanos()) / 1e9;
  return static_cast<double>(num_events) / seconds;
}

}  // namespace bench
}  // namespace sstreaming

#endif  // SSTREAMING_BENCH_YAHOO_COMMON_H_

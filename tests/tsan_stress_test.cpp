// TSan stress certification for sharded state under real parallelism: an
// 8-shard windowed aggregation runs its shard tasks on a 4-thread
// PoolScheduler while scraper threads hammer /metrics and the EXPLAIN
// ANALYZE plan endpoint (both of which read the per-shard state accounting
// concurrently with the epoch loop that writes it). Built and run in the
// thread-sanitizer leg of the verify recipe (ctest -L tsan-stress); any
// cross-thread access to shard state without synchronization fails the
// whole binary.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "connectors/memory.h"
#include "exec/query_manager.h"
#include "exec/streaming_query.h"
#include "obs/http_server.h"
#include "runtime/scheduler.h"

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

TEST(TsanStressTest, ShardedAggUnderPoolSchedulerAndConcurrentScrapes) {
  auto stream = std::make_shared<MemoryStream>("clicks", ClickSchema(), 2);
  auto sink = std::make_shared<MemorySink>();
  PoolScheduler pool(4);

  QueryManager manager;
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  // Fewer partitions than pool threads puts the keyed-shard driver on its
  // split grain (the one with cross-thread shard tasks): the 2x8
  // (partition, shard) folds are packed into 4 tasks that race on the 4
  // pool threads.
  opts.num_partitions = 2;
  opts.num_state_shards = 8;  // shard tasks outnumber pool threads
  opts.scheduler = &pool;
  opts.trigger = Trigger::ProcessingTime(1000);  // 1ms
  DataFrame df = DataFrame::ReadStream(stream)
                     .WithWatermark("time", 5 * kSec)
                     .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "w"),
                               NamedExpr{Col("country"), "country"}})
                     .Agg({SumOf(Col("latency"), "total")});
  ASSERT_TRUE(manager.StartQuery("stress", df, sink, opts).ok());
  ASSERT_TRUE(manager.ServeHttp(0).ok());
  int port = manager.http_port();
  ASSERT_GT(port, 0);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  const char* paths[] = {"/metrics", "/queries/stress/plan", "/metrics",
                         "/queries/stress/plan"};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      while (!done.load()) {
        auto resp = HttpGet(port, paths[t]);
        if (!resp.ok() || resp->status != 200) failures.fetch_add(1);
      }
    });
  }

  // Keys recur (state updates race the scrapes) and time advances (windows
  // close, shard eviction runs) while the scrapers read.
  static const char* kCountries[] = {"ca", "ny", "de", "fr", "jp", "br",
                                     "in", "au", "mx", "se", "pl", "kr"};
  for (int i = 0; i < 40; ++i) {
    std::vector<Row> rows;
    for (int j = 0; j < 12; ++j) {
      rows.push_back(Click(kCountries[(i + j) % 12], i * 12 + j, i + j % 4));
    }
    ASSERT_TRUE(stream->AddData(rows).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true);
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The shard accounting must actually have been live during the race:
  // /metrics exposes per-shard gauges for the 8 shards.
  auto metrics = HttpGet(port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->body.find("sstreaming_state_shard_rows"),
            std::string::npos)
      << metrics->body.substr(0, 2000);
  EXPECT_NE(metrics->body.find("shard=\"7\""), std::string::npos);

  manager.StopAll();
  manager.StopHttp();
  EXPECT_FALSE(sink->SortedSnapshot().empty());
}

}  // namespace
}  // namespace sstreaming

#include "passes.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "connectors/bus_connectors.h"
#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "runtime/scheduler.h"
#include "workloads/yahoo.h"

namespace perfbench {

using sstreaming::DataFrame;
using sstreaming::Status;

bool FindWorkload(const std::string& name, Workload* out) {
  static const Workload kAll[] = {
      // ~7 ms epochs: record-at-a-time layers dominate.
      {"yahoo_drain", QueryKind::kYahooWindowCounts, 50000},
      // ~22k distinct keys upserted per ~55 ms epoch.
      {"user_counts_drain", QueryKind::kUserCounts, 25000},
  };
  for (const Workload& w : kAll) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

int64_t RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long pages = 0;
  long long resident = 0;
  int n = std::fscanf(f, "%lld %lld", &pages, &resident);
  std::fclose(f);
  return n == 2 ? resident * sysconf(_SC_PAGESIZE) : 0;
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  long long v[8] = {};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return t;
  t.steal = v[7];
  for (long long x : v) t.total += x;
  return t;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

Bench::Bench(uint64_t seed, const std::string& checkpoint_root,
             Workload workload)
    : seed_(seed),
      workload_(std::move(workload)),
      checkpoint_dir_(checkpoint_root + "/" + workload_.name) {}

Status Bench::Prepare() {
  // Event times span 100 s: ten 10 s windows x 100 campaigns; user ids are
  // drawn from 100000.
  sstreaming::YahooConfig config;
  config.num_partitions = kPartitions;
  config.num_events = kDrainBacklog;
  config.seed = seed_;
  SS_ASSIGN_OR_RETURN(campaigns_,
                      sstreaming::GenerateYahooData(&bus_, "events", config));
  SS_ASSIGN_OR_RETURN(
      Reference ref,
      Reference::FromBus(workload_.kind, bus_, "events", campaigns_));
  reference_.emplace(std::move(ref));
  rss_inputs_ = RssBytes();
  return Status::OK();
}

DataFrame Bench::Query(sstreaming::SourcePtr source) const {
  if (workload_.kind == QueryKind::kUserCounts) {
    return DataFrame::ReadStream(std::move(source))
        .GroupBy(std::vector<std::string>{"user_id"})
        .Count();
  }
  return sstreaming::YahooQuery(std::move(source), campaigns_);
}

struct Bench::Pipeline {
  std::shared_ptr<sstreaming::MemorySink> table;
  std::shared_ptr<TracedSink> sink;
  std::unique_ptr<TracedScheduler> scheduler;
  std::unique_ptr<sstreaming::StreamingQuery> query;
};

Status Bench::StartQuery(const PassOptions& opt, Pipeline* out) {
  std::error_code ec;
  std::filesystem::remove_all(checkpoint_dir_, ec);
  recorder_.set_tracing(opt.tracing);
  auto source = std::make_shared<TracedSource>(
      std::make_shared<sstreaming::BusSource>(&bus_, "events",
                                              sstreaming::YahooEventSchema()),
      &recorder_);
  out->table = std::make_shared<sstreaming::MemorySink>();
  out->sink = std::make_shared<TracedSink>(out->table, &recorder_);
  out->sink->set_commit_delay_nanos(opt.sink_delay_nanos);
  if (opt.corrupt_epoch > 0) out->sink->CorruptCommit(opt.corrupt_epoch);
  out->scheduler = std::make_unique<TracedScheduler>(
      std::make_unique<sstreaming::PoolScheduler>(opt.threads), &recorder_);
  sstreaming::QueryOptions q;
  q.mode = sstreaming::OutputMode::kUpdate;
  q.checkpoint_dir = checkpoint_dir_;
  q.num_partitions = kPartitions;
  q.max_records_per_epoch = workload_.epoch_cap;
  q.scheduler = out->scheduler.get();
  q.query_name = workload_.name;
  auto query = sstreaming::StreamingQuery::Start(Query(source), out->sink, q);
  if (!query.ok()) return query.status();
  out->query = std::move(*query);
  out->query->SetProgressCallback(
      [this](const sstreaming::QueryProgress& p) {
        if (EpochRecord* e = recorder_.current()) {
          e->progress = p;
          e->has_progress = true;
        }
      });
  return Status::OK();
}

// Runs one trigger into `*epoch`; false when no epoch ran.
sstreaming::Result<bool> Bench::Trigger(Pipeline* pl, EpochRecord* epoch) {
  recorder_.set_current(epoch);
  epoch->wall.start = NowNanos();
  auto ran = pl->query->ProcessOneTrigger();
  epoch->wall.end = NowNanos();
  recorder_.set_current(nullptr);
  return ran;
}

// Checks the sink table, measures the checkpoint dir, stops the query.
void Bench::FinishPass(Pipeline* pl, PassResult* r) {
  const sstreaming::SchemaPtr& schema =
      pl->query->physical_plan().root->schema();
  r->mismatched = reference_->CountMismatches(*schema, pl->table->Snapshot());
  if (r->mismatched < 0) {
    r->status = Status::Internal("sink table has an unexpected schema");
    r->mismatched = r->events;
  }
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(
           checkpoint_dir_, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    ++r->checkpoint_files;
    r->checkpoint_bytes += static_cast<int64_t>(it->file_size(ec));
  }
  pl->query.reset();
  std::filesystem::remove_all(checkpoint_dir_, ec);
}

PassResult Bench::RunPass(const PassOptions& opt) {
  PassResult r;
  r.events = kDrainBacklog;
  r.mismatched = r.events;
  Pipeline pl;
  const CpuTicks ticks0 = ReadCpuTicks();
  const int64_t pass_start = NowNanos();
  r.status = StartQuery(opt, &pl);
  if (!r.status.ok()) return r;
  const int64_t started = NowNanos();
  int64_t committed = 0;
  while (true) {
    EpochRecord epoch;
    auto ran = Trigger(&pl, &epoch);
    if (!ran.ok()) {
      r.status = ran.status();
      return r;
    }
    if (!*ran) break;
    ++r.all_epochs;
    committed += epoch.rows_read();
    if (!opt.tracing) r.peak_rss = std::max(r.peak_rss, RssBytes());
    if (r.all_epochs == 1) {
      r.setup_seconds =
          static_cast<double>((started - pass_start) + epoch.wall.nanos()) /
          kSec;
      continue;  // the first epoch is set-up, not steady state
    }
    r.epochs.push_back(std::move(epoch));
  }
  const CpuTicks ticks1 = ReadCpuTicks();
  r.steal_ticks = ticks1.steal - ticks0.steal;
  r.cpu_ticks = ticks1.total - ticks0.total;
  if (committed != kDrainBacklog) {
    r.status = Status::Internal("drain read " + std::to_string(committed) +
                                " of " + std::to_string(kDrainBacklog) +
                                " events");
  }
  FinishPass(&pl, &r);
  return r;
}

}  // namespace perfbench

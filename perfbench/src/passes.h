// Passes: one fresh query draining its backlog, measured from outside the
// engine.
//
// A pass starts a StreamingQuery on a fresh checkpoint directory, drives its
// triggers itself, records every epoch (trace.h), then checks the sink table
// against the reference and stops the query. Runs repeat passes until their
// time is spent.
#ifndef PERFBENCH_PASSES_H_
#define PERFBENCH_PASSES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "common/status.h"
#include "logical/dataframe.h"
#include "reference.h"
#include "trace.h"

namespace perfbench {

constexpr int64_t kMs = 1000000;   // nanos
constexpr int64_t kSec = 1000 * kMs;

// Bus and shuffle partitions of every workload.
constexpr int kPartitions = 8;
// Every pass drains the same backlog of 400k events, 50 events per key on
// Yahoo's ~1000 (campaign, window) keys and ~4 per user id. Small enough
// (130 MB as bus rows) that the host's memory-bandwidth noise stays out of
// the run-to-run spread; a 1.6M-event backlog spread twice as wide.
constexpr int64_t kDrainBacklog = 400000;

/// A named workload: which query, and how many records an epoch reads.
struct Workload {
  std::string name;
  QueryKind kind = QueryKind::kYahooWindowCounts;
  int64_t epoch_cap = 0;
};

bool FindWorkload(const std::string& name, Workload* out);

/// Resident set size of this process, from /proc/self/statm.
int64_t RssBytes();

/// Machine-wide CPU ticks from /proc/stat: {steal, total}.
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

struct PassOptions {
  int threads = 1;
  bool tracing = false;
  int64_t sink_delay_nanos = 0;
  int64_t corrupt_epoch = 0;  // 0 = never
};

// What one pass measured. Epoch lists hold only the timed epochs.
struct PassResult {
  sstreaming::Status status;
  double setup_seconds = 0;
  std::vector<EpochRecord> epochs;
  int64_t events = 0;
  int64_t mismatched = 0;
  int64_t peak_rss = 0;
  int64_t checkpoint_files = 0;
  int64_t checkpoint_bytes = 0;
  int64_t all_epochs = 0;
  /// CPU time the hypervisor stole during the pass, and all CPU time, in
  /// /proc/stat ticks summed over CPUs.
  int64_t steal_ticks = 0;
  int64_t cpu_ticks = 0;
};

// Aggregates over the timed passes of one configuration.
struct Window {
  std::vector<PassResult> passes;
  double seconds = 0;

  int64_t rows() const {
    int64_t n = 0;
    for (const PassResult& p : passes) {
      for (const EpochRecord& e : p.epochs) n += e.rows_read();
    }
    return n;
  }
  int64_t epoch_nanos() const {
    int64_t n = 0;
    for (const PassResult& p : passes) {
      for (const EpochRecord& e : p.epochs) n += e.wall.nanos();
    }
    return n;
  }
  // Input records per second of trigger wall time.
  double rate() const {
    const int64_t ns = epoch_nanos();
    return ns > 0 ? static_cast<double>(rows()) * kSec / ns : 0;
  }
};

class Bench {
 public:
  Bench(uint64_t seed, const std::string& checkpoint_root, Workload workload);

  /// Loads the backlog (sstreaming::GenerateYahooData) and counts the
  /// reference over all of it.
  sstreaming::Status Prepare();
  /// Drains the whole backlog with a fresh query.
  PassResult RunPass(const PassOptions& opt);

  /// RSS once the backlog and the reference exist.
  int64_t rss_inputs() const { return rss_inputs_; }
  int64_t expected_drain_epochs() const {
    return (kDrainBacklog + workload_.epoch_cap - 1) / workload_.epoch_cap;
  }

 private:
  struct Pipeline;

  sstreaming::DataFrame Query(sstreaming::SourcePtr source) const;
  sstreaming::Status StartQuery(const PassOptions& opt, Pipeline* out);
  sstreaming::Result<bool> Trigger(Pipeline* pl, EpochRecord* epoch);
  void FinishPass(Pipeline* pl, PassResult* r);

  uint64_t seed_;
  Workload workload_;
  std::string checkpoint_dir_;
  Recorder recorder_;
  sstreaming::MessageBus bus_;
  std::vector<sstreaming::Row> campaigns_;
  std::optional<Reference> reference_;
  int64_t rss_inputs_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PASSES_H_

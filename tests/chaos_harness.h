#ifndef SSTREAMING_TESTS_CHAOS_HARNESS_H_
#define SSTREAMING_TESTS_CHAOS_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "connectors/memory.h"
#include "connectors/sink.h"
#include "exec/streaming_query.h"
#include "testing/failpoints.h"

namespace sstreaming {

/// A sink wrapper that enforces the paper's delivery invariants while
/// delegating table semantics to MemorySink:
///  - every epoch's first successful commit is recorded;
///  - a re-commit of an epoch (recovery replay) must deliver byte-identical
///    rows, or the epoch is counted as a mismatch (a duplicate/lost-update
///    bug);
///  - committed epoch numbers must be contiguous (no lost epochs).
class VerifyingSink : public Sink {
 public:
  bool SupportsMode(OutputMode mode) const override {
    return inner_.SupportsMode(mode);
  }
  Status CommitEpoch(int64_t epoch, OutputMode mode, int num_key_columns,
                     const std::vector<RecordBatchPtr>& batches) override;

  std::vector<Row> SortedSnapshot() const { return inner_.SortedSnapshot(); }
  /// Sorted rows of each epoch's first successful delivery.
  const std::map<int64_t, std::vector<Row>>& epoch_rows() const {
    return epoch_rows_;
  }
  /// Epochs whose re-delivery differed from the first delivery.
  const std::vector<int64_t>& mismatched_epochs() const {
    return mismatched_epochs_;
  }
  int64_t commit_calls() const { return commit_calls_; }

 private:
  MemorySink inner_;
  mutable std::mutex mu_;
  std::map<int64_t, std::vector<Row>> epoch_rows_;
  std::vector<int64_t> mismatched_epochs_;
  int64_t commit_calls_ = 0;
};

/// Drives one stateful windowed-aggregation query through a deterministic
/// multi-round workload, optionally with one failpoint armed; every injected
/// failure is treated as a process crash (the query object is destroyed and
/// a new one started from the checkpoint). The same workload without faults
/// is the golden run chaos scenarios are compared against.
class ChaosHarness {
 public:
  /// Which stateful pipeline the harness drives. The aggregation workload
  /// rewrites per-key state every epoch; the stream-stream join workload
  /// also exercises the shard Append fast path (grow-only join state), so
  /// the state.shard.append failpoint only fires under kJoin. The
  /// flatMapGroupsWithState workload keeps a count per key behind an
  /// event-time timeout, so keys are created, rewritten and timed out.
  enum class Workload { kAgg, kJoin, kMapGroups };

  struct Options {
    Options() {}
    int rounds = 6;
    int rows_per_round = 8;
    uint64_t seed = 42;         // workload generator seed
    int num_partitions = 2;     // shuffle fan-out and source partitions
    int state_checkpoint_interval = 1;
    /// Keyed-state shards per (operator, partition) store.
    int num_state_shards = 4;
    Workload workload = Workload::kAgg;
    /// Clean stop + restart after this round (0 = never): exercises the
    /// recovery read path even in scenarios whose failpoint lives there.
    int planned_restart_after_round = 3;
    int max_crashes = 25;       // crash-loop circuit breaker
    /// > 0: run on a PoolScheduler of this many threads, so the fold
    /// tasks (and the state commits in them) run on pool threads; with
    /// more threads than partitions that is the split grain. 0: inline.
    int pool_threads = 0;
  };

  struct RunResult {
    Status status;        // first non-injected failure, or OK
    int64_t crashes = 0;  // injected failures treated as crashes
    int64_t triggers = 0; // times the armed failpoint actually fired
    std::vector<Row> final_rows;                  // sorted sink table
    std::map<int64_t, std::vector<Row>> epochs;   // per-epoch first deliveries
    std::vector<int64_t> mismatched_epochs;
    int64_t last_epoch = 0;
    std::string checkpoint_dir;  // removed unless keep_checkpoint
  };

  explicit ChaosHarness(Options options) : options_(options) {}

  /// Runs with no failpoint armed. Registers every failpoint site on the
  /// durability path as a side effect, so RegisteredFailpoints() is the
  /// sweep universe afterwards.
  RunResult RunFaultFree() { return Run("", FailpointSpec{}); }

  /// Runs the workload with `failpoint` armed to fire once on its Nth hit.
  RunResult RunWithFault(const std::string& failpoint, int hit);

  /// Checks a faulted run against the golden run; returns OK or a
  /// description of the first violated invariant (prefix consistency,
  /// duplicate-free re-delivery, no lost epochs, WAL/state agreement).
  static Status CheckInvariants(const RunResult& golden,
                                const RunResult& chaos);

  /// All failpoint names seen by the process (run RunFaultFree first).
  static std::vector<std::string> RegisteredFailpoints();

 private:
  RunResult Run(const std::string& failpoint, FailpointSpec spec);

  Options options_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_TESTS_CHAOS_HARNESS_H_

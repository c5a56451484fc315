#include "chaos_harness.h"

#include <algorithm>
#include <filesystem>

#include "common/random.h"
#include "obs/query_history.h"
#include "runtime/scheduler.h"
#include "state/sharded_state_store.h"
#include "storage/fs.h"
#include "wal/write_ahead_log.h"

namespace sstreaming {

namespace {

constexpr int64_t kSec = 1000000;

SchemaPtr ChaosSchema() {
  return Schema::Make({{"country", TypeId::kString, false},
                       {"latency", TypeId::kInt64, false},
                       {"time", TypeId::kTimestamp, false}});
}

/// The whole workload, generated up front so every run (golden or faulted,
/// however many crashes) feeds byte-identical rounds.
std::vector<std::vector<Row>> GenerateRounds(const ChaosHarness::Options& o) {
  static const char* kCountries[] = {"ca", "ny", "tx", "uk"};
  Random rng(o.seed);
  std::vector<std::vector<Row>> rounds(static_cast<size_t>(o.rounds));
  for (int r = 0; r < o.rounds; ++r) {
    for (int i = 0; i < o.rows_per_round; ++i) {
      // Event times advance ~6s per round with ±8s jitter: windows keep
      // opening and closing as the watermark moves, so state both grows
      // and drains over the run.
      int64_t sec = r * 6 + static_cast<int64_t>(rng.Uniform(8));
      rounds[static_cast<size_t>(r)].push_back(
          {Value::Str(kCountries[rng.Uniform(4)]),
           Value::Int64(static_cast<int64_t>(rng.Uniform(100))),
           Value::Timestamp(sec * kSec)});
    }
  }
  return rounds;
}

DataFrame ChaosQuery(const std::shared_ptr<MemoryStream>& stream) {
  return DataFrame::ReadStream(stream)
      .WithWatermark("time", 5 * kSec)
      .GroupBy({As(TumblingWindow(Col("time"), 10 * kSec), "w"),
                NamedExpr{Col("country"), "country"}})
      .Count();
}

SchemaPtr ChaosRightSchema() {
  return Schema::Make({{"country", TypeId::kString, false},
                       {"rlatency", TypeId::kInt64, false},
                       {"rtime", TypeId::kTimestamp, false}});
}

/// Stream-stream inner join on country; both sides watermarked so join state
/// drains as event time advances. Keys recur across rounds, so stored side
/// state regularly *grows* without its older rows changing — the condition
/// for the shard Append fast path (and its failpoint) to run.
DataFrame ChaosJoinQuery(const std::shared_ptr<MemoryStream>& left,
                         const std::shared_ptr<MemoryStream>& right) {
  return DataFrame::ReadStream(left)
      .WithWatermark("time", 5 * kSec)
      .Join(DataFrame::ReadStream(right).WithWatermark("rtime", 5 * kSec),
            {"country"});
}

/// flatMapGroupsWithState per latency value (100 keys, so most go quiet
/// within the run): count and latency sum, emitted on every call, with an
/// event-time timeout 3 s after the latest event; a timed-out key emits
/// its totals once and drops its state.
DataFrame ChaosMapGroupsQuery(const std::shared_ptr<MemoryStream>& stream) {
  GroupUpdateFn count_until_idle =
      [](const Row& key, const std::vector<Row>& values,
         GroupState* state) -> Result<std::vector<Row>> {
    int64_t n = state->exists() ? state->get()[0].int64_value() : 0;
    int64_t total = state->exists() ? state->get()[1].int64_value() : 0;
    const bool timed_out = state->HasTimedOut();
    if (timed_out) {
      state->remove();
    } else {
      int64_t latest = INT64_MIN;
      for (const Row& v : values) {
        ++n;
        total += v[1].int64_value();
        latest = std::max(latest, v[2].int64_value());
      }
      state->update({Value::Int64(n), Value::Int64(total)});
      state->SetTimeoutTimestamp(latest + 3 * kSec);
    }
    return std::vector<Row>{{key[0], Value::Int64(n), Value::Int64(total),
                             Value::Bool(timed_out)}};
  };
  return DataFrame::ReadStream(stream)
      .WithWatermark("time", 5 * kSec)
      .GroupByKey({As(Col("latency"), "latency")})
      .FlatMapGroupsWithState(
          count_until_idle,
          Schema::Make({{"latency", TypeId::kInt64, false},
                        {"n", TypeId::kInt64, false},
                        {"total", TypeId::kInt64, false},
                        {"timed_out", TypeId::kBool, false}}),
          GroupStateTimeout::kEventTime);
}

/// After a drained run the durable artifacts must agree: every planned
/// epoch committed, the WAL tail matches the engine's last epoch, and each
/// state-store partition restores to the expected checkpointed version.
Status CheckDurableAgreement(const std::string& checkpoint_dir,
                             int64_t last_epoch,
                             int state_checkpoint_interval) {
  SS_ASSIGN_OR_RETURN(WriteAheadLog wal,
                      WriteAheadLog::Open(checkpoint_dir + "/wal"));
  SS_ASSIGN_OR_RETURN(std::optional<int64_t> planned,
                      wal.LatestPlannedEpoch());
  SS_ASSIGN_OR_RETURN(std::optional<int64_t> committed,
                      wal.LatestCommittedEpoch());
  if (planned.value_or(0) != last_epoch ||
      committed.value_or(0) != last_epoch) {
    return Status::Internal(
        "WAL disagrees with engine: planned=" +
        std::to_string(planned.value_or(0)) +
        " committed=" + std::to_string(committed.value_or(0)) +
        " last_epoch=" + std::to_string(last_epoch));
  }
  SS_ASSIGN_OR_RETURN(std::vector<int64_t> epochs, wal.ListPlannedEpochs());
  int64_t expect = 1;
  for (int64_t e : epochs) {
    if (e != expect++) {
      return Status::Internal("lost epoch: plan log skips to " +
                              std::to_string(e));
    }
    if (!wal.IsCommitted(e)) {
      return Status::Internal("epoch " + std::to_string(e) +
                              " planned but never committed");
    }
  }
  // Stateful stages checkpoint on multiples of the interval; every shard of
  // every partition store must restore exactly that version. Checking each
  // shard independently (not just the store's min) pins down which shard a
  // partial checkpoint corrupted.
  const int64_t interval = std::max(1, state_checkpoint_interval);
  const int64_t expected_version = (last_epoch / interval) * interval;
  std::string state_root = checkpoint_dir + "/state";
  if (FileExists(state_root)) {
    std::error_code ec;
    for (const auto& op_entry :
         std::filesystem::directory_iterator(state_root, ec)) {
      if (!op_entry.is_directory()) continue;
      for (const auto& part_entry :
           std::filesystem::directory_iterator(op_entry.path(), ec)) {
        if (!part_entry.is_directory()) continue;
        // Adopt whatever shard count is on disk: this is a forensic reopen,
        // not a restart, so the SS3004 mismatch gate must not apply.
        ShardedStateStore::Options reopen;
        reopen.allow_shard_count_mismatch = true;
        SS_ASSIGN_OR_RETURN(std::unique_ptr<ShardedStateStore> store,
                            ShardedStateStore::Open(
                                part_entry.path().string(), last_epoch,
                                reopen));
        for (int s = 0; s < store->num_shards(); ++s) {
          int64_t v = store->shard(s)->loaded_version();
          if (v != expected_version) {
            return Status::Internal(
                "state store " + part_entry.path().string() + " shard " +
                std::to_string(s) + " restored v" + std::to_string(v) +
                ", expected v" + std::to_string(expected_version));
          }
        }
      }
    }
  }
  return Status::OK();
}

/// History is telemetry, but it must be *readable* telemetry after any
/// number of crashes: ReadAll must parse the entire log (torn tails are
/// repaired on reopen; interior corruption is a bug), every event must name
/// this query, each crash-restart must land a fresh "started" line, and the
/// progress lines must reach the engine's final epoch.
Status CheckHistoryIntegrity(const std::string& checkpoint_dir,
                             int64_t last_epoch) {
  SS_ASSIGN_OR_RETURN(std::vector<Json> events,
                      QueryHistoryLog::ReadAll(checkpoint_dir));
  int64_t starts = 0;
  int64_t max_epoch = 0;
  for (const Json& event : events) {
    if (event.Get("query").string_value() != "chaos") {
      return Status::Internal("history event for wrong query: " +
                              event.Dump());
    }
    const std::string& kind = event.Get("event").string_value();
    if (kind == "started") {
      ++starts;
    } else if (kind == "progress") {
      max_epoch = std::max(
          max_epoch, event.Get("progress").Get("epoch").int_value());
    }
  }
  // At least the last successful incarnation logged its start. (No exact
  // count: a crash injected before the started line — e.g. inside
  // WriteAheadLog::Open — legitimately leaves no trace of that attempt.)
  if (starts < 1) {
    return Status::Internal("history has no started event");
  }
  if (max_epoch != last_epoch) {
    return Status::Internal("history progress stops at epoch " +
                            std::to_string(max_epoch) + ", engine reached " +
                            std::to_string(last_epoch));
  }
  return Status::OK();
}

}  // namespace

Status VerifyingSink::CommitEpoch(int64_t epoch, OutputMode mode,
                                  int num_key_columns,
                                  const std::vector<RecordBatchPtr>& batches) {
  std::vector<Row> rows;
  for (const auto& b : batches) {
    auto brows = b->ToRows();
    rows.insert(rows.end(), brows.begin(), brows.end());
  }
  std::sort(rows.begin(), rows.end(), RowLess());
  // Forward first: the inner sink carries the sink.commit.* failpoints, and
  // a delivery that failed there must not be recorded as seen.
  SS_RETURN_IF_ERROR(inner_.CommitEpoch(epoch, mode, num_key_columns,
                                        batches));
  std::lock_guard<std::mutex> lock(mu_);
  ++commit_calls_;
  auto it = epoch_rows_.find(epoch);
  if (it == epoch_rows_.end()) {
    epoch_rows_.emplace(epoch, std::move(rows));
  } else if (it->second != rows) {
    mismatched_epochs_.push_back(epoch);
  }
  return Status::OK();
}

ChaosHarness::RunResult ChaosHarness::RunWithFault(
    const std::string& failpoint, int hit) {
  FailpointSpec spec;
  spec.hit = hit;
  spec.action = failpoint == "fs.write.torn" ? FailpointSpec::Action::kTorn
                                             : FailpointSpec::Action::kError;
  return Run(failpoint, spec);
}

ChaosHarness::RunResult ChaosHarness::Run(const std::string& failpoint,
                                          FailpointSpec spec) {
  RunResult result;
  auto dir = MakeTempDir("sstreaming_chaos");
  if (!dir.ok()) {
    result.status = dir.status();
    return result;
  }
  result.checkpoint_dir = *dir;

  const bool join = options_.workload == Workload::kJoin;
  auto stream = std::make_shared<MemoryStream>("clicks", ChaosSchema(),
                                               options_.num_partitions);
  std::shared_ptr<MemoryStream> right_stream;
  auto sink = std::make_shared<VerifyingSink>();
  DataFrame df = options_.workload == Workload::kMapGroups
                     ? ChaosMapGroupsQuery(stream)
                     : ChaosQuery(stream);
  if (join) {
    right_stream = std::make_shared<MemoryStream>(
        "views", ChaosRightSchema(), options_.num_partitions);
    df = ChaosJoinQuery(stream, right_stream);
  }
  QueryOptions opts;
  // Stream-stream join output is append-only; the aggregation workload
  // upserts per-window counts, and flatMapGroupsWithState emits per call.
  opts.mode = join ? OutputMode::kAppend : OutputMode::kUpdate;
  opts.num_partitions = options_.num_partitions;
  opts.checkpoint_dir = result.checkpoint_dir;
  opts.state_checkpoint_interval = options_.state_checkpoint_interval;
  opts.num_state_shards = options_.num_state_shards;
  opts.enable_tracing = false;
  opts.query_name = "chaos";
  std::unique_ptr<PoolScheduler> pool;
  if (options_.pool_threads > 0) {
    pool = std::make_unique<PoolScheduler>(options_.pool_threads);
    opts.scheduler = pool.get();
  }

  Failpoints& fps = Failpoints::Instance();
  fps.DisarmAll();
  if (!failpoint.empty()) {
    result.status = fps.Arm(failpoint, spec);
    if (!result.status.ok()) return result;
  }

  std::unique_ptr<StreamingQuery> query;
  // Starts (recovering) if needed and drains available input, treating
  // every injected failure — wherever it strikes, including inside
  // recovery itself — as a crash: drop the query object, start over from
  // the checkpoint.
  auto pump = [&]() -> Status {
    while (true) {
      if (query == nullptr) {
        auto q = StreamingQuery::Start(df, sink, opts);
        if (!q.ok()) {
          if (!Failpoints::IsInjected(q.status())) return q.status();
          if (++result.crashes > options_.max_crashes) {
            return Status::Internal("crash loop during recovery: " +
                                    q.status().ToString());
          }
          continue;
        }
        query = std::move(*q);
      }
      Status st = query->ProcessAllAvailable();
      if (st.ok()) return Status::OK();
      query.reset();  // simulated process death
      if (!Failpoints::IsInjected(st)) return st;
      if (++result.crashes > options_.max_crashes) {
        return Status::Internal("crash loop: " + st.ToString());
      }
    }
  };

  auto rounds = GenerateRounds(options_);
  // The join workload feeds a second deterministic stream (different seed,
  // same cadence) so both sides grow and match across epochs.
  std::vector<std::vector<Row>> right_rounds;
  if (join) {
    Options right_options = options_;
    right_options.seed = options_.seed + 1;
    right_rounds = GenerateRounds(right_options);
  }
  for (int r = 0; r < options_.rounds; ++r) {
    result.status = stream->AddData(rounds[static_cast<size_t>(r)]);
    if (!result.status.ok()) break;
    if (join) {
      result.status =
          right_stream->AddData(right_rounds[static_cast<size_t>(r)]);
      if (!result.status.ok()) break;
    }
    result.status = pump();
    if (!result.status.ok()) break;
    if (r + 1 == options_.planned_restart_after_round) {
      query.reset();  // clean stop; next pump exercises the recovery path
    }
  }
  if (result.status.ok()) result.status = pump();
  if (query != nullptr) result.last_epoch = query->last_epoch();
  query.reset();
  if (!failpoint.empty()) result.triggers = fps.triggers(failpoint);
  fps.DisarmAll();

  result.final_rows = sink->SortedSnapshot();
  result.epochs = sink->epoch_rows();
  result.mismatched_epochs = sink->mismatched_epochs();
  if (result.status.ok()) {
    result.status = CheckDurableAgreement(result.checkpoint_dir,
                                          result.last_epoch,
                                          options_.state_checkpoint_interval);
  }
  if (result.status.ok()) {
    result.status = CheckHistoryIntegrity(result.checkpoint_dir,
                                          result.last_epoch);
  }
  RemoveDirRecursive(result.checkpoint_dir).ok();
  return result;
}

Status ChaosHarness::CheckInvariants(const RunResult& golden,
                                     const RunResult& chaos) {
  SS_RETURN_IF_ERROR(chaos.status);
  if (!chaos.mismatched_epochs.empty()) {
    return Status::Internal(
        "replayed epoch delivered different rows (first: epoch " +
        std::to_string(chaos.mismatched_epochs.front()) + ")");
  }
  if (chaos.last_epoch != golden.last_epoch) {
    return Status::Internal("epoch count diverged: " +
                            std::to_string(chaos.last_epoch) + " vs golden " +
                            std::to_string(golden.last_epoch));
  }
  // Every delivered epoch matches the fault-free run's same epoch, and the
  // epoch sets are equal — so at any crash point the committed output was a
  // prefix of the golden sequence, with no duplicates and nothing lost.
  // On divergence, name the first epoch and row that differ (not just a
  // boolean) so a failed sweep scenario points at the broken epoch.
  if (chaos.epochs != golden.epochs) {
    for (const auto& [epoch, golden_rows] : golden.epochs) {
      auto it = chaos.epochs.find(epoch);
      if (it == chaos.epochs.end()) {
        return Status::Internal("epoch " + std::to_string(epoch) +
                                " delivered in the fault-free run is missing "
                                "from the chaos run");
      }
      const std::vector<Row>& chaos_rows = it->second;
      if (chaos_rows == golden_rows) continue;
      size_t n = std::min(chaos_rows.size(), golden_rows.size());
      for (size_t i = 0; i < n; ++i) {
        if (chaos_rows[i] != golden_rows[i]) {
          return Status::Internal(
              "epoch " + std::to_string(epoch) + " diverged at sorted row " +
              std::to_string(i) + ": chaos=" + RowToString(chaos_rows[i]) +
              " golden=" + RowToString(golden_rows[i]));
        }
      }
      return Status::Internal(
          "epoch " + std::to_string(epoch) + " diverged: chaos delivered " +
          std::to_string(chaos_rows.size()) + " rows, golden " +
          std::to_string(golden_rows.size()) + " (first differ at row " +
          std::to_string(n) + ")");
    }
    for (const auto& [epoch, rows] : chaos.epochs) {
      (void)rows;
      if (!golden.epochs.count(epoch)) {
        return Status::Internal("chaos run delivered epoch " +
                                std::to_string(epoch) +
                                " that the fault-free run never produced");
      }
    }
    return Status::Internal("per-epoch output diverged from fault-free run");
  }
  if (chaos.final_rows != golden.final_rows) {
    size_t n = std::min(chaos.final_rows.size(), golden.final_rows.size());
    for (size_t i = 0; i < n; ++i) {
      if (chaos.final_rows[i] != golden.final_rows[i]) {
        return Status::Internal(
            "final table diverged at sorted row " + std::to_string(i) +
            ": chaos=" + RowToString(chaos.final_rows[i]) +
            " golden=" + RowToString(golden.final_rows[i]));
      }
    }
    return Status::Internal(
        "final table diverged: chaos has " +
        std::to_string(chaos.final_rows.size()) + " rows, golden " +
        std::to_string(golden.final_rows.size()));
  }
  return Status::OK();
}

std::vector<std::string> ChaosHarness::RegisteredFailpoints() {
  return Failpoints::Instance().RegisteredNames();
}

}  // namespace sstreaming

// Wall-clock benchmark of the microbatch engine on this machine's cores.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//   perfbench --self-test --seed <n> --seconds <s> --work-dir <dir>
//
// Workloads (both drain a bus backlog of Yahoo events generated from
// --seed by sstreaming::GenerateYahooData; closed loop, one driver, each
// epoch capped at a fixed record count):
//   yahoo_drain        the paper's Yahoo query (filter views -> project ->
//                      stream-static join -> 10 s windowed count, update
//                      mode).
//   user_counts_drain  a running count per user_id (100000 keys): every
//                      epoch upserts tens of thousands of distinct keys
//                      instead of ~1000 hot ones.
//
// A run repeats passes (fresh query, fresh checkpoint dir) until its time is
// spent: a warm-up, then the timed window. --trace 0 prints the end-to-end
// metrics; --trace 1 alternates traced and untraced passes, re-runs on a
// 1-thread pool, and prints the per-layer split (see trace.h). Every pass's
// sink table is checked against a reference computed here. The last stdout
// line is {"correct","attempted","failed","metrics"}.
#include <sched.h>
#include <sys/mount.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "exec/streaming_query.h"
#include "passes.h"
#include "trace.h"

namespace perfbench {
namespace {

using sstreaming::Status;

constexpr double kWarmupSeconds = 2.0;
// Hard cap on one invocation, which must end within 180 s.
constexpr double kDeadlineSeconds = 150.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir;
  std::string checkpoint_root;  // a private tmpfs under work_dir
};

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// "tmpfs", or the filesystem's magic number in hex.
std::string FsType(const std::string& path) {
  struct statfs s;
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  const auto magic = static_cast<unsigned long>(s.f_type);
  if (magic == 0x01021994UL) return "tmpfs";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", magic);
  return buf;
}

// Checkpoints go to a tmpfs mounted at `dir` in a mount namespace private to
// this process: on the shared virtual disk, file creation and fsync made the
// checkpoint stage swing between 3 and 23 ms per epoch across identical
// runs. The engine still runs its full write -> rename -> dir-fsync
// protocol; the mount and everything in it vanish when the process exits,
// and nothing is written outside `dir`. Must run before any thread starts
// (unshare(CLONE_NEWNS) refuses multi-threaded callers).
std::string MountPrivateTmpfs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "cannot create " + dir + ": " + ec.message();
  if (unshare(CLONE_NEWNS) != 0) {
    return std::string("unshare(CLONE_NEWNS): ") + std::strerror(errno);
  }
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return std::string("making mounts private: ") + std::strerror(errno);
  }
  if (mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
            "size=512m,mode=0700") != 0) {
    return std::string("mounting tmpfs: ") + std::strerror(errno);
  }
  return "";
}

bool OptimizedBuild() {
#ifdef NDEBUG
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#else
  return false;
#endif
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Runner {
 public:
  Runner(const Args& args, Workload workload)
      : bench_(args.seed, args.checkpoint_root, std::move(workload)),
        start_(NowNanos()) {}

  double Elapsed() const {
    return static_cast<double>(NowNanos() - start_) / kSec;
  }

  // Runs passes with `opt` for at least `seconds`, appending to `w`.
  Status Fill(const PassOptions& opt, double seconds, Window* w) {
    const int64_t t0 = NowNanos();
    do {
      if (Elapsed() > kDeadlineSeconds) {
        return Status::Internal("run exceeded its deadline");
      }
      PassResult r = bench_.RunPass(opt);
      attempted_ += r.events;
      failed_ += r.mismatched;
      if (!r.status.ok()) {
        failed_ += r.events - r.mismatched;
        return r.status;
      }
      w->passes.push_back(std::move(r));
    } while (static_cast<double>(NowNanos() - t0) / kSec < seconds);
    w->seconds += static_cast<double>(NowNanos() - t0) / kSec;
    return Status::OK();
  }

  Status Warmup(int threads) {
    Window discard;
    PassOptions opt;
    opt.threads = threads;
    return Fill(opt, kWarmupSeconds, &discard);
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  Bench& bench() { return bench_; }

 private:
  Bench bench_;
  int64_t start_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// The hypervisor steals CPU time from this machine in bursts: on the
// reference host, runs with 5-20% of the CPU time stolen were 25-50% slower
// than calm ones. Passes during which more than kCalmSteal of the machine's
// CPU time was stolen (/proc/stat) are left out of the metrics; they are
// still checked for correctness. When the calm passes hold fewer than
// kMinEpochs timed epochs, the least-stolen passes are used until they do,
// so every p90 keeps ten epochs beyond it.
constexpr double kCalmSteal = 0.02;
constexpr size_t kMinEpochs = 100;

double StealShare(const PassResult& p) {
  return p.cpu_ticks > 0
             ? static_cast<double>(p.steal_ticks) / static_cast<double>(p.cpu_ticks)
             : 0;
}

// The passes the metrics are computed over (see kCalmSteal).
std::vector<const PassResult*> CalmPasses(const Window& w) {
  std::vector<const PassResult*> by_steal;
  for (const PassResult& p : w.passes) by_steal.push_back(&p);
  std::stable_sort(by_steal.begin(), by_steal.end(),
                   [](const PassResult* a, const PassResult* b) {
                     return StealShare(*a) < StealShare(*b);
                   });
  std::vector<const PassResult*> used;
  size_t epochs = 0;
  for (const PassResult* p : by_steal) {
    if (StealShare(*p) > kCalmSteal && epochs >= kMinEpochs) break;
    used.push_back(p);
    epochs += p->epochs.size();
  }
  return used;
}

std::vector<Metric> EndToEnd(const Window& w, int64_t rss_inputs) {
  std::vector<double> setup;
  std::vector<double> epoch_ms;
  int64_t rows = 0;
  int64_t nanos = 0;
  int64_t steal = 0;
  int64_t cpu = 0;
  const std::vector<const PassResult*> used = CalmPasses(w);
  for (const PassResult* p : used) {
    setup.push_back(p->setup_seconds);
    for (const EpochRecord& e : p->epochs) {
      epoch_ms.push_back(static_cast<double>(e.wall.nanos()) / kMs);
      rows += e.rows_read();
      nanos += e.wall.nanos();
    }
  }
  int64_t peak = 0;
  for (const PassResult& p : w.passes) {
    peak = std::max(peak, p.peak_rss);
    steal += p.steal_ticks;
    cpu += p.cpu_ticks;
  }
  std::printf("timed: %zu of %zu passes used (%zu epochs); %.1f%% of CPU "
              "time stolen over the run\n",
              used.size(), w.passes.size(), epoch_ms.size(),
              cpu > 0 ? 100.0 * static_cast<double>(steal) / cpu : 0.0);
  return {
      {"setup_s", Median(setup), "s"},
      {"throughput_rps",
       nanos > 0 ? static_cast<double>(rows) * kSec / nanos : 0, "1/s"},
      {"epoch_p50_ms", Quantile(epoch_ms, 0.5), "ms"},
      {"epoch_p90_ms", Quantile(epoch_ms, 0.9), "ms"},
      {"rss_growth_mb",
       static_cast<double>(peak - rss_inputs) / (1024.0 * 1024.0), "MB"},
  };
}

// At most this share of traced epochs may fail the audit's timing checks
// (see Attribution::timing_error): a host stall hits single epochs, while a
// span attributed to the wrong stage would show in most of them.
constexpr double kTimingOutlierShare = 0.01;

// Per-layer metrics from the traced passes (means per timed epoch).
struct LayerReport {
  std::vector<Metric> metrics;
  std::string audit_error;
};

LayerReport Layers(const Window& traced, const Window& untraced,
                   const Window& single, int threads) {
  LayerReport out;
  std::array<double, kNumParts> parts{};
  double epoch_total = 0;
  double source_rows = 0, source_calls = 0, shuffle_tasks = 0;
  double fold_max_task = 0, stages = 0, tasks = 0, queue_wait = 0;
  double task_run = 0, stage_wall = 0, sink_rows = 0;
  double state_rows = 0, state_bytes = 0;
  double files = 0, bytes = 0, all_epochs = 0;
  int64_t n = 0;
  int64_t timing_outliers = 0;
  std::string first_outlier;
  for (const PassResult& p : traced.passes) {
    files += static_cast<double>(p.checkpoint_files);
    bytes += static_cast<double>(p.checkpoint_bytes);
    all_epochs += static_cast<double>(p.all_epochs);
    for (const EpochRecord& e : p.epochs) {
      Attribution a = Attribute(e);
      if (!a.audit_error.empty() && out.audit_error.empty()) {
        out.audit_error =
            "epoch " + std::to_string(e.progress.epoch) + ": " + a.audit_error;
      }
      if (!a.timing_error.empty() && timing_outliers++ == 0) {
        first_outlier =
            "epoch " + std::to_string(e.progress.epoch) + ": " + a.timing_error;
      }
      for (int i = 0; i < kNumParts; ++i) {
        parts[static_cast<size_t>(i)] += static_cast<double>(a.parts[static_cast<size_t>(i)]);
      }
      epoch_total += static_cast<double>(a.epoch_nanos);
      source_rows += static_cast<double>(e.rows_read());
      source_calls += static_cast<double>(e.reads.size() + e.offset_calls.size());
      for (const StageSpan& s : e.stages) {
        stages += 1;
        tasks += static_cast<double>(s.wait.tasks);
        queue_wait += static_cast<double>(s.wait.queue_wait_nanos);
        task_run += static_cast<double>(s.wait.run_nanos);
        stage_wall += static_cast<double>(s.wall.nanos());
        if (s.layer == StageLayer::kShuffleMap ||
            s.layer == StageLayer::kShuffleReduce) {
          shuffle_tasks += static_cast<double>(s.wait.tasks);
        }
        if (s.layer == StageLayer::kStatefulFold) {
          fold_max_task += static_cast<double>(s.wait.max_run_nanos);
        }
      }
      sink_rows += static_cast<double>(e.sink_rows);
      state_rows += static_cast<double>(e.progress.state_entries);
      state_bytes += static_cast<double>(e.progress.state_bytes);
      ++n;
    }
  }
  if (n == 0) {
    out.audit_error = "no traced epochs";
    return out;
  }
  if (timing_outliers > 0) {
    const std::string counted = std::to_string(timing_outliers) + " of " +
                                std::to_string(n) +
                                " epochs outside the timing tolerance (first: " +
                                first_outlier + ")";
    if (static_cast<double>(timing_outliers) >
        kTimingOutlierShare * static_cast<double>(n)) {
      if (out.audit_error.empty()) out.audit_error = counted;
    } else {
      std::printf("layer audit: %s\n", counted.c_str());
    }
  }
  const double en = static_cast<double>(n);
  auto ms = [en](double nanos) { return nanos / en / kMs; };
  auto add = [&out](const std::string& name, double v, const char* unit) {
    out.metrics.push_back({name, v, unit});
  };
  for (int i = 0; i < kNumParts; ++i) {
    if (i == kUnattributedPart) continue;
    add(kPartMetric[i], ms(parts[static_cast<size_t>(i)]), "ms");
  }
  add("source.rows", source_rows / en, "count");
  add("source.calls", source_calls / en, "count");
  add("shuffle.tasks", shuffle_tasks / en, "count");
  add("stateful.max_task_ms", ms(fold_max_task), "ms");
  add("state.rows", state_rows / en, "count");
  add("state.bytes", state_bytes / en, "bytes");
  add("sink.rows", sink_rows / en, "count");
  add("checkpoint.files", all_epochs > 0 ? files / all_epochs : 0, "count");
  add("checkpoint.bytes", all_epochs > 0 ? bytes / all_epochs : 0, "bytes");
  add("scheduler.stages", stages / en, "count");
  add("scheduler.tasks", tasks / en, "count");
  add("scheduler.queue_wait_ms", ms(queue_wait), "ms");
  add("scheduler.busy_ratio",
      stage_wall > 0 ? task_run / (stage_wall * threads) : 0, "ratio");
  add("scheduler.speedup_vs_1",
      single.rate() > 0 ? untraced.rate() / single.rate() : 0, "ratio");
  add("trace.overhead_pct",
      untraced.rate() > 0 ? (untraced.rate() - traced.rate()) /
                                untraced.rate() * 100.0
                          : 0,
      "%");
  add("trace.unattributed_share",
      epoch_total > 0 ? parts[kUnattributedPart] / epoch_total : 0, "ratio");
  return out;
}

// The engine's own stage split (QueryProgress), mean ms per timed epoch.
void PrintProgressSplit(const Window& w) {
  std::array<double, 6> sum{};
  double n = 0;
  for (const PassResult& p : w.passes) {
    for (const EpochRecord& e : p.epochs) {
      const sstreaming::QueryProgress& q = e.progress;
      const int64_t stages[] = {q.plan_nanos,       q.source_read_nanos,
                                q.exec_nanos,       q.checkpoint_nanos,
                                q.commit_nanos,     q.other_nanos};
      for (size_t i = 0; i < sum.size(); ++i) {
        sum[i] += static_cast<double>(stages[i]) / kMs;
      }
      ++n;
    }
  }
  if (n == 0) return;
  std::printf("progress ms/epoch: plan %.3f source %.3f exec %.3f "
              "checkpoint %.3f commit %.3f other %.3f\n",
              sum[0] / n, sum[1] / n, sum[2] / n, sum[3] / n, sum[4] / n,
              sum[5] / n);
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-26s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 1;
}

int RunWorkload(const Args& args, const Workload& workload) {
  // One pool thread per core: busy threads stay within the cores.
  const int threads = CpuCount();
  std::printf("workload %s seed %llu nproc %d build %s checkpoint_fs %s\n",
              workload.name.c_str(), static_cast<unsigned long long>(args.seed),
              threads, PERFBENCH_BUILD_TYPE,
              FsType(args.checkpoint_root).c_str());
  Runner runner(args, workload);
  Status s = runner.bench().Prepare();
  if (!s.ok()) return Fail(s.ToString());
  s = runner.Warmup(threads);
  if (!s.ok()) return Fail(s.ToString());

  bool correct = true;
  std::vector<Metric> metrics;
  Window untraced;
  PassOptions plain;
  plain.threads = threads;
  if (!args.trace) {
    s = runner.Fill(plain, args.seconds, &untraced);
    if (!s.ok()) return Fail(s.ToString());
    metrics = EndToEnd(untraced, runner.bench().rss_inputs());
  } else {
    // Alternate traced and untraced passes so drift hits both alike.
    Window traced;
    PassOptions with_trace = plain;
    with_trace.tracing = true;
    const double half = args.seconds / 2.0;
    while (traced.seconds < half || untraced.seconds < half) {
      s = runner.Fill(with_trace, 0, &traced);
      if (!s.ok()) return Fail(s.ToString());
      s = runner.Fill(plain, 0, &untraced);
      if (!s.ok()) return Fail(s.ToString());
    }
    Window single;
    PassOptions one = plain;
    one.threads = 1;
    s = runner.Fill(one, args.seconds / 4.0, &single);
    if (!s.ok()) return Fail(s.ToString());
    LayerReport layers = Layers(traced, untraced, single, threads);
    if (!layers.audit_error.empty()) {
      std::printf("layer audit FAILED: %s\n", layers.audit_error.c_str());
      correct = false;
    }
    std::vector<EpochRecord> spans;
    for (PassResult& p : traced.passes) {
      for (EpochRecord& e : p.epochs) spans.push_back(std::move(e));
    }
    const std::string path = args.work_dir + "/spans-" + workload.name +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    if (!WriteSpans(path, spans)) return Fail("cannot write " + path);
    std::printf("spans written to %s\n", path.c_str());
    metrics = std::move(layers.metrics);
  }
  const double failed_ratio =
      runner.attempted() > 0
          ? static_cast<double>(runner.failed()) / runner.attempted()
          : 1.0;
  PrintProgressSplit(untraced);
  std::printf("failed_ratio %.9f (%lld of %lld events)\n", failed_ratio,
              static_cast<long long>(runner.failed()),
              static_cast<long long>(runner.attempted()));
  if (runner.failed() != 0) correct = false;
  PrintResult(correct, runner.attempted(), runner.failed(), metrics);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return a->seconds > 0 && !a->work_dir.empty() &&
         (a->self_test || !a->workload.empty());
}

double MetricValue(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

// Attribution self-test: on user_counts_drain, a fixed spin inside the
// benchmark's own Sink wrapper must raise sink.commit_ms by about that delay,
// leave every other layer within its self-test bound, and lower throughput.
// Reference self-test: corrupting one output row of a drain's last epoch must
// make the reference check count exactly one failed event.
int SelfTest(const Args& args) {
  constexpr int64_t kDelayNanos = 10 * kMs;
  const double delay_ms = static_cast<double>(kDelayNanos) / kMs;
  const int threads = CpuCount();
  bool ok = true;
  auto check = [&ok](bool pass, const std::string& what) {
    std::printf("self-test %s: %s\n", pass ? "PASS" : "FAIL", what.c_str());
    ok = ok && pass;
  };

  Workload workload;
  FindWorkload("user_counts_drain", &workload);
  Runner runner(args, workload);
  Status s = runner.bench().Prepare();
  if (s.ok()) s = runner.Warmup(threads);
  if (!s.ok()) return Fail(s.ToString());
  PassOptions plain;
  plain.threads = threads;
  PassOptions plain_delayed = plain;
  plain_delayed.sink_delay_nanos = kDelayNanos;
  PassOptions traced = plain;
  traced.tracing = true;
  PassOptions traced_delayed = traced;
  traced_delayed.sink_delay_nanos = kDelayNanos;
  // Alternate the four configurations pass by pass so host drift hits all.
  Window base, delayed, base_rate, delayed_rate;
  const double quarter = args.seconds / 4.0;
  while (base.seconds < quarter || delayed.seconds < quarter) {
    for (auto [opt, w] : {std::pair{&traced, &base},
                          std::pair{&traced_delayed, &delayed},
                          std::pair{&plain, &base_rate},
                          std::pair{&plain_delayed, &delayed_rate}}) {
      s = runner.Fill(*opt, 0, w);
      if (!s.ok()) return Fail(s.ToString());
    }
  }
  const Window none;
  const LayerReport lb = Layers(base, base_rate, none, threads);
  const LayerReport ld = Layers(delayed, delayed_rate, none, threads);
  check(lb.audit_error.empty() && ld.audit_error.empty(),
        "layer audit " + lb.audit_error + ld.audit_error);
  check(runner.failed() == 0,
        "reference check on " + std::to_string(runner.attempted()) +
            " events: " + std::to_string(runner.failed()) + " failed");
  const double sink_rise = MetricValue(ld.metrics, "sink.commit_ms") -
                           MetricValue(lb.metrics, "sink.commit_ms");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sink.commit_ms rose by %.3f ms for a %.1f ms delay", sink_rise,
                delay_ms);
  check(std::fabs(sink_rise - delay_ms) <= 0.2 * delay_ms, buf);
  for (const Metric& m : lb.metrics) {
    if (m.unit != "ms" || m.name == "sink.commit_ms") continue;
    // A layer's self-test bound: 20% of its baseline, or a fifth of the
    // injected delay. Some spill-over is real: while the driver spins in the
    // sink, the pool's threads sit idle and wake up slower afterwards.
    const double bound = std::max(0.2 * m.value, 0.2 * delay_ms);
    const double moved = MetricValue(ld.metrics, m.name) - m.value;
    std::snprintf(buf, sizeof(buf), "%s moved %+.3f ms (bound %.3f ms)",
                  m.name.c_str(), moved, bound);
    check(std::fabs(moved) <= bound, buf);
  }
  std::snprintf(buf, sizeof(buf),
                "throughput_rps fell from %.0f to %.0f with the delay",
                base_rate.rate(), delayed_rate.rate());
  check(delayed_rate.rate() < base_rate.rate(), buf);

  for (const char* name : {"user_counts_drain", "yahoo_drain"}) {
    Workload w;
    FindWorkload(name, &w);
    Runner corrupt_runner(args, w);
    s = corrupt_runner.bench().Prepare();
    if (!s.ok()) return Fail(s.ToString());
    PassOptions corrupt = plain;
    corrupt.corrupt_epoch = corrupt_runner.bench().expected_drain_epochs();
    const PassResult r = corrupt_runner.bench().RunPass(corrupt);
    check(r.status.ok() && r.mismatched == 1,
          std::string(name) + ": one corrupted output row counted as " +
              std::to_string(r.mismatched) + " failed event(s)");
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir>\n"
                 "       perfbench --self-test --seed <n> --seconds <s> "
                 "--work-dir <dir>\n");
    return 2;
  }
  if (!perfbench::OptimizedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  // Start() warns once per query about unbounded update-mode state; the
  // drains start a query per pass.
  sstreaming::GlobalLogLevel() = sstreaming::LogLevel::kError;
  args.checkpoint_root = args.work_dir + "/tmpfs";
  const std::string mounted = perfbench::MountPrivateTmpfs(args.checkpoint_root);
  if (!mounted.empty() ||
      perfbench::FsType(args.checkpoint_root) != "tmpfs") {
    std::fprintf(stderr,
                 "perfbench: refusing to run without a tmpfs for "
                 "checkpoints (%s)\n",
                 mounted.empty() ? "not tmpfs" : mounted.c_str());
    return 3;
  }
  if (args.self_test) return perfbench::SelfTest(args);
  perfbench::Workload workload;
  if (!perfbench::FindWorkload(args.workload, &workload)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  return perfbench::RunWorkload(args, workload);
}

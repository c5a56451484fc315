// ssctl — operator CLI for the sstreaming engine.
//
//   ssctl queries --port N              list queries on a live server
//   ssctl history <checkpoint_dir>      summarize a durable query history
//   ssctl history --port N --query Q    same, via a live server
//   ssctl diff <checkpoint_a> <checkpoint_b>
//                                       compare two runs' histories
//   ssctl bench-diff <baseline.json> <current.json> [--max-regress PCT]
//                                       gate on bench_yahoo_scaling --json
//                                       output: exit 1 when throughput drops
//                                       or p99 epoch latency grows by more
//                                       than PCT (default 10%) at any point
//   ssctl bench-diff --self-test        verify the gate trips on a synthetic
//                                       20% regression (CI sanity check)
//   ssctl doctor <checkpoint_dir>       offline bottleneck diagnosis from a
//                                       checkpoint's durable history — same
//                                       rule engine (and verdicts) as the
//                                       live /queries/<id>/doctor endpoint
//   ssctl lint-checkpoint <checkpoint_dir> [--against <manifest.json>]
//                                       validate a checkpoint's plan manifest
//                                       offline: integrity, shard-count
//                                       cross-check against on-disk SHARDS
//                                       files, and (with --against) the same
//                                       SS3xxx compatibility diff a restart
//                                       would run (docs/UPGRADES.md)
//
// Exit codes: 0 ok, 1 regression/degradation detected, 2 usage or I/O error.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/checkpoint_compat.h"
#include "common/json.h"
#include "obs/doctor.h"
#include "obs/http_server.h"
#include "obs/progress.h"
#include "obs/query_history.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: ssctl queries --port N\n"
      "       ssctl history <checkpoint_dir> | --port N --query Q\n"
      "       ssctl diff <checkpoint_a> <checkpoint_b>\n"
      "       ssctl bench-diff <baseline.json> <current.json>"
      " [--max-regress PCT]\n"
      "       ssctl bench-diff --self-test\n"
      "       ssctl doctor <checkpoint_dir>\n"
      "       ssctl lint-checkpoint <checkpoint_dir>"
      " [--against <manifest.json>]\n");
  return 2;
}

int64_t GetInt(const Json& obj, const char* key) {
  const Json& v = obj.Get(key);
  return v.is_number() ? v.int_value() : 0;
}

double GetDouble(const Json& obj, const char* key) {
  const Json& v = obj.Get(key);
  return v.is_number() ? v.double_value() : 0;
}

std::string GetStr(const Json& obj, const char* key) {
  const Json& v = obj.Get(key);
  return v.is_string() ? v.string_value() : std::string();
}

// ---------------------------------------------------------------- queries

int CmdQueries(int port) {
  auto resp = HttpGet(port, "/queries", 5000);
  if (!resp.ok()) {
    std::fprintf(stderr, "ssctl: %s\n", resp.status().ToString().c_str());
    return 2;
  }
  auto json = Json::Parse(resp->body);
  if (!json.ok() || !json->is_array()) {
    std::fprintf(stderr, "ssctl: /queries returned malformed JSON\n");
    return 2;
  }
  std::printf("%-24s %-8s %10s %14s %14s\n", "NAME", "ACTIVE", "EPOCH",
              "E2E P99 (us)", "WM LAG (us)");
  for (const Json& q : json->array_items()) {
    // A query that has not finished an epoch has no lastProgress; it shows
    // zeros.
    Result<QueryProgress> parsed =
        QueryProgress::FromJson(q.Get("lastProgress"));
    const QueryProgress last = parsed.ok() ? *parsed : QueryProgress();
    std::printf("%-24s %-8s %10" PRId64 " %14" PRId64 " %14" PRId64 "\n",
                GetStr(q, "name").c_str(),
                q.Get("active").bool_value() ? "yes" : "no",
                GetInt(q, "lastEpoch"), last.e2e_latency.p99_micros,
                last.watermark_lag_micros);
  }
  return 0;
}

// ---------------------------------------------------------------- history

/// Aggregate view of one run's history events (offline or over HTTP).
struct HistorySummary {
  std::string query;
  int64_t starts = 0;
  int64_t recoveries = 0;
  int64_t terminations = 0;
  int64_t epochs = 0;  // progress lines (recovery replays count again)
  int64_t last_epoch = 0;
  int64_t rows_read = 0;
  int64_t rows_written = 0;
  int64_t duration_nanos = 0;
  LogHistogram e2e;  // merged across all progress lines
  std::string last_error;
};

// Out-param because HistorySummary embeds a (non-copyable) LogHistogram.
void Summarize(const std::vector<Json>& events, HistorySummary* out) {
  HistorySummary& s = *out;
  for (const Json& event : events) {
    std::string kind = GetStr(event, "event");
    if (s.query.empty()) s.query = GetStr(event, "query");
    if (kind == "started") {
      ++s.starts;
      if (event.Get("recovered").bool_value()) ++s.recoveries;
    } else if (kind == "terminated") {
      ++s.terminations;
      s.last_error = GetStr(event, "error");
      int64_t last = GetInt(event, "lastEpoch");
      if (last > s.last_epoch) s.last_epoch = last;
    } else if (kind == "progress") {
      auto progress = QueryProgress::FromJson(event.Get("progress"));
      if (!progress.ok()) continue;
      ++s.epochs;
      if (progress->epoch > s.last_epoch) s.last_epoch = progress->epoch;
      s.rows_read += progress->rows_read;
      s.rows_written += progress->rows_written;
      s.duration_nanos += progress->duration_nanos;
      progress->e2e_latency.MergeInto(&s.e2e);
    }
  }
}

void PrintSummary(const HistorySummary& s) {
  std::printf("query            %s\n", s.query.c_str());
  std::printf("starts           %" PRId64 " (%" PRId64 " recovered)\n",
              s.starts, s.recoveries);
  std::printf("terminations     %" PRId64 "%s%s\n", s.terminations,
              s.last_error.empty() ? "" : ", last error: ",
              s.last_error.c_str());
  std::printf("epochs logged    %" PRId64 " (last epoch %" PRId64 ")\n",
              s.epochs, s.last_epoch);
  std::printf("rows read        %" PRId64 "\n", s.rows_read);
  std::printf("rows written     %" PRId64 "\n", s.rows_written);
  if (s.epochs > 0) {
    std::printf("mean epoch       %.3f ms\n",
                static_cast<double>(s.duration_nanos) /
                    static_cast<double>(s.epochs) / 1e6);
  }
  if (s.e2e.count() > 0) {
    std::printf("e2e latency      p50 %" PRId64 " us, p95 %" PRId64
                " us, p99 %" PRId64 " us, max %" PRId64 " us (%" PRId64
                " rows)\n",
                s.e2e.ValueAtQuantile(0.50), s.e2e.ValueAtQuantile(0.95),
                s.e2e.ValueAtQuantile(0.99), s.e2e.max(), s.e2e.count());
  }
}

Result<std::vector<Json>> LoadHistory(const std::string& dir_or_empty,
                                      int port, const std::string& query) {
  if (!dir_or_empty.empty()) return QueryHistoryLog::ReadAll(dir_or_empty);
  SS_ASSIGN_OR_RETURN(HttpResponse resp,
                      HttpGet(port, "/queries/" + query + "/history", 5000));
  if (resp.status != 200) {
    return Status::NotFound("server returned HTTP " +
                            std::to_string(resp.status) + ": " + resp.body);
  }
  SS_ASSIGN_OR_RETURN(Json json, Json::Parse(resp.body));
  std::vector<Json> events;
  for (const Json& event : json.Get("events").array_items()) {
    events.push_back(event);
  }
  return events;
}

int CmdHistory(const std::string& dir, int port, const std::string& query) {
  auto events = LoadHistory(dir, port, query);
  if (!events.ok()) {
    std::fprintf(stderr, "ssctl: %s\n", events.status().ToString().c_str());
    return 2;
  }
  HistorySummary summary;
  Summarize(*events, &summary);
  PrintSummary(summary);
  return 0;
}

// ------------------------------------------------------------------- diff

void PrintDelta(const char* label, double a, double b, bool lower_is_better) {
  double pct = a != 0 ? (b - a) / a * 100.0 : 0;
  const char* tag = pct == 0                          ? "  ="
                    : (pct < 0) == lower_is_better ? "  better"
                                                      : "  worse";
  std::printf("%-18s %14.1f %14.1f %+8.1f%%%s\n", label, a, b, pct, tag);
}

int CmdDiff(const std::string& dir_a, const std::string& dir_b) {
  auto ea = QueryHistoryLog::ReadAll(dir_a);
  auto eb = QueryHistoryLog::ReadAll(dir_b);
  if (!ea.ok() || !eb.ok()) {
    std::fprintf(stderr, "ssctl: %s\n",
                 (!ea.ok() ? ea.status() : eb.status()).ToString().c_str());
    return 2;
  }
  HistorySummary a;
  HistorySummary b;
  Summarize(*ea, &a);
  Summarize(*eb, &b);
  std::printf("%-18s %14s %14s %9s\n", "", "A", "B", "delta");
  PrintDelta("epochs", static_cast<double>(a.epochs),
             static_cast<double>(b.epochs), false);
  PrintDelta("rows written", static_cast<double>(a.rows_written),
             static_cast<double>(b.rows_written), false);
  if (a.epochs > 0 && b.epochs > 0) {
    PrintDelta("mean epoch (ms)",
               static_cast<double>(a.duration_nanos) /
                   static_cast<double>(a.epochs) / 1e6,
               static_cast<double>(b.duration_nanos) /
                   static_cast<double>(b.epochs) / 1e6,
               true);
  }
  if (a.e2e.count() > 0 && b.e2e.count() > 0) {
    PrintDelta("e2e p50 (us)",
               static_cast<double>(a.e2e.ValueAtQuantile(0.50)),
               static_cast<double>(b.e2e.ValueAtQuantile(0.50)), true);
    PrintDelta("e2e p99 (us)",
               static_cast<double>(a.e2e.ValueAtQuantile(0.99)),
               static_cast<double>(b.e2e.ValueAtQuantile(0.99)), true);
  }
  return 0;
}

// ------------------------------------------------------------- bench-diff

/// One comparable point of a bench_yahoo_scaling --json document.
/// One point of a bench ledger: a cluster point has `nodes`, a shard
/// point `shards` (a key the point lacks reads 0). The pair identifies the
/// point across runs.
struct BenchPoint {
  int64_t nodes = 0;
  int64_t shards = 0;
  double throughput = 0;
  int64_t p99_epoch_nanos = 0;
};

Result<std::vector<BenchPoint>> ParseBench(const Json& doc) {
  if (!doc.is_object() || !doc.Get("points").is_array()) {
    return Status::InvalidArgument("not a bench JSON document");
  }
  std::vector<BenchPoint> points;
  for (const Json& p : doc.Get("points").array_items()) {
    BenchPoint point;
    point.nodes = GetInt(p, "nodes");
    point.shards = GetInt(p, "shards");
    point.throughput = GetDouble(p, "throughputRecsPerSec");
    point.p99_epoch_nanos = GetInt(p, "p99EpochNanos");
    points.push_back(point);
  }
  return points;
}

/// Returns 0 when `current` holds up against `baseline`, 1 on a regression
/// beyond `max_regress` (fraction), 2 on malformed inputs.
int DiffBench(const Json& baseline_doc, const Json& current_doc,
              double max_regress) {
  auto baseline = ParseBench(baseline_doc);
  auto current = ParseBench(current_doc);
  if (!baseline.ok() || !current.ok()) {
    std::fprintf(stderr, "ssctl: %s\n",
                 (!baseline.ok() ? baseline.status() : current.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  std::printf("%6s %6s %16s %16s %9s %12s %12s %9s\n", "nodes", "shards",
              "base rec/s", "cur rec/s", "tput", "base p99ms", "cur p99ms",
              "p99");
  int regressions = 0;
  for (const BenchPoint& b : *baseline) {
    const BenchPoint* c = nullptr;
    for (const BenchPoint& candidate : *current) {
      if (candidate.nodes == b.nodes && candidate.shards == b.shards) {
        c = &candidate;
      }
    }
    if (c == nullptr) {
      std::fprintf(stderr,
                   "ssctl: current run lacks the point of %" PRId64
                   " nodes, %" PRId64 " shards\n",
                   b.nodes, b.shards);
      ++regressions;
      continue;
    }
    double tput_delta =
        b.throughput > 0 ? (c->throughput - b.throughput) / b.throughput : 0;
    double p99_delta = b.p99_epoch_nanos > 0
                           ? static_cast<double>(c->p99_epoch_nanos -
                                                 b.p99_epoch_nanos) /
                                 static_cast<double>(b.p99_epoch_nanos)
                           : 0;
    bool tput_bad = tput_delta < -max_regress;
    bool p99_bad = p99_delta > max_regress;
    if (tput_bad || p99_bad) ++regressions;
    std::printf("%6" PRId64 " %6" PRId64
                " %16.0f %16.0f %+8.1f%% %12.2f %12.2f %+8.1f%%%s\n",
                b.nodes, b.shards, b.throughput, c->throughput,
                tput_delta * 100,
                static_cast<double>(b.p99_epoch_nanos) / 1e6,
                static_cast<double>(c->p99_epoch_nanos) / 1e6,
                p99_delta * 100,
                tput_bad ? "  THROUGHPUT REGRESSION"
                         : (p99_bad ? "  P99 REGRESSION" : ""));
  }
  if (regressions > 0) {
    std::printf("FAIL: %d point(s) regressed beyond %.0f%%\n", regressions,
                max_regress * 100);
    return 1;
  }
  std::printf("OK: within %.0f%% of baseline\n", max_regress * 100);
  return 0;
}

Result<Json> LoadJson(const std::string& path) {
  SS_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return Json::Parse(text);
}

/// The gate must trip on the regressions it exists to catch: feed it a
/// synthetic run 20% slower than its own baseline and require exit 1
/// (and exit 0 on an identical run). Wired into CI so a silently broken
/// comparator cannot wave real regressions through.
int BenchDiffSelfTest() {
  // Two cluster points and two shard points (which carry no `nodes`), as
  // bench_yahoo_scaling writes them.
  struct Point {
    int64_t nodes;
    int64_t shards;
  };
  const Point kPoints[] = {{1, 0}, {5, 0}, {0, 2}, {0, 8}};
  // A run whose points matching `pick` have their throughput and p99
  // scaled by the factors.
  auto run = [&kPoints](double tput_factor, double p99_factor,
                        const std::function<bool(const Point&)>& pick) {
    Json doc = Json::Object();
    doc.Set("benchmark", Json::Str("yahoo_scaling"));
    Json pts = Json::Array();
    for (const Point& point : kPoints) {
      const bool scaled = pick(point);
      Json p = Json::Object();
      if (point.nodes > 0) p.Set("nodes", Json::Int(point.nodes));
      if (point.shards > 0) p.Set("shards", Json::Int(point.shards));
      const int64_t weight = point.nodes > 0 ? point.nodes : point.shards;
      p.Set("throughputRecsPerSec",
            Json::Double(1e7 * static_cast<double>(weight) *
                         (scaled ? tput_factor : 1.0)));
      p.Set("p99EpochNanos",
            Json::Int(static_cast<int64_t>(5e7 * (scaled ? p99_factor : 1.0))));
      pts.Append(std::move(p));
    }
    doc.Set("points", std::move(pts));
    return doc;
  };
  auto all = [](const Point&) { return true; };
  const Json baseline = run(1.0, 1.0, all);

  struct Case {
    const char* what;
    Json current;
    int want;
  };
  const Case cases[] = {
      {"identical run must pass", run(1.0, 1.0, all), 0},
      {"20% throughput drop must fail", run(0.8, 1.0, all), 1},
      {"20% p99 growth must fail", run(1.0, 1.2, all), 1},
      {"20% drop of the 2-shard point alone must fail",
       run(0.8, 1.0, [](const Point& p) { return p.shards == 2; }), 1},
  };
  for (const Case& c : cases) {
    std::printf("--- self-test: %s\n", c.what);
    if (DiffBench(baseline, c.current, 0.10) != c.want) {
      std::fprintf(stderr, "self-test FAILED: %s\n", c.what);
      return 1;
    }
  }
  std::printf("self-test PASS\n");
  return 0;
}

int CmdBenchDiff(const std::string& baseline_path,
                 const std::string& current_path, double max_regress) {
  auto baseline = LoadJson(baseline_path);
  auto current = LoadJson(current_path);
  if (!baseline.ok() || !current.ok()) {
    std::fprintf(stderr, "ssctl: %s\n",
                 (!baseline.ok() ? baseline.status() : current.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  return DiffBench(*baseline, *current, max_regress);
}

// -------------------------------------------------------- lint-checkpoint

/// Offline manifest validation — the same LintCheckpoint the tests run, so
/// the CLI reports exactly the SS3xxx codes a restart against this
/// checkpoint would. Exit 0 clean (warnings allowed), 1 when any SS3xxx
/// error is present, 2 on I/O problems (no manifest, unreadable --against).
int CmdLintCheckpoint(const std::string& dir, const std::string& against) {
  std::optional<PlanFingerprint> candidate;
  if (!against.empty()) {
    auto text = ReadFile(against);
    if (!text.ok()) {
      std::fprintf(stderr, "ssctl: %s\n", text.status().ToString().c_str());
      return 2;
    }
    auto json = Json::Parse(*text);
    if (!json.ok()) {
      std::fprintf(stderr, "ssctl: %s is not JSON: %s\n", against.c_str(),
                   json.status().ToString().c_str());
      return 2;
    }
    auto fp = PlanFingerprint::FromJson(*json);
    if (!fp.ok()) {
      std::fprintf(stderr, "ssctl: %s: %s\n", against.c_str(),
                   fp.status().ToString().c_str());
      return 2;
    }
    candidate = std::move(*fp);
  }
  auto analysis =
      LintCheckpoint(dir, candidate.has_value() ? &*candidate : nullptr);
  if (!analysis.ok()) {
    std::fprintf(stderr, "ssctl: %s\n",
                 analysis.status().ToString().c_str());
    return 2;
  }
  if (analysis->diagnostics().empty()) {
    std::printf("%s: manifest ok\n", dir.c_str());
    return 0;
  }
  std::printf("%s", analysis->Explain().c_str());
  return analysis->has_errors() ? 1 : 0;
}

// ----------------------------------------------------------------- doctor

int CmdDoctor(const std::string& dir) {
  auto report = DiagnoseHistory(dir);
  if (!report.ok()) {
    std::fprintf(stderr, "ssctl: %s\n", report.status().ToString().c_str());
    return 2;
  }
  std::printf("%s", report->Render().c_str());
  // Diagnosis is informational: a bottleneck verdict is not a failure.
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  std::vector<std::string> args;
  int port = 0;
  std::string query;
  double max_regress = 0.10;
  bool self_test = false;
  std::string against;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--query") == 0 && i + 1 < argc) {
      query = argv[++i];
    } else if (std::strcmp(argv[i], "--against") == 0 && i + 1 < argc) {
      against = argv[++i];
    } else if (std::strcmp(argv[i], "--max-regress") == 0 && i + 1 < argc) {
      max_regress = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--self-test") == 0) {
      self_test = true;
    } else if (argv[i][0] == '-') {
      return Usage();
    } else {
      args.push_back(argv[i]);
    }
  }
  if (cmd == "queries") {
    if (port == 0 || !args.empty()) return Usage();
    return CmdQueries(port);
  }
  if (cmd == "history") {
    if (args.size() == 1 && port == 0) return CmdHistory(args[0], 0, "");
    if (args.empty() && port != 0 && !query.empty()) {
      return CmdHistory("", port, query);
    }
    return Usage();
  }
  if (cmd == "diff") {
    if (args.size() != 2) return Usage();
    return CmdDiff(args[0], args[1]);
  }
  if (cmd == "bench-diff") {
    if (self_test && args.empty()) return BenchDiffSelfTest();
    if (args.size() != 2) return Usage();
    return CmdBenchDiff(args[0], args[1], max_regress);
  }
  if (cmd == "doctor") {
    if (args.size() != 1) return Usage();
    return CmdDoctor(args[0]);
  }
  if (cmd == "lint-checkpoint") {
    if (args.size() != 1) return Usage();
    return CmdLintCheckpoint(args[0], against);
  }
  return Usage();
}

}  // namespace
}  // namespace sstreaming

int main(int argc, char** argv) { return sstreaming::Main(argc, argv); }

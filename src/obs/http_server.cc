#include "obs/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/json.h"
#include "exec/query_manager.h"
#include "obs/doctor.h"
#include "obs/metrics.h"
#include "obs/process_stats.h"
#include "obs/profiler.h"
#include "obs/query_history.h"
#include "obs/tracer.h"

namespace sstreaming {

namespace {

constexpr size_t kMaxRequestBytes = size_t{1} << 16;

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

std::string ErrnoString() { return std::string(std::strerror(errno)); }

/// Sends the whole buffer, tolerating short writes. MSG_NOSIGNAL: a client
/// that hung up must surface as EPIPE, not kill the process.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, const HttpResponse& resp) {
  std::string head = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                     ReasonPhrase(resp.status) +
                     "\r\nContent-Type: " + resp.content_type +
                     "\r\nContent-Length: " + std::to_string(resp.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (SendAll(fd, head)) SendAll(fd, resp.body);
}

HttpResponse TextResponse(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

HttpResponse JsonResponse(const Json& json) {
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = json.Dump();
  resp.body += "\n";
  return resp;
}

HttpResponse JsonError(int status, const std::string& message) {
  Json obj = Json::Object();
  obj.Set("error", Json::Str(message));
  HttpResponse resp = JsonResponse(obj);
  resp.status = status;
  return resp;
}

/// Pulls an integer parameter out of a raw query string ("seconds=3&hz=50").
/// Returns `fallback` when the key is absent or non-numeric.
int64_t QueryParamInt(const std::string& query_string, const std::string& key,
                      int64_t fallback) {
  size_t pos = 0;
  while (pos < query_string.size()) {
    size_t amp = query_string.find('&', pos);
    std::string pair = query_string.substr(
        pos, (amp == std::string::npos ? query_string.size() : amp) - pos);
    pos = amp == std::string::npos ? query_string.size() : amp + 1;
    size_t eq = pair.find('=');
    if (eq == std::string::npos || pair.substr(0, eq) != key) continue;
    char* end = nullptr;
    long long v = std::strtoll(pair.c_str() + eq + 1, &end, 10);
    if (end == pair.c_str() + eq + 1) return fallback;
    return v;
  }
  return fallback;
}

void SetSocketTimeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Status HttpServer::Start(int port) {
  if (running_.load()) {
    return Status::FailedPrecondition("HTTP server is already running");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket() failed: " + ErrnoString());
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IOError("bind(127.0.0.1:" + std::to_string(port) +
                               ") failed: " + ErrnoString());
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) != 0) {
    Status s = Status::IOError("listen() failed: " + ErrnoString());
    ::close(fd);
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status s = Status::IOError("getsockname() failed: " + ErrnoString());
    ::close(fd);
    return s;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stop_requested_.store(false);
  running_.store(true);
  thread_ = std::thread([this] { ServeLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.load() && !thread_.joinable()) return;
  stop_requested_.store(true);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false);
}

void HttpServer::ServeLoop() {
  // Poll with a short timeout instead of blocking in accept() so Stop() can
  // interrupt the loop without closing the socket out from under it.
  while (!stop_requested_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    int n = ::poll(&pfd, 1, 100);
    if (n <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    SetSocketTimeouts(fd, 2000);
    HandleConnection(fd);
    ::close(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  std::string buf;
  char tmp[4096];
  while (buf.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n <= 0) return;  // timeout, hangup, or error: drop silently
    buf.append(tmp, static_cast<size_t>(n));
    if (buf.size() > kMaxRequestBytes) {
      WriteResponse(fd, TextResponse(400, "request too large\n"));
      return;
    }
  }
  // Request line: METHOD SP request-target SP HTTP-version.
  std::string line = buf.substr(0, buf.find("\r\n"));
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    WriteResponse(fd, TextResponse(400, "malformed request line\n"));
    return;
  }
  HttpRequest req;
  req.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  size_t q = target.find('?');
  req.path = q == std::string::npos ? target : target.substr(0, q);
  if (q != std::string::npos) req.query = target.substr(q + 1);
  WriteResponse(fd, handler_ ? handler_(req)
                             : TextResponse(404, "no handler mounted\n"));
}

void ObservabilityServer::MountQueryManager(QueryManager* manager) {
  std::lock_guard<std::mutex> lock(mu_);
  manager_ = manager;
}

void ObservabilityServer::MountQuery(const std::string& name,
                                     const StreamingQuery* query) {
  std::lock_guard<std::mutex> lock(mu_);
  mounted_[name] = query;
}

Status ObservabilityServer::Start(int port) {
  if (server_ != nullptr) {
    return Status::FailedPrecondition("observability server already started");
  }
  auto server = std::make_unique<HttpServer>(
      [this](const HttpRequest& req) { return Handle(req); });
  SS_RETURN_IF_ERROR(server->Start(port));
  server_ = std::move(server);
  return Status::OK();
}

void ObservabilityServer::Stop() {
  if (server_ != nullptr) server_->Stop();
}

bool ObservabilityServer::WithNamedQuery(
    const std::string& name,
    const std::function<void(const StreamingQuery&)>& fn) const {
  QueryManager* manager;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = mounted_.find(name);
    if (it != mounted_.end()) {
      fn(*it->second);
      return true;
    }
    manager = manager_;
  }
  // Resolved under the manager lock so StopQuery cannot free the query while
  // fn reads its snapshots.
  return manager != nullptr && manager->WithQuery(name, fn);
}

std::vector<std::string> ObservabilityServer::QueryNames() const {
  std::vector<std::string> names;
  QueryManager* manager;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, query] : mounted_) names.push_back(name);
    manager = manager_;
  }
  if (manager != nullptr) {
    for (std::string& name : manager->ActiveQueryNames()) {
      bool dup = false;
      for (const std::string& have : names) dup = dup || have == name;
      if (!dup) names.push_back(std::move(name));
    }
  }
  return names;
}

HttpResponse ObservabilityServer::Handle(const HttpRequest& req) const {
  if (req.method != "GET") {
    return JsonError(405, "only GET is supported");
  }
  if (req.path == "/healthz") return TextResponse(200, "ok\n");
  if (req.path == "/metrics") return HandleMetrics();
  if (req.path == "/profile") return HandleProfile(req.query);
  if (req.path == "/queries" || req.path == "/queries/") {
    return HandleQueries();
  }
  const std::string prefix = "/queries/";
  if (req.path.rfind(prefix, 0) == 0) {
    std::string rest = req.path.substr(prefix.size());
    size_t slash = rest.find('/');
    std::string name = rest.substr(0, slash);
    std::string sub =
        slash == std::string::npos ? "" : rest.substr(slash + 1);
    if (sub.empty()) return HandleQueryDetail(name);
    if (sub == "plan") return HandlePlan(name);
    if (sub == "fingerprint") return HandleFingerprint(name);
    if (sub == "trace") return HandleTrace(name);
    if (sub == "history") return HandleHistory(name);
    if (sub == "doctor") return HandleDoctor(name);
    return JsonError(404, "unknown query endpoint '" + sub + "'");
  }
  if (req.path == "/") {
    return TextResponse(
        200,
        "sstreaming observability server\n"
        "  /healthz              liveness\n"
        "  /metrics              Prometheus text\n"
        "  /queries              queries + last progress (JSON)\n"
        "  /queries/<id>         recent progress ring buffer (JSON)\n"
        "  /queries/<id>/plan    live EXPLAIN ANALYZE (JSON)\n"
        "  /queries/<id>/fingerprint canonical plan fingerprint (JSON)\n"
        "  /queries/<id>/trace   Chrome trace JSON\n"
        "  /queries/<id>/history durable event log (JSON)\n"
        "  /queries/<id>/doctor  ranked bottleneck verdicts (JSON)\n"
        "  /profile?seconds=N    sampling profile over N seconds (JSON)\n");
  }
  return JsonError(404, "no route for '" + req.path + "'");
}

HttpResponse ObservabilityServer::HandleMetrics() const {
  // Hold shared_ptrs for the duration of the render so a query stopping
  // mid-scrape cannot free its registry under us.
  std::vector<std::shared_ptr<MetricsRegistry>> keep;
  for (const std::string& name : QueryNames()) {
    WithNamedQuery(name, [&keep](const StreamingQuery& query) {
      keep.push_back(query.metrics());
    });
  }
  std::vector<const MetricsRegistry*> registries;
  registries.reserve(keep.size());
  for (const auto& reg : keep) registries.push_back(reg.get());
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = MetricsRegistry::RenderPrometheusText(registries);
  resp.body += RenderProcessStatsPrometheus();
  return resp;
}

HttpResponse ObservabilityServer::HandleQueries() const {
  Json arr = Json::Array();
  for (const std::string& name : QueryNames()) {
    WithNamedQuery(name, [&arr, &name](const StreamingQuery& query) {
      Json obj = Json::Object();
      obj.Set("name", Json::Str(name));
      obj.Set("active", Json::Bool(query.IsActive()));
      Status error = query.GetError();
      obj.Set("error", Json::Str(error.ok() ? "" : error.ToString()));
      QueryProgress last;
      if (query.GetLastProgress(&last)) {
        obj.Set("lastEpoch", Json::Int(last.epoch));
        obj.Set("lastProgress", last.ToJson());
      } else {
        obj.Set("lastEpoch", Json::Int(0));
      }
      arr.Append(std::move(obj));
    });
  }
  return JsonResponse(arr);
}

HttpResponse ObservabilityServer::HandleQueryDetail(
    const std::string& name) const {
  Json obj = Json::Object();
  bool found = WithNamedQuery(name, [&obj, &name](const StreamingQuery& query) {
    obj.Set("name", Json::Str(name));
    obj.Set("active", Json::Bool(query.IsActive()));
    Json progress = Json::Array();
    for (const QueryProgress& p : query.GetProgressSnapshot()) {
      progress.Append(p.ToJson());
    }
    obj.Set("progress", std::move(progress));
  });
  if (!found) return JsonError(404, "no query '" + name + "'");
  return JsonResponse(obj);
}

HttpResponse ObservabilityServer::HandlePlan(const std::string& name) const {
  Json obj;
  bool found = WithNamedQuery(name, [&obj, &name](const StreamingQuery& query) {
    obj = query.plan_profile().ToJson();
    obj.Set("name", Json::Str(name));
    obj.Set("explain", Json::Str(query.ExplainAnalyze()));
  });
  if (!found) return JsonError(404, "no query '" + name + "'");
  return JsonResponse(obj);
}

HttpResponse ObservabilityServer::HandleFingerprint(
    const std::string& name) const {
  // The fingerprint is immutable after Start, so two scrapes of a running
  // query return byte-identical bodies (Json objects are map-ordered) —
  // the smoke script asserts exactly that.
  Json obj;
  bool found = WithNamedQuery(name, [&obj, &name](const StreamingQuery& query) {
    obj = query.plan_fingerprint().ToJson();
    obj.Set("name", Json::Str(name));
  });
  if (!found) return JsonError(404, "no query '" + name + "'");
  return JsonResponse(obj);
}

HttpResponse ObservabilityServer::HandleTrace(const std::string& name) const {
  std::string body;
  bool have_tracer = false;
  bool found = WithNamedQuery(
      name, [&body, &have_tracer](const StreamingQuery& query) {
        if (query.tracer() != nullptr) {
          have_tracer = true;
          body = query.tracer()->ToChromeTraceJson();
        }
      });
  if (!found) return JsonError(404, "no query '" + name + "'");
  if (!have_tracer) {
    return JsonError(404, "tracing is disabled for query '" + name + "'");
  }
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

HttpResponse ObservabilityServer::HandleHistory(
    const std::string& name) const {
  // Resolve the checkpoint dir under the query lock, read the file outside
  // it: appends are line-atomic (flushed whole lines), so a concurrent read
  // sees at worst a torn tail, which ReadAll skips.
  std::string checkpoint_dir;
  bool found = WithNamedQuery(
      name, [&checkpoint_dir](const StreamingQuery& query) {
        checkpoint_dir = query.checkpoint_dir();
      });
  if (!found) return JsonError(404, "no query '" + name + "'");
  if (checkpoint_dir.empty()) {
    return JsonError(404, "query '" + name +
                              "' is ephemeral (no checkpoint, no history)");
  }
  auto events = QueryHistoryLog::ReadAll(checkpoint_dir);
  if (!events.ok()) {
    return JsonError(events.status().IsNotFound() ? 404 : 500,
                     events.status().ToString());
  }
  Json obj = Json::Object();
  obj.Set("name", Json::Str(name));
  Json arr = Json::Array();
  for (Json& event : *events) arr.Append(std::move(event));
  obj.Set("events", std::move(arr));
  return JsonResponse(obj);
}

HttpResponse ObservabilityServer::HandleDoctor(const std::string& name) const {
  // Copy the inputs under the query lock, diagnose outside it: the rule
  // engine is pure computation over the snapshot.
  DoctorInput input;
  bool found = WithNamedQuery(name, [&input, &name](const StreamingQuery& query) {
    input.query_name = name;
    input.window = query.GetProgressSnapshot();
    input.scheduler_parallelism = query.scheduler_parallelism();
    input.num_state_shards = query.num_state_shards();
  });
  if (!found) return JsonError(404, "no query '" + name + "'");
  return JsonResponse(Diagnose(input).ToJson());
}

HttpResponse ObservabilityServer::HandleProfile(
    const std::string& query_string) const {
  // Blocking by design: the profiler is armed for the requested window and
  // the delta profile is returned. Requests serialize on the accept thread,
  // so concurrent scrapers queue rather than fight over arming (the
  // refcounted Arm also makes overlap from other threads safe). The window
  // is clamped so a stray request cannot occupy the server for minutes.
  int64_t seconds = QueryParamInt(query_string, "seconds", 1);
  seconds = std::max<int64_t>(1, std::min<int64_t>(30, seconds));
  int64_t hz = QueryParamInt(
      query_string, "hz", static_cast<int64_t>(Profiler::kDefaultHz));
  ProfileSnapshot snap =
      Profiler::Instance().Collect(seconds * 1000, static_cast<double>(hz));
  return JsonResponse(snap.ToJson());
}

Result<HttpResponse> HttpGet(int port, const std::string& path,
                             int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket() failed: " + ErrnoString());
  SetSocketTimeouts(fd, timeout_ms);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IOError("connect(127.0.0.1:" + std::to_string(port) +
                               ") failed: " + ErrnoString());
    ::close(fd);
    return s;
  }
  std::string request = "GET " + path +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n\r\n";
  if (!SendAll(fd, request)) {
    ::close(fd);
    return Status::IOError("send() failed: " + ErrnoString());
  }
  std::string raw;
  char tmp[4096];
  for (;;) {
    ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n < 0) {
      ::close(fd);
      return Status::IOError("recv() failed: " + ErrnoString());
    }
    if (n == 0) break;
    raw.append(tmp, static_cast<size_t>(n));
  }
  ::close(fd);
  // "HTTP/1.1 200 OK\r\nheaders\r\n\r\nbody"
  size_t header_end = raw.find("\r\n\r\n");
  if (raw.size() < 12 || raw.rfind("HTTP/", 0) != 0 ||
      header_end == std::string::npos) {
    return Status::IOError("malformed HTTP response");
  }
  HttpResponse resp;
  resp.status = std::atoi(raw.c_str() + raw.find(' ') + 1);
  std::string headers = raw.substr(0, header_end);
  size_t ct = headers.find("Content-Type: ");
  if (ct != std::string::npos) {
    size_t eol = headers.find("\r\n", ct);
    resp.content_type = headers.substr(ct + 14, eol - ct - 14);
  }
  resp.body = raw.substr(header_end + 4);
  return resp;
}

}  // namespace sstreaming

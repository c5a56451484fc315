#ifndef SSTREAMING_OBS_HTTP_SERVER_H_
#define SSTREAMING_OBS_HTTP_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace sstreaming {

class MetricsRegistry;
class QueryManager;
class StreamingQuery;

/// A parsed HTTP/1.1 request. The observability API is read-only, so only
/// the request line matters; headers and bodies are read and discarded.
struct HttpRequest {
  std::string method;  // "GET"
  std::string path;    // "/queries/etl/plan" (query string stripped)
  std::string query;   // raw text after '?', empty if none
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Minimal dependency-free HTTP/1.1 server over POSIX sockets: one blocking
/// accept loop on its own thread, binding 127.0.0.1 only (this is a local
/// introspection port, not a public service). Requests are served one at a
/// time on the accept thread — concurrent scrapers queue in the listen
/// backlog — and every response closes the connection (Connection: close),
/// which keeps the server a few hundred lines and stateless. Pass port 0 to
/// bind an ephemeral port and read the kernel's choice back via port().
///
/// The handler runs on the server thread while the application mutates
/// whatever it reports on, so it must only touch thread-safe state
/// (ObservabilityServer below is built exclusively from such accessors).
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(Handler handler) : handler_(std::move(handler)) {}
  ~HttpServer() { Stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept thread.
  Status Start(int port);
  /// Stops the accept loop, joins the thread, closes the socket. Idempotent.
  void Stop();

  /// The bound port (the kernel's pick when Start was given 0).
  int port() const { return port_; }

 private:
  void ServeLoop();
  void HandleConnection(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
};

/// The engine's live-introspection endpoint (paper §7.4): mounts a
/// QueryManager (every active query, tracked as they start and stop) and/or
/// individual queries, and serves:
///
///   GET /healthz              liveness probe ("ok")
///   GET /metrics              Prometheus text across every mounted
///                             registry (deduplicated; stable sort order)
///   GET /queries              JSON list of queries + last QueryProgress
///   GET /queries/<id>         JSON ring buffer of recent QueryProgress
///   GET /queries/<id>/plan    live EXPLAIN ANALYZE (JSON tree + rendering)
///   GET /queries/<id>/fingerprint  canonical plan fingerprint (JSON;
///                             byte-stable for the life of the query)
///   GET /queries/<id>/trace   Chrome trace_event JSON for chrome://tracing
///   GET /queries/<id>/doctor  ranked bottleneck verdicts over the recent
///                             progress window (obs/doctor.h)
///   GET /profile?seconds=N&hz=H  arm the sampling profiler for N seconds
///                             (blocking; see obs/profiler.h) and return
///                             the collected per-(query, op) profile
///
/// Handlers use only the queries' thread-safe snapshot accessors, and
/// manager-owned queries are resolved under the manager lock
/// (QueryManager::WithQuery), so a concurrent StopQuery cannot free a query
/// mid-request. Directly mounted queries/registries must outlive the server
/// (the caller owns them).
class ObservabilityServer {
 public:
  ObservabilityServer() = default;
  ~ObservabilityServer() { Stop(); }

  ObservabilityServer(const ObservabilityServer&) = delete;
  ObservabilityServer& operator=(const ObservabilityServer&) = delete;

  /// Serves every query the manager holds, now or later. The manager must
  /// outlive the server (QueryManager::ServeHttp guarantees this).
  void MountQueryManager(QueryManager* manager);
  /// Serves one caller-owned query under `name`. When a manager query has
  /// the same name, the direct mount wins.
  void MountQuery(const std::string& name, const StreamingQuery* query);

  /// Starts serving on 127.0.0.1:`port` (0 = ephemeral).
  Status Start(int port);
  void Stop();
  int port() const { return server_ != nullptr ? server_->port() : 0; }

  /// The route dispatcher — public so tests can exercise routing without a
  /// socket. Thread-safe.
  HttpResponse Handle(const HttpRequest& request) const;

 private:
  bool WithNamedQuery(const std::string& name,
                      const std::function<void(const StreamingQuery&)>& fn)
      const;
  std::vector<std::string> QueryNames() const;

  HttpResponse HandleMetrics() const;
  HttpResponse HandleQueries() const;
  HttpResponse HandleQueryDetail(const std::string& name) const;
  HttpResponse HandlePlan(const std::string& name) const;
  HttpResponse HandleFingerprint(const std::string& name) const;
  HttpResponse HandleTrace(const std::string& name) const;
  HttpResponse HandleHistory(const std::string& name) const;
  HttpResponse HandleDoctor(const std::string& name) const;
  HttpResponse HandleProfile(const std::string& query_string) const;

  mutable std::mutex mu_;
  QueryManager* manager_ SS_GUARDED_BY(mu_) = nullptr;
  std::map<std::string, const StreamingQuery*> mounted_ SS_GUARDED_BY(mu_);
  // Start/Stop are control-plane calls from one thread; handlers never
  // touch server_.
  std::unique_ptr<HttpServer> server_;
};

/// Minimal blocking HTTP GET against 127.0.0.1:`port` — the client half the
/// tests and the smoke script use. Follows no redirects, speaks just enough
/// HTTP/1.1 for this server.
Result<HttpResponse> HttpGet(int port, const std::string& path,
                             int timeout_ms = 5000);

}  // namespace sstreaming

#endif  // SSTREAMING_OBS_HTTP_SERVER_H_

#ifndef ASSESS_SERVER_HTTP_OBS_H_
#define ASSESS_SERVER_HTTP_OBS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/result.h"

namespace assess {

/// \brief Options of the observability HTTP listener.
struct HttpObsOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one from port().
  uint16_t port = 0;
  int listen_backlog = 16;
  /// A request (line + headers) larger than this is answered 400.
  size_t max_request_bytes = 8192;
  /// Receive deadline per connection, so one stalled scraper cannot wedge
  /// the (single) serving thread.
  int recv_timeout_ms = 2000;
};

/// \brief A deliberately minimal HTTP/1.0 observability endpoint for
/// assessd: one acceptor thread, one connection served at a time,
/// read-only GETs, connection closed after every response.
///
///   GET /metrics   -> Prometheus text exposition (scrape target)
///   GET /healthz   -> 200 "ok" while serving, 503 once draining
///   GET /workload  -> workload profile: top fingerprints by total time
///                     (JSON)
///   GET /traces    -> ring buffer of recent sampled span trees (JSON,
///                     entries carry Chrome trace_event payloads)
///
/// This is not a general web server: no keep-alive, no TLS, no request
/// bodies, no chunking. The error path (malformed request, unknown path,
/// oversized request) writes a prebuilt static response — it allocates
/// nothing, so a malformed-traffic flood cannot pressure the allocator of
/// a serving process.
class HttpObsServer {
 public:
  /// Content callbacks, invoked on the serving thread per request. They
  /// must be safe to call at any time between Start() and Stop() — the
  /// assessd wiring points them at snapshot-style renderers.
  struct Handlers {
    std::function<std::string()> metrics;   ///< text/plain; version=0.0.4
    std::function<bool()> healthy;          ///< false => /healthz is 503
    std::function<std::string()> workload;  ///< application/json
    std::function<std::string()> traces;    ///< application/json
  };

  HttpObsServer(HttpObsOptions options, Handlers handlers);
  ~HttpObsServer();

  HttpObsServer(const HttpObsServer&) = delete;
  HttpObsServer& operator=(const HttpObsServer&) = delete;

  /// \brief Binds and starts the serving thread.
  Status Start();

  /// \brief Stops accepting, joins the serving thread. Idempotent.
  void Stop();

  /// \brief The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// \brief Requests served since Start(), error responses included.
  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void Serve();
  void HandleConnection(int fd);

  HttpObsOptions options_;
  Handlers handlers_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  bool started_ = false;
  bool stopped_ = false;
  std::atomic<uint64_t> requests_{0};
};

}  // namespace assess

#endif  // ASSESS_SERVER_HTTP_OBS_H_

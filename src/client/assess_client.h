#ifndef ASSESS_CLIENT_ASSESS_CLIENT_H_
#define ASSESS_CLIENT_ASSESS_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "assess/result_set.h"
#include "common/result.h"
#include "common/rng.h"
#include "ingest/ingest.h"
#include "server/protocol.h"

namespace assess {

/// \brief Resilience knobs of an AssessClient.
struct ClientOptions {
  /// Deadline for establishing (or re-establishing) the TCP connection.
  /// A dead-but-routable host fails with kTimeout after this long instead
  /// of blocking for the kernel's SYN retry budget. <= 0 blocks.
  int64_t connect_timeout_ms = 5'000;
  /// Socket receive deadline per response; expiry surfaces as kTimeout and
  /// costs the connection (the next call reconnects). <= 0 blocks.
  int64_t read_timeout_ms = 60'000;
  /// Socket send deadline per request frame. <= 0 blocks.
  int64_t write_timeout_ms = 30'000;
  /// Automatic retries after a retryable failure (kUnavailable, kTimeout,
  /// kCorruptFrame): the total attempt count is 1 + max_retries. 0 keeps
  /// the pre-retry behaviour — every failure surfaces to the caller.
  int max_retries = 0;
  /// Decorrelated-jitter backoff between attempts: each sleep is uniform in
  /// [base, 3 * previous sleep], capped.
  int64_t backoff_base_ms = 50;
  int64_t backoff_cap_ms = 2'000;
  /// Seed for the backoff jitter and the request-id stream; 0 derives one
  /// from the wall clock (tests pass a fixed seed for reproducibility).
  uint64_t seed = 0;
  /// Attach a client-generated 64-bit trace id to every Query() and
  /// ExplainAnalyze() frame (read it back via last_trace_id()). The server
  /// roots its span tree under the id and stamps it into the slow-query
  /// log, error replies and /traces, so one id joins the client's view of
  /// a query with every server-side artifact it produced. Disable when
  /// talking to a pre-trace server: old decoders reject the flagged frame.
  bool trace_ids = true;
  /// Frame cap this client enforces on responses.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// \brief Client side of the assessd protocol: a blocking, single-connection
/// remote AssessSession.
///
///   auto client = AssessClient::Connect("127.0.0.1", 7117);
///   if (!client.ok()) { ... }
///   auto result = client->Query(
///       "with SALES by month assess storeSales labels quartiles");
///
/// Query() mirrors AssessSession::Query(): the same statement against the
/// same database yields a bit-identical AssessResult (coordinates, measure
/// bits, labels, chosen plan, pushed SQL), just computed on the server with
/// its shared result cache. Server-side failures come back as the same
/// typed Status the in-process session would return (plus kUnavailable for
/// overload/shutdown rejections and kTimeout for deadline violations) —
/// an error never costs the connection.
///
/// Resilience (ClientOptions): every call honours connect/read/write
/// deadlines, and with max_retries > 0 retryable failures (kUnavailable,
/// kTimeout, kCorruptFrame) trigger automatic reconnection and retry with
/// exponential backoff and decorrelated jitter. Each call carries one
/// client-generated request id reused across its attempts. A retried query
/// simply executes again — it only reads, and usually hits the result its
/// first attempt cached. A retried ingest replays its stored receipt
/// instead: at-most-once appends even when a response (not the request) was
/// what got lost.
///
/// One in-flight request per client (the protocol is strict
/// request/response); a client is not thread-safe — use one per thread, the
/// server pools their caches anyway. Movable, not copyable; the destructor
/// closes the connection.
class AssessClient {
 public:
  static Result<AssessClient> Connect(const std::string& host, uint16_t port,
                                      ClientOptions options);
  /// Back-compat overload: default resilience options (no retries).
  static Result<AssessClient> Connect(
      const std::string& host, uint16_t port,
      size_t max_frame_bytes = kDefaultMaxFrameBytes);

  AssessClient(AssessClient&& other) noexcept;
  AssessClient& operator=(AssessClient&& other) noexcept;
  AssessClient(const AssessClient&) = delete;
  AssessClient& operator=(const AssessClient&) = delete;
  ~AssessClient();

  /// \brief Executes one assess statement on the server, retrying per
  /// ClientOptions; every attempt executes (reads are safe to repeat).
  Result<AssessResult> Query(std::string_view statement);

  /// \brief Fetches the server's statistics snapshot (retryable: reads are
  /// idempotent by nature).
  Result<ServerStats> Stats();

  /// \brief Fetches the server's Prometheus-style metrics exposition
  /// (retryable, like Stats()).
  Result<std::string> Metrics();

  /// \brief Runs `statement` on the server under EXPLAIN ANALYZE and returns
  /// the rendered span tree + phase breakdown. Never retried: every call
  /// executes once and re-measures. Fails with
  /// kNotSupported when the server was built with ASSESS_TRACING=OFF.
  Result<std::string> ExplainAnalyze(std::string_view statement);

  /// \brief Streams `text` (CSV with header line, or JSONL) into `cube` on
  /// the server, returning what the load did. Retried under one request id,
  /// and the server replays the stored receipt for a repeated id — a retry
  /// after a lost response never appends the rows twice. `auto_insert` asks
  /// the server to add unknown dimension members; it is honoured only when
  /// the server's own ingest policy allows it. Fails with kNotSupported on
  /// a read-only server (assessd without --ingest).
  Result<IngestStats> Ingest(std::string_view cube, std::string_view text,
                             IngestFormat format = IngestFormat::kCsv,
                             bool auto_insert = false);

  /// \brief Round-trips a ping frame (retryable).
  Status Ping();

  /// \brief Sends a failpoint admin spec (see common/failpoint.h) and
  /// returns the server's armed-points listing. Never retried. Fails with
  /// kNotSupported unless the server runs with failpoint admin enabled.
  Result<std::string> Failpoint(std::string_view spec);

  /// \brief Closes the connection. With retries enabled the next call
  /// reconnects; otherwise further calls fail with kUnavailable.
  void Close();

  bool connected() const { return fd_ >= 0; }

  /// \brief The trace id attached to the most recent Query() /
  /// ExplainAnalyze() call (all retries of one call share one id), or 0
  /// when ClientOptions::trace_ids is off. Quote it when filing a slow
  /// query: the server's log line, error reply and /traces entry carry
  /// the same id.
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  AssessClient(std::string host, uint16_t port, const ClientOptions& options);

  /// Connects (with the configured deadline) if not connected, and applies
  /// the socket read/write deadlines.
  Status EnsureConnected();

  /// Sends `request` and reads the single response frame, enforcing the
  /// expected response type and decoding kError payloads into their Status.
  Status RoundTrip(FrameType request, std::string_view payload,
                   FrameType expected, std::string* response,
                   uint64_t trace_id = 0);

  /// EnsureConnected + RoundTrip under the retry policy: retryable failures
  /// reconnect and retry with decorrelated-jitter backoff.
  Status RoundTripWithRetry(FrameType request, std::string_view payload,
                            FrameType expected, std::string* response,
                            uint64_t trace_id = 0);

  uint64_t NextRequestId();
  /// A fresh nonzero trace id, or 0 when ClientOptions::trace_ids is off.
  uint64_t NextTraceId();

  std::string host_;
  uint16_t port_ = 0;
  ClientOptions options_;
  Rng rng_;
  int64_t prev_backoff_ms_ = 0;
  uint64_t last_trace_id_ = 0;
  int fd_ = -1;
};

}  // namespace assess

#endif  // ASSESS_CLIENT_ASSESS_CLIENT_H_

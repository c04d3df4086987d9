#ifndef ASSESS_SERVER_ASSESSD_H_
#define ASSESS_SERVER_ASSESSD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "assess/session.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "server/mqo.h"
#include "server/protocol.h"
#include "storage/star_schema.h"

namespace assess {

class DurabilityManager;
class HttpObsServer;

/// \brief Tuning knobs of an AssessServer.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one from port() after
  /// Start() (the way the loopback tests and benches run many servers).
  uint16_t port = 0;
  /// Size of the execution worker pool; <= 0 means one per hardware thread.
  int worker_threads = 0;
  /// Admission control: at most this many requests may wait for a worker;
  /// further queries are rejected immediately with kUnavailable ("server
  /// overloaded") instead of building an unbounded backlog.
  int max_queue = 128;
  /// Connections beyond this are greeted with kUnavailable and closed.
  int max_connections = 256;
  int listen_backlog = 64;
  /// Per-request wall-clock budget, measured from admission (enqueue) to
  /// response readiness. Requests that overstay — waiting or executing —
  /// are answered with kTimeout. <= 0 disables the deadline.
  int64_t request_timeout_ms = 30'000;
  /// Protocol frame cap for this server (requests and responses).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Whether kFailpoint admin frames may arm/disarm fault injection on
  /// this server. Off by default: chaos testing is opt-in
  /// (`assessd --failpoint-admin`).
  bool allow_failpoint_admin = false;
  /// Slow-query log: sampled queries whose execution takes at least this
  /// many milliseconds get their span tree dumped to stderr. < 0 (default)
  /// disables the log and the per-query tracing behind it; 0 logs every
  /// sampled query. No-op when tracing is compiled out.
  int64_t slow_query_ms = -1;
  /// Fraction of queries traced when the slow-query log is on, in [0, 1].
  /// The sampler is deterministic under `trace_seed`, so a given rate and
  /// seed always trace the same request sequence.
  double trace_sample = 1.0;
  uint64_t trace_seed = 1;
  /// Test hook for the slow-query log: when set, the formatted log line is
  /// handed here instead of being printed to stderr — the way the
  /// end-to-end trace-correlation test reads the line back.
  std::function<void(const std::string&)> slow_query_sink;
  /// How many recent sampled span trees the /traces ring buffer keeps.
  size_t trace_ring_entries = 32;
  /// Observability HTTP listener (assessd --http-port): serves /metrics,
  /// /healthz, /workload and /traces on `host`. < 0 (the default) disables
  /// it; 0 binds an ephemeral port readable from http_port().
  int http_port = -1;
  /// Workload profiling kill switch (assessd --workload-profile=off):
  /// when false, queries are not recorded into the workload profile and
  /// /workload reports an empty profile.
  bool workload_profile = true;
  /// Multi-query optimization: queries are held for this micro-batch window
  /// (measured from the oldest held request) so concurrent statements whose
  /// planned `get` subplans share a cube, predicate conjunction and fact
  /// epoch execute as one fused shared scan that pre-seeds the result cache.
  /// 0 (the default) disables the collector entirely — every request goes
  /// straight to the worker queue. Useful values on a busy server are a few
  /// hundred µs: enough for concurrent clients to land in one window, well
  /// below interactive latency budgets. Responses are bit-identical either
  /// way.
  int64_t mqo_window_us = 0;
  /// A window flushes early once this many requests are pending.
  int mqo_max_batch = 16;
  /// Engine configuration for the per-connection sessions. When the result
  /// cache is enabled and no shared_cache is given, Start() creates one, so
  /// all connections pool warm results by construction. Likewise, when no
  /// scan pool is given, Start() installs the process-wide TaskPool::Shared()
  /// — every session then schedules its morsels on one fixed worker set, and
  /// `engine.threads <= 0` caps each query at that pool's parallelism rather
  /// than at hardware_concurrency (N sessions share the cores instead of
  /// each assuming it owns them all).
  EngineOptions engine;
  /// Ingestion: when set (to the same database passed to the constructor,
  /// but mutable), kIngest frames stream rows into it; when null (the
  /// default) the server is read-only and refuses them with kNotSupported.
  StarDatabase* mutable_db = nullptr;
  /// Server-side ingestion policy (format is taken per-request from the
  /// frame; the wire's auto-insert flag is honoured only when
  /// `ingest.auto_insert_members` also allows it).
  IngestOptions ingest;
  /// Durability (assessd --data-dir): when set, every kIngest batch is
  /// write-ahead-logged and made durable *before* its kIngestReply receipt,
  /// a checkpoint is taken after any ingest that pushed the WAL past its
  /// threshold, and graceful drain flushes the log. Borrowed, must outlive
  /// the server; it typically also owns the database `mutable_db` points
  /// to. Null = no durability (the in-memory default).
  DurabilityManager* durability = nullptr;
  /// Test-only: runs at the start of each query's execution, inside the
  /// worker, before the session is consulted. Lets tests make execution
  /// arbitrarily slow to exercise admission control and timeouts.
  std::function<void()> pre_execute_hook;
};

/// \brief assessd: a concurrent TCP server exposing one StarDatabase to many
/// remote assess sessions over the framed protocol of server/protocol.h.
///
/// Threading model — one acceptor, one reader per connection, a bounded
/// worker pool:
///
///   - The acceptor thread accepts sockets and spawns a reader thread per
///     connection, each owning a private AssessSession. All sessions share
///     the server's EngineOptions::shared_cache, so any connection's warm
///     results serve every other connection (the PR-1 cache finally used as
///     designed).
///   - Readers parse frames, answer control frames (kPing, kStats) inline,
///     and submit kQuery frames to the bounded request queue. Strict
///     request/response per connection: a reader waits for the response and
///     writes it before reading the next frame, so a session is never used
///     by two threads at once.
///   - Workers pop requests, enforce the wall-clock deadline, execute via
///     the connection's session and hand the serialized response back to
///     the reader.
///
/// Backpressure is explicit: a full queue rejects with kUnavailable rather
/// than queueing unboundedly, and the queue bound plus strict per-connection
/// request/response cap memory at (connections + queue) outstanding frames.
///
/// Shutdown (Stop(), also run by the destructor) is a graceful drain: stop
/// accepting connections and admitting queries, let queued and in-flight
/// requests complete and their responses flush, then close connections and
/// join all threads. The assessd daemon wires SIGINT/SIGTERM to Stop().
class AssessServer {
 public:
  /// \brief `db` must outlive the server and stay immutable while serving
  /// (the same contract the shared cache already imposes).
  AssessServer(const StarDatabase* db, ServerOptions options);
  ~AssessServer();

  AssessServer(const AssessServer&) = delete;
  AssessServer& operator=(const AssessServer&) = delete;

  /// \brief Binds, then starts the acceptor and the worker pool.
  Status Start();

  /// \brief Graceful drain; idempotent and safe to call concurrently with
  /// serving traffic.
  void Stop();

  /// \brief The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// \brief The observability HTTP listener's bound port (0 when disabled).
  uint16_t http_port() const;

  /// \brief Point-in-time server statistics (what kStats returns).
  ServerStats Snapshot() const;

  /// \brief Prometheus-style text exposition (what kMetrics and /metrics
  /// return): the process metrics registry, this server's request latency
  /// histogram, and one series per ServerStats field-table row, read from
  /// Snapshot() — so every \stats number has a same-named sample.
  std::string RenderMetrics() const;

  /// \brief The /traces payload: recent sampled span trees, newest last,
  /// each entry carrying its trace id and a Chrome trace_event object.
  std::string RenderTracesJson() const;

  /// \brief This server's workload profile (shared by all its sessions).
  WorkloadProfiler& profiler() { return profiler_; }

 private:
  struct Connection;
  struct Request;

  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  void WorkerLoop();

  /// Executes one admitted request; the worker loop fulfils the promise
  /// with the returned (frame type, payload) after leaving the in-flight
  /// count. An ingest carrying a nonzero id settles its receipt entry:
  /// deterministic outcomes are stored, any other clears the pending mark.
  std::pair<FrameType, std::string> ExecuteRequest(Request* request);

  /// Ingest receipts. Marks `request_id` pending and returns true when this
  /// attempt must execute; otherwise returns false with the reply to send
  /// instead: the stored receipt, or kUnavailable while an earlier attempt
  /// of the same id still executes. Check and mark are one critical section.
  bool ClaimReceipt(uint64_t request_id, FrameType* type,
                    std::string* payload);
  /// Stores the outcome of a claimed id; retries replay it from now on.
  void StoreReceipt(uint64_t request_id, FrameType type,
                    const std::string& payload);
  /// Clears the pending mark of a claimed id whose outcome is not stored,
  /// so a retry executes.
  void ReleaseReceipt(uint64_t request_id);

  void RecordLatency(double ms);
  void ReapFinishedConnections();

  /// Deterministic sampling decision for one query (trace_mutex_).
  bool SampleTrace();
  /// Dumps a slow query's span tree — prefixed with the request id and the
  /// client trace id so the line joins to retries and /traces — to stderr
  /// (or the slow_query_sink test hook), behind the "trace.emit" failpoint:
  /// a failing sink only moves a counter, never the response.
  void EmitSlowQuery(uint64_t request_id, uint64_t trace_id,
                     const std::string& statement, double ms,
                     const TraceContext& trace);
  /// Appends one completed sampled trace to the /traces ring buffer.
  void RecordTrace(uint64_t trace_id, const std::string& statement, double ms,
                   const TraceContext& trace);

  const StarDatabase* db_;
  ServerOptions options_;

  /// The MQO micro-batch collector (null when mqo_window_us <= 0). Created
  /// in Start() after the shared cache and pool are installed — its engine
  /// must share both — and stopped in Stop() between the acceptor join and
  /// the drain wait, so its final flush lands in the queue the drain
  /// observes.
  std::unique_ptr<MqoCollector> mqo_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // Connections (guarded by conn_mutex_). Readers mark themselves done;
  // the acceptor reaps finished ones so long-lived servers do not grow.
  mutable std::mutex conn_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  // Request queue (guarded by queue_mutex_). stopping_ is flipped under the
  // same mutex so admission and drain cannot race.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;   // workers: work available / exiting
  std::condition_variable drain_cv_;   // Stop(): queue empty and idle
  std::deque<Request*> queue_;
  bool stopping_ = false;
  bool workers_exit_ = false;
  int in_flight_ = 0;

  bool started_ = false;
  bool stopped_ = false;
  std::mutex lifecycle_mutex_;

  // Ingest receipt store (guarded by receipt_mutex_), keyed by client
  // request id. An entry is pending while its first attempt executes, then
  // holds the stored reply. Only stored entries enter the FIFO, which
  // evicts past the entry and byte caps; a pending entry is never evicted.
  struct Receipt {
    bool pending = true;
    FrameType type = FrameType::kError;
    std::string payload;
  };
  std::mutex receipt_mutex_;
  std::unordered_map<uint64_t, Receipt> receipts_;
  std::deque<uint64_t> receipt_fifo_;
  size_t receipt_bytes_held_ = 0;

  // Monotonic counters.
  std::atomic<uint64_t> total_requests_{0};
  std::atomic<uint64_t> ok_responses_{0};
  std::atomic<uint64_t> error_responses_{0};
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> ingest_rows_{0};
  std::atomic<uint64_t> ingest_batches_{0};

  // Request latency histogram: lock-free Observe, whole-lifetime
  // percentiles (replaces the old sliding-window array + sort).
  Histogram latency_hist_{Histogram::LatencyBoundsMs()};

  // Slow-query tracing. The sampler's Rng is stateful, hence the mutex;
  // the counters feed the ServerStats obs section.
  std::mutex trace_mutex_;
  TraceSampler trace_sampler_;
  std::atomic<uint64_t> slow_queries_{0};
  std::atomic<uint64_t> traces_sampled_{0};
  std::atomic<uint64_t> trace_spans_{0};
  std::atomic<uint64_t> trace_emit_failures_{0};

  // Observability: this server's workload profile (every session's engine
  // records into it; Start() points options_.engine.profiler here),
  // the observability HTTP listener, the /traces ring and the count of
  // frames that carried a client trace id.
  WorkloadProfiler profiler_;
  std::unique_ptr<HttpObsServer> http_;
  mutable std::mutex ring_mutex_;
  std::deque<std::string> trace_ring_;  // rendered JSON entries, newest last
  std::atomic<uint64_t> trace_ids_received_{0};
};

}  // namespace assess

#endif  // ASSESS_SERVER_ASSESSD_H_

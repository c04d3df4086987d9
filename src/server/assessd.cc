#include "server/assessd.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>

#include "assess/explain_analyze.h"
#include "assess/wire_format.h"
#include "common/failpoint.h"
#include "common/task_pool.h"
#include "ingest/ingestor.h"
#include "server/http_obs.h"
#include "wal/durability.h"

namespace assess {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// Blocked response writes (peer stopped reading with a full socket buffer)
/// abort with kUnavailable after this long instead of wedging a reader
/// thread forever; see Stop()'s drain sequencing.
constexpr int kSendTimeoutSeconds = 10;

/// Caps of the ingest receipt store. Entries: a retry comes within seconds
/// of its first attempt. Bytes: an ingest error echoes input fields
/// (`unknown member '…'`), so one entry's size is the client's to choose.
constexpr size_t kReceiptEntries = 1024;
constexpr size_t kReceiptBytes = size_t{32} << 20;

/// Status-returning wrapper around a failpoint site, for use where the
/// enclosing function does not itself return Status (reader/worker loops).
Status FailpointStatus(const char* name) {
  ASSESS_FAILPOINT(name);
  return Status::OK();
}

/// Canonical rendering of a trace id everywhere it is surfaced (slow-query
/// log, error replies, \analyze output, /traces) — one format, greppable.
std::string TraceIdHex(uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

}  // namespace

struct AssessServer::Connection {
  int fd = -1;
  std::unique_ptr<AssessSession> session;
  std::thread reader;
  std::atomic<bool> done{false};
};

struct AssessServer::Request {
  Connection* conn = nullptr;
  /// The statement text — or, for an ingest request, the raw row text.
  std::string statement;
  uint64_t request_id = 0;  ///< client idempotency key; 0 = none
  bool explain = false;     ///< kExplainAnalyze: trace + render
  bool ingest = false;      ///< kIngest: stream `statement` as rows
  std::string ingest_cube;
  IngestFormat ingest_format = IngestFormat::kCsv;
  bool ingest_auto_insert = false;
  /// Client-generated trace id from the frame header (0 = untraced). Stamped
  /// into the root span, the slow-query log, error replies and \analyze
  /// output, so the client's view joins to the server's.
  uint64_t trace_id = 0;
  Clock::time_point admitted;
  /// Set by the MQO collector when this request rode a shared scan
  /// ("mqo: shared scan with N queries"). Surfaced by EXPLAIN ANALYZE only;
  /// kResult payloads are never touched, so batched responses stay
  /// bit-identical to unbatched ones.
  std::string mqo_note;
  std::promise<std::pair<FrameType, std::string>> response;
};

AssessServer::AssessServer(const StarDatabase* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      trace_sampler_(options_.trace_sample, options_.trace_seed) {}

AssessServer::~AssessServer() { Stop(); }

Status AssessServer::Start() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (started_) return Status::InvalidArgument("server already started");
    started_ = true;
  }
  if (options_.engine.use_result_cache && !options_.engine.shared_cache) {
    options_.engine.shared_cache =
        std::make_shared<CubeResultCache>(options_.engine.cache);
  }
  // One scan pool for every session this server hosts: per-connection
  // engines then derive their intra-query parallelism from this fixed
  // worker set instead of each sizing itself to the whole machine, so N
  // concurrent sessions cannot oversubscribe into N × cores scan threads.
  if (!options_.engine.pool) options_.engine.pool = TaskPool::Shared();
  // Workload profiling: every session's engine records into this server's
  // profile store. The kill switch only
  // disables recording — /workload stays wired so an operator sees an
  // explicitly empty profile, not a missing feature.
  profiler_.set_enabled(options_.workload_profile);
  options_.engine.profiler = &profiler_;
  // The MQO collector shares the sessions' cache and pool (installed just
  // above), so its shared scans seed exactly the entries sessions look up.
  if (options_.mqo_window_us > 0) {
    MqoOptions mqo_options;
    mqo_options.window_us = options_.mqo_window_us;
    mqo_options.max_batch = std::max(2, options_.mqo_max_batch);
    MqoCollector::Hooks hooks;
    hooks.enqueue = [this](void* token, const std::string& note) {
      auto* request = static_cast<Request*>(token);
      request->mqo_note = note;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        // No stopping_/max_queue check: the request was admitted before it
        // entered the collector, and its reader is blocked on the promise —
        // dropping it here would wedge that reader forever.
        queue_.push_back(request);
      }
      queue_cv_.notify_one();
    };
    hooks.reject = [this](void* token, const Status& status) {
      auto* request = static_cast<Request*>(token);
      error_responses_.fetch_add(1, std::memory_order_relaxed);
      request->response.set_value(
          {FrameType::kError, SerializeStatus(status)});
    };
    mqo_ = std::make_unique<MqoCollector>(db_, options_.engine, mqo_options,
                                          std::move(hooks));
  }
  int workers = options_.worker_threads;
  if (workers <= 0) {
    workers = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  if (options_.max_queue < 0) options_.max_queue = 0;

  ASSESS_ASSIGN_OR_RETURN(
      ListenSocket listener,
      ListenOn(options_.host, options_.port, options_.listen_backlog));
  listen_fd_ = listener.fd;
  port_ = listener.port;

  // Observability HTTP listener (own acceptor thread, read-only). Stopped
  // at the very END of Stop(), so /healthz answers 503 all through the
  // drain instead of refusing connections while requests still finish.
  if (options_.http_port >= 0) {
    HttpObsOptions http_options;
    http_options.host = options_.host;
    http_options.port = static_cast<uint16_t>(options_.http_port);
    HttpObsServer::Handlers handlers;
    handlers.metrics = [this] { return RenderMetrics(); };
    handlers.healthy = [this] {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      return !stopping_;
    };
    handlers.workload = [this] { return profiler_.BuildReport().ToJson(); };
    handlers.traces = [this] { return RenderTracesJson(); };
    http_ = std::make_unique<HttpObsServer>(std::move(http_options),
                                            std::move(handlers));
    Status http_started = http_->Start();
    if (!http_started.ok()) {
      http_.reset();
      CloseSocket(listen_fd_);
      listen_fd_ = -1;
      return http_started.WithContext("observability http listener");
    }
  }

  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(&AssessServer::WorkerLoop, this);
  }
  acceptor_ = std::thread(&AssessServer::AcceptLoop, this);
  return Status::OK();
}

void AssessServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  // 1. Stop admitting queries (under the queue mutex, so no request can
  //    slip past the drain wait below).
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  // 2. Stop accepting connections.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  CloseSocket(listen_fd_);
  listen_fd_ = -1;
  // 2b. Flush the MQO window. Every request the collector holds was
  //     admitted and has a reader blocked on its promise, so the final
  //     flush hands each one to the worker queue (shared scans skipped) —
  //     before the drain below, which must observe them. New submissions
  //     are already impossible: stopping_ fails the admission check, and
  //     Submit itself returns false once the collector stops.
  if (mqo_ != nullptr) mqo_->Stop();
  // 3. Drain: every queued and in-flight request completes.
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    drain_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  }
  // 3b. Graceful drain flushes the WAL: even under --fsync-mode none,
  //     every batch committed before the drain is durable at exit.
  if (options_.durability != nullptr) {
    Status flushed = options_.durability->Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "[assessd] WAL flush on drain failed: %s\n",
                   flushed.ToString().c_str());
    }
  }
  // 4. Unblock readers parked in recv while letting their final response
  //    writes flush (SHUT_RD only; blocked writes bail out via the send
  //    timeout set at accept time).
  std::vector<std::unique_ptr<Connection>> retiring;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& conn : connections_) {
      if (!conn->done.load()) ::shutdown(conn->fd, SHUT_RD);
    }
    retiring.swap(connections_);
  }
  // 5. Join readers and release their sockets — outside conn_mutex_, since
  //    a reader answering a late kStats takes that mutex inside Snapshot().
  for (const auto& conn : retiring) {
    if (conn->reader.joinable()) conn->reader.join();
    CloseSocket(conn->fd);
  }
  retiring.clear();
  // 6. Retire the worker pool.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_exit_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // 7. Retire the observability listener last: through the whole drain
  //    above, /healthz kept answering 503 so orchestrators saw "alive but
  //    not ready" rather than connection refused.
  if (http_ != nullptr) http_->Stop();
}

uint16_t AssessServer::http_port() const {
  return http_ != nullptr ? http_->port() : 0;
}

void AssessServer::AcceptLoop() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or fatal: stop accepting
    }
    if (ASSESS_FAILPOINT_TRIGGERED("server.accept")) {
      // Simulates the peer vanishing between connect and service: the
      // client sees a reset, not a typed error.
      CloseSocket(fd);
      continue;
    }
    ReapFinishedConnections();

    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval send_timeout{};
    send_timeout.tv_sec = kSendTimeoutSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));

    size_t open = 0;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      for (const auto& conn : connections_) {
        if (!conn->done.load()) ++open;
      }
    }
    bool stopping;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stopping = stopping_;
    }
    if (stopping || open >= static_cast<size_t>(options_.max_connections)) {
      WriteFrame(fd, FrameType::kError,
                 SerializeStatus(Status::Unavailable(
                     stopping ? "server shutting down"
                              : "too many connections")));
      CloseSocket(fd);
      continue;
    }

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->session = std::make_unique<AssessSession>(db_, options_.engine);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      connections_.push_back(std::move(conn));
    }
    raw->reader = std::thread(&AssessServer::ReaderLoop, this, raw);
  }
}

void AssessServer::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  // Read each `done` exactly once: a reader can finish between two reads,
  // and erasing a connection whose reader was never joined destroys a
  // joinable std::thread (std::terminate).
  auto finished = std::stable_partition(
      connections_.begin(), connections_.end(),
      [](const std::unique_ptr<Connection>& conn) {
        return !conn->done.load();
      });
  for (auto it = finished; it != connections_.end(); ++it) {
    if ((*it)->reader.joinable()) (*it)->reader.join();
    CloseSocket((*it)->fd);
  }
  connections_.erase(finished, connections_.end());
}

void AssessServer::ReaderLoop(Connection* conn) {
  while (true) {
    Frame frame;
    Status read = ReadFrame(conn->fd, options_.max_frame_bytes, &frame);
    if (read.ok()) read = FailpointStatus("server.read_frame");
    if (!read.ok()) {
      // Framing-level failures (bad length, unknown type, oversized frame,
      // failed CRC) get one typed error before the close, so the peer can
      // tell a protocol problem from a vanished server; torn connections
      // just close.
      if (read.code() == StatusCode::kInvalidArgument ||
          read.code() == StatusCode::kFrameTooLarge ||
          read.code() == StatusCode::kCorruptFrame) {
        WriteFrame(conn->fd, FrameType::kError, SerializeStatus(read));
      }
      break;
    }
    if (frame.trace_id != 0) {
      trace_ids_received_.fetch_add(1, std::memory_order_relaxed);
    }
    if (frame.type == FrameType::kPing) {
      if (!WriteFrame(conn->fd, FrameType::kPong, {}).ok()) break;
      continue;
    }
    if (frame.type == FrameType::kStats) {
      if (!WriteFrame(conn->fd, FrameType::kStatsReply,
                      Snapshot().Serialize())
               .ok()) {
        break;
      }
      continue;
    }
    if (frame.type == FrameType::kMetrics) {
      if (!WriteFrame(conn->fd, FrameType::kMetricsReply, RenderMetrics())
               .ok()) {
        break;
      }
      continue;
    }
    if (frame.type == FrameType::kFailpoint) {
      // Fault-injection admin: arm/disarm by spec string, reply with the
      // registry listing. Off by default — only servers started with
      // failpoint admin enabled honour it.
      Status armed = Status::NotSupported(
          "failpoint admin is disabled on this server");
      if (options_.allow_failpoint_admin) {
        armed = FailpointRegistry::Instance().ArmFromString(frame.payload);
      }
      Status written =
          armed.ok() ? WriteFrame(conn->fd, FrameType::kFailpointReply,
                                  FailpointRegistry::Instance().Describe())
                     : WriteFrame(conn->fd, FrameType::kError,
                                  SerializeStatus(armed));
      if (!written.ok()) break;
      continue;
    }
    if (frame.type != FrameType::kQuery &&
        frame.type != FrameType::kExplainAnalyze &&
        frame.type != FrameType::kIngest) {
      WriteFrame(conn->fd, FrameType::kError,
                 SerializeStatus(Status::InvalidArgument(
                     "unexpected frame type for a request")));
      break;
    }
    const bool explain = frame.type == FrameType::kExplainAnalyze;
    const bool ingest = frame.type == FrameType::kIngest;

    total_requests_.fetch_add(1, std::memory_order_relaxed);
    uint64_t request_id = 0;
    std::string_view statement;
    std::string_view ingest_cube;
    IngestFormat ingest_format = IngestFormat::kCsv;
    uint8_t ingest_flags = 0;
    Status decoded =
        ingest ? DecodeIngestPayload(frame.payload, &request_id, &ingest_cube,
                                     &ingest_format, &ingest_flags, &statement)
               : DecodeQueryPayload(frame.payload, &request_id, &statement);
    if (!decoded.ok()) {
      if (!WriteFrame(conn->fd, FrameType::kError, SerializeStatus(decoded))
               .ok()) {
        break;
      }
      continue;
    }

    // At-most-once ingest: a retried ingest (same nonzero id, after a
    // reconnect, a timeout or a corrupted reply) replays its stored receipt,
    // or hears kUnavailable while its first attempt still executes; it never
    // appends its rows a second time. Queries and EXPLAIN ANALYZE only read
    // the cube, so a retry of one simply executes again.
    const bool receipt_keyed = ingest && request_id != 0;
    if (receipt_keyed) {
      FrameType reply_type = FrameType::kError;
      std::string reply_payload;
      if (!ClaimReceipt(request_id, &reply_type, &reply_payload)) {
        if (!WriteFrame(conn->fd, reply_type, reply_payload).ok()) break;
        continue;
      }
    }

    Request request;
    request.conn = conn;
    request.statement = std::string(statement);
    request.request_id = request_id;
    request.explain = explain;
    request.ingest = ingest;
    request.ingest_cube = std::string(ingest_cube);
    request.ingest_format = ingest_format;
    request.ingest_auto_insert = (ingest_flags & kIngestFlagAutoInsert) != 0;
    request.trace_id = frame.trace_id;
    request.admitted = Clock::now();
    auto response = request.response.get_future();

    Status rejected = Status::OK();
    bool submitted = false;
    if (mqo_ != nullptr && !ingest) {
      // MQO path: the collector holds the request for the micro-batch
      // window, runs shared scans, then hands it to the worker queue via
      // the enqueue hook. Admission is checked first — requests held by the
      // collector count against the queue bound — but Submit itself runs
      // outside queue_mutex_, which the enqueue hook takes.
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (stopping_) {
          rejected = Status::Unavailable("server shutting down");
        } else if (queue_.size() + static_cast<size_t>(std::max<int64_t>(
                                       0, mqo_->pending())) >=
                   static_cast<size_t>(options_.max_queue)) {
          rejected =
              Status::Unavailable("server overloaded: request queue full");
        }
      }
      if (rejected.ok()) {
        submitted = mqo_->Submit(&request, request.statement);
        // false = the collector stopped between the admission check and
        // here; fall through to the direct path, which re-checks stopping_.
      }
    }
    if (rejected.ok() && !submitted) {
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (stopping_) {
          rejected = Status::Unavailable("server shutting down");
        } else if (queue_.size() >= static_cast<size_t>(options_.max_queue)) {
          rejected =
              Status::Unavailable("server overloaded: request queue full");
        } else {
          queue_.push_back(&request);
        }
      }
      if (rejected.ok()) queue_cv_.notify_one();
    }
    if (!rejected.ok()) {
      if (receipt_keyed) ReleaseReceipt(request_id);
      if (rejected.message().find("overloaded") != std::string::npos) {
        rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      } else {
        error_responses_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!WriteFrame(conn->fd, FrameType::kError, SerializeStatus(rejected))
               .ok()) {
        break;
      }
      continue;
    }

    // Strict request/response: wait for the worker, then write. The request
    // lives on this stack frame, so the wait must be unconditional.
    auto [type, payload] = response.get();
    RecordLatency(ElapsedMs(request.admitted));
    Status written = FailpointStatus("server.write_frame");
    if (written.ok()) written = WriteFrame(conn->fd, type, payload);
    if (!written.ok()) break;
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true);
}

void AssessServer::WorkerLoop() {
  while (true) {
    Request* request = nullptr;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return !queue_.empty() || workers_exit_; });
      if (queue_.empty()) return;  // workers_exit_ and nothing left to drain
      request = queue_.front();
      queue_.pop_front();
      ++in_flight_;
    }
    auto response = ExecuteRequest(request);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drain_cv_.notify_all();
    }
    // Fulfilled only after in_flight_ dropped: a request whose response is
    // ready is no longer in flight, so a stats probe right after a reply
    // never sees a phantom in-flight request. Last touch of `request` — the
    // reader owns it and may free it once the future resolves.
    request->response.set_value(std::move(response));
  }
}

std::pair<FrameType, std::string> AssessServer::ExecuteRequest(
    Request* request) {
  const int64_t timeout_ms = options_.request_timeout_ms;
  auto overdue = [&] {
    return timeout_ms > 0 && ElapsedMs(request->admitted) >
                                 static_cast<double>(timeout_ms);
  };
  auto timeout_status = [&](const char* where) {
    char msg[96];
    std::snprintf(msg, sizeof(msg), "request exceeded %lld ms deadline %s",
                  static_cast<long long>(timeout_ms), where);
    return Status::Timeout(msg);
  };

  FrameType type = FrameType::kError;
  std::string payload;
  StatusCode error_code = StatusCode::kOk;
  auto fail = [&](const Status& status) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    error_code = status.code();
    // A traced request's error reply carries the trace id, so a client
    // seeing the failure can quote the exact server-side story to chase.
    payload = SerializeStatus(
        request->trace_id != 0
            ? status.WithContext("trace " + TraceIdHex(request->trace_id))
            : status);
  };

  Status dequeued = FailpointStatus("server.worker_dequeue");
  if (overdue()) {
    // Spent its whole budget waiting for a worker; do not execute at all.
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    error_code = StatusCode::kTimeout;
    payload = SerializeStatus(timeout_status("while queued"));
  } else if (!dequeued.ok()) {
    fail(dequeued);
  } else if (request->ingest) {
    if (options_.pre_execute_hook) options_.pre_execute_hook();
    Status injected = FailpointStatus("server.session_execute");
    Result<IngestStats> ingested = [&]() -> Result<IngestStats> {
      if (!injected.ok()) return {injected};
      if (options_.mutable_db == nullptr) {
        return Status::NotSupported(
            "this server is read-only; start assessd with --ingest to "
            "accept row streams");
      }
      IngestOptions opts = options_.ingest;
      opts.format = request->ingest_format;
      // The wire flag can only narrow the server's policy, never widen it:
      // a client cannot force member auto-insert onto a server that forbids
      // it, but may opt out of it for one load.
      opts.auto_insert_members =
          opts.auto_insert_members && request->ingest_auto_insert;
      // Write-ahead durability: the request is logged + fsynced inside
      // Ingestor::Commit, before its epoch publishes — so by the time the
      // kIngestReply receipt below reaches the client, every row it
      // acknowledges survives a crash.
      opts.durability = options_.durability;
      Ingestor ingestor(options_.mutable_db, options_.engine.shared_cache,
                        opts);
      return ingestor.IngestText(request->ingest_cube, request->statement);
    }();
    // No deadline check past this point: rows that committed are answered
    // with their receipt however late, because a kTimeout would invite the
    // client to retry an append that already happened.
    if (!ingested.ok()) {
      fail(ingested.status());
    } else {
      ingest_rows_.fetch_add(ingested->rows_ingested,
                             std::memory_order_relaxed);
      ingest_batches_.fetch_add(ingested->batches, std::memory_order_relaxed);
      type = FrameType::kIngestReply;
      payload = ingested->Serialize();
      ok_responses_.fetch_add(1, std::memory_order_relaxed);
      // Checkpoint trigger — after IngestText returned, so no ingest mutex
      // is held here (Checkpoint takes them all). A failed checkpoint never
      // fails the request: the WAL still covers everything.
      if (options_.durability != nullptr &&
          options_.durability->ShouldCheckpoint()) {
        Status cp = options_.durability->Checkpoint();
        if (!cp.ok()) {
          std::fprintf(stderr, "[assessd] checkpoint failed: %s\n",
                       cp.ToString().c_str());
        }
      }
    }
  } else if (request->explain) {
    if (options_.pre_execute_hook) options_.pre_execute_hook();
    Status injected = FailpointStatus("server.session_execute");
    Result<std::string> rendered =
        injected.ok() ? ExplainAnalyzeStatement(*request->conn->session,
                                                request->statement)
                      : Result<std::string>(injected);
    if (overdue()) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      error_code = StatusCode::kTimeout;
      payload = SerializeStatus(timeout_status("during execution"));
    } else if (!rendered.ok()) {
      fail(rendered.status());
    } else {
      traces_sampled_.fetch_add(1, std::memory_order_relaxed);
      type = FrameType::kExplainReply;
      payload = *std::move(rendered);
      // Surface MQO participation: "\analyze" shows that this statement's
      // scan was shared and how many queries co-executed on it.
      if (!request->mqo_note.empty()) {
        payload += "\n";
        payload += request->mqo_note;
      }
      if (request->trace_id != 0) {
        payload += "\ntrace: " + TraceIdHex(request->trace_id) + "\n";
      }
      ok_responses_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    if (options_.pre_execute_hook) options_.pre_execute_hook();
    Status injected = FailpointStatus("server.session_execute");
    // Slow-query log: trace sampled queries so the dump can show where a
    // slow one spent its time. Off (the default) records no spans at all.
    const bool traced = kTracingCompiledIn && options_.slow_query_ms >= 0 &&
                        SampleTrace();
    TraceContext trace;
    const Clock::time_point exec_start = Clock::now();
    Result<AssessResult> result = [&]() -> Result<AssessResult> {
      if (!injected.ok()) return {injected};
      TraceContext::Scope scope(traced ? &trace : nullptr);
      Span span("query");
      // Root the span tree under the client's trace id: the id the client
      // generated is the id /traces and the slow-query log report.
      if (span.active() && request->trace_id != 0) {
        span.AddString("trace_id", TraceIdHex(request->trace_id));
      }
      return request->conn->session->Query(request->statement);
    }();
    if (overdue()) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      error_code = StatusCode::kTimeout;
      payload = SerializeStatus(timeout_status("during execution"));
    } else if (!result.ok()) {
      fail(result.status());
    } else {
      {
        TraceContext::Scope scope(traced ? &trace : nullptr);
        Span span("wire.serialize");
        payload = SerializeAssessResult(*result);
        span.AddInt("bytes", static_cast<int64_t>(payload.size()));
      }
      if (payload.size() + 1 > options_.max_frame_bytes) {
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "result of %zu bytes exceeds the %zu byte frame limit",
                      payload.size(), options_.max_frame_bytes);
        fail(Status::FrameTooLarge(msg));
      } else {
        type = FrameType::kResult;
        ok_responses_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (traced) {
      traces_sampled_.fetch_add(1, std::memory_order_relaxed);
      trace_spans_.fetch_add(trace.span_count(), std::memory_order_relaxed);
      const double exec_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - exec_start)
              .count();
      if (exec_ms >= static_cast<double>(options_.slow_query_ms)) {
        slow_queries_.fetch_add(1, std::memory_order_relaxed);
        EmitSlowQuery(request->request_id, request->trace_id,
                      request->statement, exec_ms, trace);
      }
      RecordTrace(request->trace_id, request->statement, exec_ms, trace);
    }
  }

  // Ingest receipts: the receipt, and errors that re-derive identically
  // from the same rows, are stored so a retry replays them. A transient
  // outcome (kUnavailable, a timeout in the queue, an injected fault,
  // kInternal) only clears the pending mark, and a retry executes.
  if (request->ingest && request->request_id != 0) {
    bool deterministic = type == FrameType::kIngestReply ||
                         error_code == StatusCode::kInvalidArgument ||
                         error_code == StatusCode::kNotFound ||
                         error_code == StatusCode::kNotSupported ||
                         error_code == StatusCode::kOutOfRange ||
                         error_code == StatusCode::kAlreadyExists ||
                         error_code == StatusCode::kFrameTooLarge;
    if (deterministic) {
      StoreReceipt(request->request_id, type, payload);
    } else {
      ReleaseReceipt(request->request_id);
    }
  }
  return {type, std::move(payload)};
}

bool AssessServer::ClaimReceipt(uint64_t request_id, FrameType* type,
                                std::string* payload) {
  std::lock_guard<std::mutex> lock(receipt_mutex_);
  auto [it, inserted] = receipts_.try_emplace(request_id);
  if (inserted) return true;
  if (it->second.pending) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    *type = FrameType::kError;
    *payload = SerializeStatus(Status::Unavailable(
        "request " + std::to_string(request_id) + " is still executing"));
  } else {
    *type = it->second.type;
    *payload = it->second.payload;
  }
  return false;
}

void AssessServer::StoreReceipt(uint64_t request_id, FrameType type,
                                const std::string& payload) {
  std::lock_guard<std::mutex> lock(receipt_mutex_);
  Receipt& receipt = receipts_[request_id];
  receipt = {false, type, payload};
  receipt_fifo_.push_back(request_id);
  receipt_bytes_held_ += payload.size();
  // FIFO eviction past the entry cap; the byte cap keeps at least the
  // newest entry so one huge receipt cannot disable replay entirely.
  while (receipt_fifo_.size() > kReceiptEntries ||
         (receipt_bytes_held_ > kReceiptBytes && receipt_fifo_.size() > 1)) {
    auto oldest = receipts_.find(receipt_fifo_.front());
    receipt_fifo_.pop_front();
    receipt_bytes_held_ -= oldest->second.payload.size();
    receipts_.erase(oldest);
  }
}

void AssessServer::ReleaseReceipt(uint64_t request_id) {
  std::lock_guard<std::mutex> lock(receipt_mutex_);
  receipts_.erase(request_id);
}

void AssessServer::RecordLatency(double ms) { latency_hist_.Observe(ms); }

bool AssessServer::SampleTrace() {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  return trace_sampler_.Sample();
}

void AssessServer::EmitSlowQuery(uint64_t request_id, uint64_t trace_id,
                                 const std::string& statement, double ms,
                                 const TraceContext& trace) {
  // The sink sits behind a failpoint so chaos tests can make it fail or
  // stall: the response is already produced, so a broken sink only moves a
  // counter — it can never corrupt a result or wedge the session.
  Status emit = FailpointStatus("trace.emit");
  if (!emit.ok()) {
    trace_emit_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::string tree = trace.ToTreeString();
  char prefix[160];
  std::snprintf(prefix, sizeof(prefix),
                "[assessd] slow query request=%llu trace=%s (%.3f ms): ",
                static_cast<unsigned long long>(request_id),
                TraceIdHex(trace_id).c_str(), ms);
  std::string line = prefix;
  line += statement;
  line += "\n";
  line += tree;
  if (options_.slow_query_sink) {
    options_.slow_query_sink(line);
    return;
  }
  std::fprintf(stderr, "%s", line.c_str());
}

void AssessServer::RecordTrace(uint64_t trace_id, const std::string& statement,
                               double ms, const TraceContext& trace) {
  // One ring entry per sampled query: enough identity to join the entry
  // with the client-side trace id and the slow-query log, plus the full
  // span tree in Chrome trace_event form for chrome://tracing / Perfetto.
  std::string entry = "{\"trace_id\":\"";
  entry += TraceIdHex(trace_id);
  entry += "\",\"duration_ms\":";
  char num[48];
  std::snprintf(num, sizeof(num), "%.3f", ms);
  entry += num;
  entry += ",\"statement\":\"";
  AppendJsonEscaped(&entry, statement);
  entry += "\",\"trace\":";
  entry += trace.ToChromeTrace();
  entry += "}";
  std::lock_guard<std::mutex> lock(ring_mutex_);
  trace_ring_.push_back(std::move(entry));
  while (trace_ring_.size() > options_.trace_ring_entries) {
    trace_ring_.pop_front();
  }
}

std::string AssessServer::RenderTracesJson() const {
  std::string out = "{\"traces\":[";
  {
    std::lock_guard<std::mutex> lock(ring_mutex_);
    bool first = true;
    for (const std::string& entry : trace_ring_) {
      if (!first) out += ",";
      first = false;
      out += entry;
    }
  }
  out += "]}";
  return out;
}

ServerStats AssessServer::Snapshot() const {
  ServerStats stats;
  stats.total_requests = total_requests_.load(std::memory_order_relaxed);
  stats.ok_responses = ok_responses_.load(std::memory_order_relaxed);
  stats.error_responses = error_responses_.load(std::memory_order_relaxed);
  stats.rejected_overload =
      rejected_overload_.load(std::memory_order_relaxed);
  stats.timeouts = timeouts_.load(std::memory_order_relaxed);
  stats.worker_threads = workers_.size();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stats.queued = queue_.size();
    stats.in_flight = static_cast<uint64_t>(in_flight_);
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& conn : connections_) {
      if (!conn->done.load()) ++stats.connections;
    }
  }
  stats.p50_ms = latency_hist_.Quantile(0.50);
  stats.p90_ms = latency_hist_.Quantile(0.90);
  stats.p99_ms = latency_hist_.Quantile(0.99);
  stats.latency_samples = latency_hist_.Count();
  stats.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  stats.traces_sampled = traces_sampled_.load(std::memory_order_relaxed);
  stats.trace_spans = trace_spans_.load(std::memory_order_relaxed);
  stats.trace_emit_failures =
      trace_emit_failures_.load(std::memory_order_relaxed);
  stats.ingest_rows = ingest_rows_.load(std::memory_order_relaxed);
  stats.ingest_batches = ingest_batches_.load(std::memory_order_relaxed);
  if (options_.engine.shared_cache) {
    CacheStats cache = options_.engine.shared_cache->stats();
    stats.cache_lookups = cache.lookups;
    stats.cache_exact_hits = cache.exact_hits;
    stats.cache_subsumption_hits = cache.subsumption_hits;
    stats.cache_misses = cache.misses;
    stats.cache_entries = cache.entries;
    stats.cache_bytes = cache.bytes_resident;
    stats.cache_epoch_invalidations = cache.epoch_invalidations;
    stats.cache_subsumption_probes = cache.subsumption_probes;
  }
  if (options_.engine.pool) {
    TaskPoolStats pool = options_.engine.pool->stats();
    stats.pool_workers = pool.workers;
    stats.pool_queue_depth = pool.queue_depth;
    stats.morsels_scanned = pool.morsels_scanned;
    stats.morsels_skipped = pool.morsels_skipped;
    stats.scan_rows_visited = pool.rows_visited;
    stats.scan_rows_passed = pool.rows_passed;
  }
  if (mqo_ != nullptr) {
    const MqoStats mqo = mqo_->stats();
    stats.mqo_batches = mqo.batches;
    stats.mqo_queries_batched = mqo.queries_batched;
    stats.mqo_shared_scans = mqo.shared_scans;
    stats.mqo_queries_piggybacked = mqo.queries_piggybacked;
  }
  if (options_.durability != nullptr) {
    const WalStats wal = options_.durability->wal_stats();
    stats.wal_appends = wal.appends;
    stats.wal_fsyncs = wal.fsyncs;
    stats.wal_bytes = wal.bytes_written;
    stats.checkpoints = options_.durability->checkpoints();
    const RecoveryInfo& rec = options_.durability->recovery();
    stats.recovery_replayed_records = rec.replayed_records;
    stats.recovery_truncated_bytes = rec.truncated_bytes;
  }
  stats.workload_fingerprints = profiler_.fingerprints();
  stats.workload_queries = profiler_.total_queries();
  stats.workload_evictions = profiler_.evicted_fingerprints();
  stats.workload_dropped_samples = profiler_.dropped_samples();
  stats.http_requests = http_ != nullptr ? http_->requests() : 0;
  stats.trace_ids_received = trace_ids_received_.load(std::memory_order_relaxed);
  return stats;
}

std::string AssessServer::RenderMetrics() const {
  std::string out = MetricsRegistry::Instance().RenderPrometheus();
  AppendHistogramExposition(
      &out, "assessd_request_latency_ms",
      "Request latency from admission to response readiness (ms)",
      latency_hist_);
  const ServerStats stats = Snapshot();
  for (const StatsField& field : ServerStatsFields()) {
    // latency_samples is the histogram's own _count sample, rendered above.
    if (field.u64 == &ServerStats::latency_samples) continue;
    char value[32];
    if (field.u64 != nullptr) {
      std::snprintf(value, sizeof(value), "%llu",
                    static_cast<unsigned long long>(stats.*field.u64));
    } else {
      std::snprintf(value, sizeof(value), "%.17g", stats.*field.f64);
    }
    AppendMetricHeader(&out, field.name, field.help,
                       field.kind == StatsField::Kind::kCounter ? "counter"
                                                                 : "gauge");
    out.append(field.name).append(" ").append(value).append("\n");
  }
  return out;
}

}  // namespace assess

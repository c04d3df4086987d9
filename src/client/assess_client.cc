#include "client/assess_client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "assess/wire_format.h"

namespace assess {
namespace {

bool IsRetryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:   // overload, shutdown, torn connection
    case StatusCode::kTimeout:       // deadline: request may still have run
    case StatusCode::kCorruptFrame:  // garbled stream; retry on a fresh one
      return true;
    default:
      return false;
  }
}

void SetSocketDeadline(int fd, int option, int64_t ms) {
  if (ms <= 0) return;
  timeval deadline{};
  deadline.tv_sec = static_cast<time_t>(ms / 1000);
  deadline.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, option, &deadline, sizeof(deadline));
}

uint64_t DeriveSeed() {
  // Only for jitter and request-id uniqueness; determinism-sensitive tests
  // pass an explicit ClientOptions::seed instead.
  auto now = std::chrono::steady_clock::now().time_since_epoch().count();
  return static_cast<uint64_t>(now) ^
         (static_cast<uint64_t>(::getpid()) << 32);
}

}  // namespace

AssessClient::AssessClient(std::string host, uint16_t port,
                           const ClientOptions& options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      rng_(options.seed != 0 ? options.seed : DeriveSeed()) {}

Result<AssessClient> AssessClient::Connect(const std::string& host,
                                           uint16_t port,
                                           ClientOptions options) {
  AssessClient client(host, port, options);
  ASSESS_RETURN_NOT_OK(client.EnsureConnected());
  return client;
}

Result<AssessClient> AssessClient::Connect(const std::string& host,
                                           uint16_t port,
                                           size_t max_frame_bytes) {
  ClientOptions options;
  options.max_frame_bytes = max_frame_bytes;
  return Connect(host, port, options);
}

AssessClient::AssessClient(AssessClient&& other) noexcept
    : host_(std::move(other.host_)),
      port_(other.port_),
      options_(other.options_),
      rng_(other.rng_),
      prev_backoff_ms_(other.prev_backoff_ms_),
      last_trace_id_(other.last_trace_id_),
      fd_(std::exchange(other.fd_, -1)) {}

AssessClient& AssessClient::operator=(AssessClient&& other) noexcept {
  if (this != &other) {
    Close();
    host_ = std::move(other.host_);
    port_ = other.port_;
    options_ = other.options_;
    rng_ = other.rng_;
    prev_backoff_ms_ = other.prev_backoff_ms_;
    last_trace_id_ = other.last_trace_id_;
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

AssessClient::~AssessClient() { Close(); }

void AssessClient::Close() {
  CloseSocket(fd_);
  fd_ = -1;
}

Status AssessClient::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  ASSESS_ASSIGN_OR_RETURN(
      int fd, ConnectTo(host_, port_, options_.connect_timeout_ms));
  SetSocketDeadline(fd, SO_RCVTIMEO, options_.read_timeout_ms);
  SetSocketDeadline(fd, SO_SNDTIMEO, options_.write_timeout_ms);
  fd_ = fd;
  return Status::OK();
}

uint64_t AssessClient::NextRequestId() {
  uint64_t id = 0;
  while (id == 0) id = rng_.Next();  // 0 means "no receipt" on the wire
  return id;
}

uint64_t AssessClient::NextTraceId() {
  if (!options_.trace_ids) return 0;
  uint64_t id = 0;
  while (id == 0) id = rng_.Next();  // 0 means "untraced" on the wire
  return id;
}

Status AssessClient::RoundTrip(FrameType request, std::string_view payload,
                               FrameType expected, std::string* response,
                               uint64_t trace_id) {
  if (fd_ < 0) return Status::Unavailable("client is not connected");
  Status written = WriteFrame(fd_, request, payload, trace_id);
  if (!written.ok()) {
    Close();  // a half-sent frame desynchronizes the stream
    return written;
  }
  Frame frame;
  Status read = ReadFrame(fd_, options_.max_frame_bytes, &frame);
  if (!read.ok()) {
    // A dead, expired or desynchronized connection is unusable from here on
    // (after a read deadline the response may still arrive, mid-stream).
    Close();
    return read;
  }
  if (frame.type == FrameType::kError) {
    Status remote = Status::OK();
    Status decoded = DeserializeStatus(frame.payload, &remote);
    if (!decoded.ok()) {
      Close();
      return decoded.WithContext("undecodable error response");
    }
    if (remote.code() == StatusCode::kCorruptFrame) {
      // The server read garbage from us; what we send next could land
      // mid-frame. Start over on a fresh connection.
      Close();
    }
    return remote;  // typed server-side error; the connection stays usable
  }
  if (frame.type != expected) {
    Close();
    return Status::Internal("unexpected response frame type");
  }
  *response = std::move(frame.payload);
  return Status::OK();
}

Status AssessClient::RoundTripWithRetry(FrameType request,
                                        std::string_view payload,
                                        FrameType expected,
                                        std::string* response,
                                        uint64_t trace_id) {
  prev_backoff_ms_ = 0;
  Status last = Status::OK();
  for (int attempt = 0;; ++attempt) {
    last = EnsureConnected();
    if (last.ok()) {
      last = RoundTrip(request, payload, expected, response, trace_id);
    }
    if (last.ok() || !IsRetryable(last) || attempt >= options_.max_retries) {
      return last;
    }
    // Decorrelated jitter: sleep uniform in [base, 3 * previous], capped —
    // retries spread out instead of synchronizing into retry storms.
    int64_t base = std::max<int64_t>(1, options_.backoff_base_ms);
    int64_t upper = std::max(base + 1, prev_backoff_ms_ * 3);
    int64_t sleep_ms = std::min(options_.backoff_cap_ms,
                                rng_.UniformRange(base, upper));
    prev_backoff_ms_ = sleep_ms;
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
}

Result<AssessResult> AssessClient::Query(std::string_view statement) {
  // One request id and one trace id for all attempts of this call, so
  // every retry of this query tells the same story in the server's logs and
  // trace artifacts. Each attempt executes: a query only reads.
  std::string request = EncodeQueryPayload(NextRequestId(), statement);
  last_trace_id_ = NextTraceId();
  std::string payload;
  ASSESS_RETURN_NOT_OK(RoundTripWithRetry(FrameType::kQuery, request,
                                          FrameType::kResult, &payload,
                                          last_trace_id_));
  return DeserializeAssessResult(payload);
}

Result<ServerStats> AssessClient::Stats() {
  std::string payload;
  ASSESS_RETURN_NOT_OK(RoundTripWithRetry(FrameType::kStats, {},
                                          FrameType::kStatsReply, &payload));
  return ServerStats::Deserialize(payload);
}

Result<std::string> AssessClient::Metrics() {
  std::string payload;
  ASSESS_RETURN_NOT_OK(RoundTripWithRetry(FrameType::kMetrics, {},
                                          FrameType::kMetricsReply, &payload));
  return payload;
}

Result<std::string> AssessClient::ExplainAnalyze(std::string_view statement) {
  // Deliberately no retry loop: a timing measurement that silently ran
  // twice would be misleading, and the statement may be expensive.
  ASSESS_RETURN_NOT_OK(EnsureConnected());
  std::string request = EncodeQueryPayload(NextRequestId(), statement);
  last_trace_id_ = NextTraceId();
  std::string payload;
  ASSESS_RETURN_NOT_OK(RoundTrip(FrameType::kExplainAnalyze, request,
                                 FrameType::kExplainReply, &payload,
                                 last_trace_id_));
  return payload;
}

Result<IngestStats> AssessClient::Ingest(std::string_view cube,
                                         std::string_view text,
                                         IngestFormat format,
                                         bool auto_insert) {
  // One id across attempts: the server's receipt store turns a retried
  // ingest into a replay of its stored receipt, so the rows land at most
  // once no matter which side of the exchange got lost.
  std::string request = EncodeIngestPayload(
      NextRequestId(), cube, format,
      auto_insert ? kIngestFlagAutoInsert : uint8_t{0}, text);
  std::string payload;
  ASSESS_RETURN_NOT_OK(RoundTripWithRetry(FrameType::kIngest, request,
                                          FrameType::kIngestReply, &payload));
  return IngestStats::Deserialize(payload);
}

Status AssessClient::Ping() {
  std::string payload;
  return RoundTripWithRetry(FrameType::kPing, {}, FrameType::kPong, &payload);
}

Result<std::string> AssessClient::Failpoint(std::string_view spec) {
  ASSESS_RETURN_NOT_OK(EnsureConnected());
  std::string payload;
  ASSESS_RETURN_NOT_OK(RoundTrip(FrameType::kFailpoint, spec,
                                 FrameType::kFailpointReply, &payload));
  return payload;
}

}  // namespace assess

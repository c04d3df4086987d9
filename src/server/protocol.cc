#include "server/protocol.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/wire_codec.h"

namespace assess {
namespace {

Status SendAll(int fd, const char* data, size_t len) {
  size_t written = 0;
  while (written < len) {
    ssize_t n = ::send(fd, data + written, len - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Timeout("send deadline exceeded");
      }
      return Status::Unavailable(std::string("send failed: ") +
                                 std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `len` bytes. `*eof` is set when the peer closed cleanly
/// before the first byte (only meaningful on a non-OK return).
Status RecvAll(int fd, char* data, size_t len, bool* eof) {
  *eof = false;
  size_t read = 0;
  while (read < len) {
    ssize_t n = ::recv(fd, data + read, len - read, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Timeout("recv deadline exceeded");
      }
      return Status::Unavailable(std::string("recv failed: ") +
                                 std::strerror(errno));
    }
    if (n == 0) {
      *eof = read == 0;
      return Status::Unavailable(read == 0 ? "connection closed"
                                           : "connection closed mid-frame");
    }
    read += static_cast<size_t>(n);
  }
  return Status::OK();
}

void PutU32Le(char* out, uint32_t v) {
  out[0] = static_cast<char>(v & 0xFF);
  out[1] = static_cast<char>((v >> 8) & 0xFF);
  out[2] = static_cast<char>((v >> 16) & 0xFF);
  out[3] = static_cast<char>((v >> 24) & 0xFF);
}

uint32_t GetU32Le(const char* in) {
  return static_cast<uint32_t>(static_cast<uint8_t>(in[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(in[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(in[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(in[3])) << 24;
}

bool IsKnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kQuery:
    case FrameType::kStats:
    case FrameType::kPing:
    case FrameType::kFailpoint:
    case FrameType::kMetrics:
    case FrameType::kExplainAnalyze:
    case FrameType::kResult:
    case FrameType::kError:
    case FrameType::kStatsReply:
    case FrameType::kPong:
    case FrameType::kFailpointReply:
    case FrameType::kMetricsReply:
    case FrameType::kExplainReply:
    case FrameType::kIngest:
    case FrameType::kIngestReply:
      return true;
  }
  return false;
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload,
                        uint64_t trace_id) {
  std::string buf;
  const size_t id_bytes = trace_id != 0 ? 8 : 0;
  buf.reserve(9 + id_bytes + payload.size());
  char header[5];
  PutU32Le(header, static_cast<uint32_t>(payload.size() + id_bytes + 1));
  header[4] = static_cast<char>(static_cast<uint8_t>(type) |
                                (trace_id != 0 ? kFrameTraceIdFlag : 0));
  buf.append(header, 5);
  for (size_t i = 0; i < id_bytes; ++i) {
    buf.push_back(static_cast<char>((trace_id >> (8 * i)) & 0xFF));
  }
  buf.append(payload.data(), payload.size());
  // The trailer covers type + payload; the length prefix stays outside so
  // that a corrupted body is *detected* rather than desynchronizing the
  // stream (see the header comment).
  char trailer[4];
  PutU32Le(trailer, Crc32c(buf.data() + 4, buf.size() - 4));
  buf.append(trailer, 4);
  return buf;
}

Status WriteFrame(int fd, FrameType type, std::string_view payload,
                  uint64_t trace_id) {
  if (payload.size() + 9 > UINT32_MAX) {
    return Status::InvalidArgument("frame payload too large");
  }
  std::string buf = EncodeFrame(type, payload, trace_id);
  // Fault injection: flip bytes past the length prefix of an outgoing
  // frame, so the receiver's CRC check must catch it.
  ASSESS_FAILPOINT_CORRUPT("net.write_frame", &buf, 4);
  return SendAll(fd, buf.data(), buf.size());
}

Status ReadFrame(int fd, size_t max_frame_bytes, Frame* out) {
  char header[5];
  bool eof = false;
  ASSESS_RETURN_NOT_OK(RecvAll(fd, header, 4, &eof));
  uint32_t length = GetU32Le(header);
  if (length == 0) {
    return Status::InvalidArgument("frame with zero length");
  }
  if (length > max_frame_bytes) {
    char msg[64];
    std::snprintf(msg, sizeof(msg), "frame of %u bytes exceeds limit %zu",
                  length, max_frame_bytes);
    return Status::FrameTooLarge(msg);
  }
  ASSESS_RETURN_NOT_OK(RecvAll(fd, header + 4, 1, &eof));
  uint8_t type = static_cast<uint8_t>(header[4]);
  out->payload.resize(length - 1);
  if (length > 1) {
    ASSESS_RETURN_NOT_OK(RecvAll(fd, out->payload.data(), length - 1, &eof));
  }
  char trailer[4];
  ASSESS_RETURN_NOT_OK(RecvAll(fd, trailer, 4, &eof));
  uint32_t crc = Crc32cExtend(Crc32c(header + 4, 1), out->payload.data(),
                              out->payload.size());
  if (crc != GetU32Le(trailer)) {
    return Status::CorruptFrame("frame failed its CRC32C integrity check");
  }
  // Type validation after the CRC: a flipped type byte is corruption, not a
  // protocol violation by the peer.
  out->trace_id = 0;
  if ((type & kFrameTraceIdFlag) != 0) {
    const uint8_t base = type & static_cast<uint8_t>(~kFrameTraceIdFlag);
    if (!IsKnownFrameType(base)) {
      return Status::InvalidArgument("unknown frame type");
    }
    if (out->payload.size() < 8) {
      return Status::InvalidArgument("traced frame too short for its id");
    }
    uint64_t id = 0;
    for (int i = 0; i < 8; ++i) {
      id |= static_cast<uint64_t>(static_cast<uint8_t>(out->payload[i]))
            << (8 * i);
    }
    out->trace_id = id;
    out->payload.erase(0, 8);
    out->type = static_cast<FrameType>(base);
    return Status::OK();
  }
  if (!IsKnownFrameType(type)) {
    return Status::InvalidArgument("unknown frame type");
  }
  out->type = static_cast<FrameType>(type);
  return Status::OK();
}

std::string EncodeQueryPayload(uint64_t request_id,
                               std::string_view statement) {
  std::string payload;
  payload.reserve(8 + statement.size());
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<char>((request_id >> (8 * i)) & 0xFF));
  }
  payload.append(statement.data(), statement.size());
  return payload;
}

Status DecodeQueryPayload(std::string_view payload, uint64_t* request_id,
                          std::string_view* statement) {
  if (payload.size() < 8) {
    return Status::InvalidArgument(
        "query frame too short for its request id");
  }
  uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<uint64_t>(static_cast<uint8_t>(payload[i])) << (8 * i);
  }
  *request_id = id;
  *statement = payload.substr(8);
  return Status::OK();
}

std::string EncodeIngestPayload(uint64_t request_id, std::string_view cube,
                                IngestFormat format, uint8_t flags,
                                std::string_view text) {
  std::string payload;
  payload.reserve(12 + cube.size() + text.size());
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<char>((request_id >> (8 * i)) & 0xFF));
  }
  uint16_t cube_len = static_cast<uint16_t>(cube.size());
  payload.push_back(static_cast<char>(cube_len & 0xFF));
  payload.push_back(static_cast<char>((cube_len >> 8) & 0xFF));
  payload.append(cube.data(), cube.size());
  payload.push_back(static_cast<char>(format));
  payload.push_back(static_cast<char>(flags));
  payload.append(text.data(), text.size());
  return payload;
}

Status DecodeIngestPayload(std::string_view payload, uint64_t* request_id,
                           std::string_view* cube, IngestFormat* format,
                           uint8_t* flags, std::string_view* text) {
  if (payload.size() < 10) {
    return Status::InvalidArgument("ingest frame too short for its header");
  }
  uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<uint64_t>(static_cast<uint8_t>(payload[i])) << (8 * i);
  }
  size_t cube_len = static_cast<size_t>(static_cast<uint8_t>(payload[8])) |
                    static_cast<size_t>(static_cast<uint8_t>(payload[9])) << 8;
  if (payload.size() < 12 + cube_len) {
    return Status::InvalidArgument("ingest frame truncated in its cube name");
  }
  uint8_t format_byte = static_cast<uint8_t>(payload[10 + cube_len]);
  if (format_byte != static_cast<uint8_t>(IngestFormat::kCsv) &&
      format_byte != static_cast<uint8_t>(IngestFormat::kJsonl)) {
    return Status::InvalidArgument("ingest frame has an unknown format byte");
  }
  *request_id = id;
  *cube = payload.substr(10, cube_len);
  *format = static_cast<IngestFormat>(format_byte);
  *flags = static_cast<uint8_t>(payload[11 + cube_len]);
  *text = payload.substr(12 + cube_len);
  return Status::OK();
}

Result<ListenSocket> ListenOn(const std::string& host, uint16_t port,
                              int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket failed: ") +
                               std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    CloseSocket(fd);
    return Status::InvalidArgument("cannot parse listen address '" + host +
                                   "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Status::Unavailable(std::string("bind failed: ") +
                                    std::strerror(errno));
    CloseSocket(fd);
    return st;
  }
  if (::listen(fd, backlog) < 0) {
    Status st = Status::Unavailable(std::string("listen failed: ") +
                                    std::strerror(errno));
    CloseSocket(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    Status st = Status::Unavailable(std::string("getsockname failed: ") +
                                    std::strerror(errno));
    CloseSocket(fd);
    return st;
  }
  return ListenSocket{fd, ntohs(bound.sin_port)};
}

namespace {

/// Bounded TCP handshake: non-blocking connect, poll for writability, then
/// SO_ERROR to read the handshake's outcome. Returns kTimeout when the
/// deadline expires first.
Status ConnectWithDeadline(int fd, const sockaddr* addr, socklen_t addrlen,
                           int64_t timeout_ms) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Unavailable(std::string("fcntl failed: ") +
                               std::strerror(errno));
  }
  int rc = ::connect(fd, addr, addrlen);
  if (rc < 0 && errno != EINPROGRESS) {
    return Status::Unavailable(std::string("connect failed: ") +
                               std::strerror(errno));
  }
  if (rc < 0) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int ready;
    do {
      ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) {
      return Status::Unavailable(std::string("poll failed: ") +
                                 std::strerror(errno));
    }
    if (ready == 0) {
      char msg[64];
      std::snprintf(msg, sizeof(msg), "connect timed out after %lld ms",
                    static_cast<long long>(timeout_ms));
      return Status::Timeout(msg);
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0 ||
        err != 0) {
      return Status::Unavailable(std::string("connect failed: ") +
                                 std::strerror(err != 0 ? err : errno));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return Status::Unavailable(std::string("fcntl failed: ") +
                               std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Result<int> ConnectTo(const std::string& host, uint16_t port,
                      int64_t timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  char port_text[8];
  std::snprintf(port_text, sizeof(port_text), "%u", port);
  int rc = ::getaddrinfo(host.c_str(), port_text, &hints, &resolved);
  if (rc != 0) {
    return Status::Unavailable("cannot resolve '" + host +
                               "': " + gai_strerror(rc));
  }
  Status last = Status::Unavailable("no addresses for '" + host + "'");
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    Status connected;
    if (timeout_ms > 0) {
      connected = ConnectWithDeadline(fd, ai->ai_addr, ai->ai_addrlen,
                                      timeout_ms);
    } else if (::connect(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      connected = Status::Unavailable(std::string("connect failed: ") +
                                      std::strerror(errno));
    }
    if (connected.ok()) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(resolved);
      return fd;
    }
    last = connected.WithContext("connect to " + host + ":" + port_text);
    CloseSocket(fd);
  }
  ::freeaddrinfo(resolved);
  return last;
}

void CloseSocket(int fd) {
  if (fd < 0) return;
  while (::close(fd) < 0 && errno == EINTR) {
  }
}

// ---------------------------------------------------------------------------
// ServerStats
// ---------------------------------------------------------------------------

namespace {

constexpr StatsField::Kind kCounter = StatsField::Kind::kCounter;
constexpr StatsField::Kind kGauge = StatsField::Kind::kGauge;
using S = ServerStats;

// Series that predate the table keep their names (assess_* for the engine,
// cache and WAL layers); everything else is assessd_*.
constexpr StatsField kStatsFields[] = {
    {"server", "assessd_requests_total", "Query frames admitted or rejected",
     kCounter, &S::total_requests},
    {"server", "assessd_responses_ok_total", "kResult responses sent",
     kCounter, &S::ok_responses},
    {"server", "assessd_responses_error_total", "kError responses sent",
     kCounter, &S::error_responses},
    {"server", "assessd_rejected_overload_total",
     "Admission-control rejections", kCounter, &S::rejected_overload},
    {"server", "assessd_timeouts_total", "Per-request deadline violations",
     kCounter, &S::timeouts},
    {"load", "assessd_queued", "Requests waiting for a worker", kGauge,
     &S::queued},
    {"load", "assessd_in_flight", "Requests executing right now", kGauge,
     &S::in_flight},
    {"load", "assessd_connections", "Open client connections", kGauge,
     &S::connections},
    {"load", "assessd_worker_threads", "Size of the worker pool", kGauge,
     &S::worker_threads},
    {"request_latency", "assessd_request_latency_p50_ms",
     "Median request latency (ms)", kGauge, &S::p50_ms},
    {"request_latency", "assessd_request_latency_p90_ms",
     "90th-percentile request latency (ms)", kGauge, &S::p90_ms},
    {"request_latency", "assessd_request_latency_p99_ms",
     "99th-percentile request latency (ms)", kGauge, &S::p99_ms},
    {"request_latency", "assessd_request_latency_ms_count",
     "Requests in the latency histogram", kCounter, &S::latency_samples},
    {"cache", "assess_cache_lookups_total", "Shared result-cache lookups",
     kCounter, &S::cache_lookups},
    {"cache", "assessd_cache_exact_hits_total", "Result-cache exact hits",
     kCounter, &S::cache_exact_hits},
    {"cache", "assessd_cache_subsumption_hits_total",
     "Result-cache hits answered by rolling up a finer entry", kCounter,
     &S::cache_subsumption_hits},
    {"cache", "assessd_cache_misses_total", "Result-cache misses", kCounter,
     &S::cache_misses},
    {"cache", "assessd_cache_entries", "Resident result-cache entries",
     kGauge, &S::cache_entries},
    {"cache", "assessd_cache_bytes", "Resident result-cache bytes", kGauge,
     &S::cache_bytes},
    {"cache", "assess_cache_epoch_invalidations_total",
     "Cached results swept because their cube advanced past their epoch",
     kCounter, &S::cache_epoch_invalidations},
    {"cache", "assessd_cache_subsumption_probes_total",
     "Cache entries the subsumption lookup tested as candidates", kCounter,
     &S::cache_subsumption_probes},
    {"engine", "assessd_pool_workers", "Shared task pool worker threads",
     kGauge, &S::pool_workers},
    {"engine", "assessd_pool_queue_depth", "Scan jobs with unclaimed morsels",
     kGauge, &S::pool_queue_depth},
    {"engine", "assess_morsels_scanned_total", "Morsels aggregated",
     kCounter, &S::morsels_scanned},
    {"engine", "assess_morsels_skipped_total",
     "Morsels skipped because no row of them can pass the slice", kCounter,
     &S::morsels_skipped},
    {"engine", "assess_scan_rows_visited_total",
     "Source rows the scans visited", kCounter, &S::scan_rows_visited},
    {"engine", "assess_scan_rows_passed_total",
     "Visited rows that passed the scans' predicates", kCounter,
     &S::scan_rows_passed},
    {"obs", "assessd_slow_queries_total",
     "Queries at or over the slow-query threshold", kCounter,
     &S::slow_queries},
    {"obs", "assessd_traces_sampled_total", "Queries executed under a trace",
     kCounter, &S::traces_sampled},
    {"obs", "assessd_trace_spans_total",
     "Spans recorded across sampled traces", kCounter, &S::trace_spans},
    {"obs", "assessd_trace_emit_failures_total",
     "Slow-query dumps dropped by a failing sink", kCounter,
     &S::trace_emit_failures},
    {"obs", "assessd_trace_ids_received_total",
     "Query frames carrying a client-generated trace id", kCounter,
     &S::trace_ids_received},
    {"obs", "assessd_http_requests_total",
     "Observability HTTP requests served, error responses included",
     kCounter, &S::http_requests},
    {"ingest", "assessd_ingest_rows_total", "Fact rows appended via kIngest",
     kCounter, &S::ingest_rows},
    {"ingest", "assessd_ingest_batches_total",
     "Epoch-stamped commits made by kIngest", kCounter, &S::ingest_batches},
    {"wal", "assess_wal_appends_total", "WAL records appended", kCounter,
     &S::wal_appends},
    {"wal", "assess_wal_fsyncs_total", "WAL fsync(2) calls issued", kCounter,
     &S::wal_fsyncs},
    {"wal", "assess_wal_bytes_total", "Framed bytes appended to the WAL",
     kCounter, &S::wal_bytes},
    {"wal", "assess_checkpoints_total", "Checkpoints published", kCounter,
     &S::checkpoints},
    {"wal", "assess_wal_replayed_records_total",
     "WAL records replayed by startup recovery", kCounter,
     &S::recovery_replayed_records},
    {"wal", "assess_wal_truncated_bytes_total",
     "Torn-tail WAL bytes dropped by startup recovery", kCounter,
     &S::recovery_truncated_bytes},
    {"mqo", "assessd_mqo_batches_total",
     "MQO flushes holding at least two queries", kCounter, &S::mqo_batches},
    {"mqo", "assessd_mqo_queries_batched_total",
     "Queries flushed in multi-query MQO batches", kCounter,
     &S::mqo_queries_batched},
    {"mqo", "assessd_mqo_shared_scans_total", "Shared-scan group executions",
     kCounter, &S::mqo_shared_scans},
    {"mqo", "assessd_mqo_queries_piggybacked_total",
     "Queries answered by a batch-mate's shared scan", kCounter,
     &S::mqo_queries_piggybacked},
    {"workload", "assessd_workload_fingerprints",
     "Fingerprints currently profiled", kGauge, &S::workload_fingerprints},
    {"workload", "assessd_workload_queries_total",
     "Queries folded into the workload profile", kCounter,
     &S::workload_queries},
    {"workload", "assessd_workload_evictions_total",
     "Fingerprints evicted by the LRU cap", kCounter, &S::workload_evictions},
    {"workload", "assessd_workload_dropped_samples_total",
     "Workload samples dropped by the obs.profile failpoint", kCounter,
     &S::workload_dropped_samples},
};

constexpr uint8_t kStatsMagic = 'T';
constexpr uint8_t kStatsFormat = 0x08;
constexpr uint8_t kValueVarint = 0;
constexpr uint8_t kValueF64 = 1;
constexpr size_t kMaxStatsNameBytes = 64;
// Bounds the duplicate check; a peer with several times this table's rows
// still fits.
constexpr size_t kMaxStatsPairs = 256;

}  // namespace

std::span<const StatsField> ServerStatsFields() { return kStatsFields; }

std::string ServerStats::Serialize() const {
  std::string out = {static_cast<char>(kStatsMagic),
                     static_cast<char>(kStatsFormat)};
  PutVarint(&out, std::size(kStatsFields));
  for (const StatsField& field : kStatsFields) {
    PutString(&out, field.name);
    if (field.u64 != nullptr) {
      out.push_back(static_cast<char>(kValueVarint));
      PutVarint(&out, this->*field.u64);
    } else {
      out.push_back(static_cast<char>(kValueF64));
      PutDouble(&out, this->*field.f64);
    }
  }
  return out;
}

Result<ServerStats> ServerStats::Deserialize(std::string_view data) {
  WireReader reader(data);
  uint8_t magic = 0;
  uint8_t format = 0;
  uint64_t count = 0;
  ASSESS_RETURN_NOT_OK(reader.GetByte(&magic));
  ASSESS_RETURN_NOT_OK(reader.GetByte(&format));
  if (magic != kStatsMagic || format != kStatsFormat) {
    return Status::InvalidArgument("stats: bad magic or format");
  }
  ASSESS_RETURN_NOT_OK(reader.GetVarint(&count));
  if (count > kMaxStatsPairs) {
    return Status::InvalidArgument("stats: too many pairs");
  }
  std::array<std::string_view, kMaxStatsPairs> seen;
  ServerStats stats;
  for (size_t i = 0; i < count; ++i) {
    uint64_t name_len = 0;
    std::string_view name;
    uint8_t type = 0;
    ASSESS_RETURN_NOT_OK(reader.GetVarint(&name_len));
    if (name_len == 0 || name_len > kMaxStatsNameBytes) {
      return Status::InvalidArgument("stats: bad name length");
    }
    ASSESS_RETURN_NOT_OK(reader.GetView(name_len, &name));
    if (std::find(seen.begin(), seen.begin() + i, name) != seen.begin() + i) {
      return Status::InvalidArgument("stats: duplicate name");
    }
    seen[i] = name;
    ASSESS_RETURN_NOT_OK(reader.GetByte(&type));
    uint64_t u64 = 0;
    double f64 = 0.0;
    if (type == kValueF64) {
      ASSESS_RETURN_NOT_OK(reader.GetDouble(&f64));
    } else if (type == kValueVarint) {
      ASSESS_RETURN_NOT_OK(reader.GetVarint(&u64));
    } else {
      return Status::InvalidArgument("stats: unknown value type");
    }
    const StatsField* field = std::find_if(
        std::begin(kStatsFields), std::end(kStatsFields),
        [name](const StatsField& f) { return name == f.name; });
    if (field == std::end(kStatsFields)) continue;  // a newer peer's field
    if ((type == kValueF64) != (field->f64 != nullptr)) {
      return Status::InvalidArgument("stats: value type does not match");
    }
    if (field->f64 != nullptr) {
      stats.*field->f64 = f64;
    } else {
      stats.*field->u64 = u64;
    }
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("stats: trailing bytes");
  }
  return stats;
}

std::string ServerStats::ToString() const {
  std::string out;
  std::string_view section;
  for (const StatsField& field : kStatsFields) {
    // The label is the series name less its assess(d)_ prefix, _total
    // suffix and section: assess_wal_appends_total prints as "appends".
    std::string_view label = field.name;
    label.remove_prefix(label.find('_') + 1);
    if (label.ends_with("_total")) label.remove_suffix(6);
    const size_t section_len = std::strlen(field.section);
    if (label.size() > section_len && label.starts_with(field.section) &&
        label[section_len] == '_') {
      label.remove_prefix(section_len + 1);
    }
    if (field.section != section) {
      out.append(section.empty() ? "" : "\n").append(field.section) += ':';
      section = field.section;
    } else {
      out += ',';
    }
    char value[32];
    if (field.u64 != nullptr) {
      std::snprintf(value, sizeof(value), " %llu",
                    static_cast<unsigned long long>(this->*field.u64));
    } else {
      std::snprintf(value, sizeof(value), " %.3f", this->*field.f64);
    }
    out.append(" ").append(label).append(value);
  }
  std::replace(out.begin(), out.end(), '_', ' ');
  char hit_rate[48];
  std::snprintf(hit_rate, sizeof(hit_rate), "\ncache hit rate: %.1f%%",
                100.0 * cache_hit_rate());
  return out + hit_rate;
}

}  // namespace assess

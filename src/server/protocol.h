#ifndef ASSESS_SERVER_PROTOCOL_H_
#define ASSESS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"
#include "ingest/ingest.h"

namespace assess {

/// \brief The assessd wire protocol: a length-prefixed framed request /
/// response exchange over TCP, shared by the server (src/server/assessd.h)
/// and the client library (src/client/assess_client.h).
///
/// Frame layout (all on-wire integers little-endian):
///
///   frame := length(u32 LE) | type(u8) | payload(length - 1 bytes)
///          | crc32c(u32 LE)
///
/// `length` counts the type byte plus the payload, so a valid frame has
/// length >= 1; frames whose length exceeds the configured maximum
/// (kDefaultMaxFrameBytes unless overridden) are rejected with
/// kFrameTooLarge without reading the payload — the peer cannot make the
/// receiver allocate unboundedly. The trailer is the CRC32C of the type
/// byte plus the payload; a mismatch surfaces as a typed kCorruptFrame
/// error instead of a garbled result, so bit flips anywhere between the
/// peers are detected, not silently decoded. (The length prefix is not
/// covered: a corrupted length either trips the cap, fails the shifted
/// CRC check, or leaves the receiver waiting — which the client-side read
/// deadline converts into a retryable kTimeout.)
///
/// Exchange model: strict request/response per connection. The client sends
/// one request frame and reads exactly one response frame before sending the
/// next; the server serves many connections concurrently but at most one
/// in-flight request per connection.
///
///   request  kQuery  payload = request_id(u64 LE) | statement (UTF-8 text)
///            kStats  payload empty; server answers with kStatsReply
///            kPing   payload empty; liveness probe
///            kFailpoint payload = failpoint spec (common/failpoint.h);
///                     admin frame, refused unless the server allows it
///            kMetrics payload empty; admin frame answered with the
///                     Prometheus-style text exposition of the process
///                     metrics registry plus this server's own series
///            kExplainAnalyze payload = request_id(u64 LE) | statement;
///                     executes like kQuery but under a trace, answering
///                     with the rendered EXPLAIN ANALYZE text
///   request  kIngest payload = request_id(u64 LE) | cube_len(u16 LE) |
///                     cube name | format(u8, IngestFormat) | flags(u8,
///                     bit0 = auto-insert members) | row text (CSV/JSONL).
///                     Streams rows into the served database; refused with
///                     kNotSupported unless the server was started with an
///                     ingest-enabled (mutable) database. The request id is
///                     its idempotency key (see below).
///   response kResult payload = SerializeAssessResult bytes
///            kError  payload = SerializeStatus bytes (typed code + message)
///            kStatsReply payload = ServerStats::Serialize bytes (named
///                     (name, value) pairs from the ServerStats field table)
///            kPong   payload empty
///            kFailpointReply payload = armed-failpoint listing (text)
///            kMetricsReply payload = metrics exposition (text)
///            kExplainReply payload = EXPLAIN ANALYZE rendering (text)
///            kIngestReply payload = IngestStats::Serialize bytes
///
/// Request ids: a nonzero id names one logical request across retries and
/// reconnections (the slow-query log quotes it). Reads re-execute, ingests
/// replay their receipt: kQuery and kExplainAnalyze write nothing, so the
/// server runs every arrival again. A kIngest id is an idempotency key:
/// the server stores the reply of an id it has answered and replays it to a
/// retry instead of appending the rows twice, and answers kUnavailable to a
/// retry that arrives while the first attempt still executes. Id 0 opts out.
///
/// Malformed traffic (length 0, oversized length, unknown type, truncated
/// frame, CRC mismatch, garbage) terminates only the offending connection:
/// the server answers with a typed kError frame when the stream is still
/// framable and closes the socket, leaving every other connection serving.
enum class FrameType : uint8_t {
  kQuery = 0x01,
  kStats = 0x02,
  kPing = 0x03,
  kFailpoint = 0x04,
  kMetrics = 0x05,
  kExplainAnalyze = 0x06,
  kIngest = 0x07,
  // 0x08 and 0x19 are retired (a former workload-report request/reply pair)
  // and must not be reused: decoders refuse them as unknown types.
  kResult = 0x11,
  kError = 0x12,
  kStatsReply = 0x13,
  kPong = 0x14,
  kFailpointReply = 0x15,
  kMetricsReply = 0x16,
  kExplainReply = 0x17,
  kIngestReply = 0x18,
};

/// Wire versioning of the trace-id extension: a frame whose type byte has
/// this bit set carries a u64 LE trace id as the first 8 payload bytes
/// (inside the length and the CRC trailer, so framing and integrity are
/// unchanged). Decoders that predate the extension reject the flagged type
/// byte as an unknown frame type and close only that connection — exactly
/// the contract for traffic from a newer peer — while new decoders strip
/// the flag, extract the id into Frame::trace_id, and hand the payload on
/// unchanged. A trace id of 0 means "untraced" and is sent without the flag,
/// so old servers and new clients interoperate whenever tracing is off.
inline constexpr uint8_t kFrameTraceIdFlag = 0x80;

/// Frames larger than this are protocol violations by default; both sides
/// take the cap as a parameter so deployments can raise it.
inline constexpr size_t kDefaultMaxFrameBytes = size_t{16} << 20;  // 16 MiB

/// The port assessd binds when none is given (0 picks an ephemeral port).
inline constexpr uint16_t kDefaultPort = 7117;

/// \brief One decoded frame.
struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
  /// The trace id carried by the kFrameTraceIdFlag extension; 0 when the
  /// frame was untraced.
  uint64_t trace_id = 0;
};

/// \brief Builds the full wire bytes of one frame — length prefix, type,
/// payload and CRC32C trailer. Shared by WriteFrame and by tests that need
/// to splice valid (or deliberately damaged) frames onto a raw socket.
/// A nonzero `trace_id` sets kFrameTraceIdFlag on the type byte and
/// prefixes the payload with the u64 LE id.
std::string EncodeFrame(FrameType type, std::string_view payload,
                        uint64_t trace_id = 0);

/// \brief Writes one frame to `fd`, looping over partial sends and EINTR.
/// Uses MSG_NOSIGNAL, so writing to a dead peer yields kUnavailable rather
/// than SIGPIPE; a socket send deadline (SO_SNDTIMEO) that expires yields
/// kTimeout. A nonzero `trace_id` is carried via kFrameTraceIdFlag.
Status WriteFrame(int fd, FrameType type, std::string_view payload,
                  uint64_t trace_id = 0);

/// \brief Reads one frame from `fd` into `*out`.
///
/// Returns kUnavailable("connection closed") on a clean close at a frame
/// boundary, kUnavailable("...mid-frame...") when the peer vanished partway
/// through a frame, kTimeout when a socket receive deadline (SO_RCVTIMEO)
/// expires, kFrameTooLarge when the announced length exceeds
/// `max_frame_bytes`, kCorruptFrame when the CRC32C trailer does not match
/// the received bytes, and kInvalidArgument when the stream is otherwise
/// unframable (length 0, unknown frame type). On every non-OK return except
/// kTimeout the stream is untrustworthy and the caller should close it.
Status ReadFrame(int fd, size_t max_frame_bytes, Frame* out);

/// \brief Encodes a kQuery payload: the idempotency request id followed by
/// the statement text.
std::string EncodeQueryPayload(uint64_t request_id,
                               std::string_view statement);

/// \brief Splits a kQuery payload into id and statement (a view into
/// `payload`, which must outlive it).
Status DecodeQueryPayload(std::string_view payload, uint64_t* request_id,
                          std::string_view* statement);

/// \brief Encodes a kIngest payload: request_id(u64 LE) | cube_len(u16 LE) |
/// cube name | format(u8) | flags(u8, bit0 = auto-insert members) | row text.
std::string EncodeIngestPayload(uint64_t request_id, std::string_view cube,
                                IngestFormat format, uint8_t flags,
                                std::string_view text);

/// Flag bits carried in the kIngest flags byte.
inline constexpr uint8_t kIngestFlagAutoInsert = 0x01;

/// \brief Splits a kIngest payload; `cube` and `text` view into `payload`,
/// which must outlive them. kInvalidArgument on truncation or an unknown
/// format byte.
Status DecodeIngestPayload(std::string_view payload, uint64_t* request_id,
                           std::string_view* cube, IngestFormat* format,
                           uint8_t* flags, std::string_view* text);

/// \brief Opens a listening TCP socket on host:port (port 0 = ephemeral).
/// Returns the fd and the actually bound port.
struct ListenSocket {
  int fd = -1;
  uint16_t port = 0;
};
Result<ListenSocket> ListenOn(const std::string& host, uint16_t port,
                              int backlog);

/// \brief Connects to host:port; returns the connected fd. A positive
/// `timeout_ms` bounds the TCP handshake (a dead-but-routable host
/// otherwise blocks in connect(2) indefinitely) and fails with kTimeout;
/// <= 0 keeps the OS default blocking behavior.
Result<int> ConnectTo(const std::string& host, uint16_t port,
                      int64_t timeout_ms = 0);

/// \brief Closes `fd` if open (EINTR-safe, idempotent with fd < 0).
void CloseSocket(int fd);

/// \brief The server-side counters a kStats request returns: request
/// outcomes, backpressure state, client-observed latency percentiles, the
/// shared result cache, the engine, ingest, WAL, MQO and workload counters.
/// All values are a point-in-time snapshot. The field table
/// (ServerStatsFields()) names every field once for the wire frame,
/// ToString() and assessd's /metrics.
struct ServerStats {
  uint64_t total_requests = 0;     ///< query frames admitted or rejected
  uint64_t ok_responses = 0;       ///< kResult responses sent
  uint64_t error_responses = 0;    ///< kError responses (excluding below)
  uint64_t rejected_overload = 0;  ///< admission-control rejections
  uint64_t timeouts = 0;           ///< per-request deadline violations
  uint64_t queued = 0;             ///< requests waiting for a worker
  uint64_t in_flight = 0;          ///< requests executing right now
  uint64_t connections = 0;        ///< open client connections
  uint64_t worker_threads = 0;     ///< size of the worker pool
  double p50_ms = 0.0;             ///< request latency percentiles from the
  double p90_ms = 0.0;             ///< server's histogram (queue wait +
  double p99_ms = 0.0;             ///< execution + serialization)
  uint64_t cache_lookups = 0;      ///< shared result cache counters
  uint64_t cache_exact_hits = 0;
  uint64_t cache_subsumption_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_bytes = 0;
  uint64_t pool_workers = 0;      ///< shared task pool: worker threads
  uint64_t pool_queue_depth = 0;  ///< scan jobs with unclaimed morsels
  uint64_t morsels_scanned = 0;   ///< morsels aggregated, all sessions
  uint64_t morsels_skipped = 0;   ///< morsels no slice row can reach
  uint64_t scan_rows_visited = 0;  ///< fact and roll-up rows scans visited
  uint64_t scan_rows_passed = 0;   ///< visited rows that passed predicates
  // Observability counters. The latency percentiles above are estimated
  // from a fixed-bucket histogram over the server's whole lifetime (not a
  // sliding window); latency_samples is that histogram's total count.
  uint64_t latency_samples = 0;  ///< requests measured into the histogram
  uint64_t slow_queries = 0;     ///< queries over --slow-query-ms
  uint64_t traces_sampled = 0;   ///< queries executed under a trace
  uint64_t trace_spans = 0;      ///< spans recorded across those traces
  uint64_t trace_emit_failures = 0;  ///< slow-query dumps a sink dropped
  // Ingestion counters (zero on a read-only server).
  uint64_t ingest_rows = 0;     ///< fact rows appended via kIngest
  uint64_t ingest_batches = 0;  ///< epoch-stamped commits those rows made
  uint64_t cache_epoch_invalidations = 0;  ///< stale-epoch entries swept
  uint64_t cache_subsumption_probes = 0;  ///< entries subsumption tested
  // Durability counters (zero on a server without --data-dir).
  uint64_t wal_appends = 0;     ///< WAL records appended
  uint64_t wal_fsyncs = 0;      ///< fsync(2) calls the WAL issued (group
                                ///< commit makes this < appends under load)
  uint64_t wal_bytes = 0;       ///< framed WAL bytes written
  uint64_t checkpoints = 0;     ///< checkpoints published this run
  uint64_t recovery_replayed_records = 0;  ///< WAL records startup replayed
  uint64_t recovery_truncated_bytes = 0;   ///< torn-tail bytes dropped
  // Multi-query optimization counters (zero when --mqo-window-us is 0).
  uint64_t mqo_batches = 0;        ///< micro-batch flushes holding >= 2 queries
  uint64_t mqo_queries_batched = 0;  ///< queries flushed in such batches
  uint64_t mqo_shared_scans = 0;     ///< shared-scan group executions
  uint64_t mqo_queries_piggybacked = 0;  ///< queries answered by a batch-mate's
                                         ///< scan instead of their own
  // Workload-intelligence counters.
  uint64_t workload_fingerprints = 0;  ///< live profiled query fingerprints
  uint64_t workload_queries = 0;       ///< queries folded into the profile
  uint64_t workload_evictions = 0;     ///< fingerprints evicted by the LRU cap
  uint64_t workload_dropped_samples = 0;  ///< samples the obs.profile
                                          ///< failpoint dropped
  uint64_t http_requests = 0;          ///< requests the observability HTTP
                                       ///< listener has served
  uint64_t trace_ids_received = 0;     ///< frames carrying a client trace id

  double cache_hit_rate() const {
    return cache_lookups > 0
               ? static_cast<double>(cache_exact_hits +
                                     cache_subsumption_hits) /
                     static_cast<double>(cache_lookups)
               : 0.0;
  }

  /// \brief The kStatsReply payload: `'T'` | format byte 0x08 |
  /// count(varint) | count x pair, one pair per table row, where
  /// pair := name_len(varint) | name | type(u8) | value. Type 0 is a u64
  /// varint (every counter and gauge), type 1 an f64 LE (the latency
  /// quantiles); the type lets a decoder skip names it does not know.
  std::string Serialize() const;

  /// \brief Decodes a Serialize() payload. Unknown names are skipped and
  /// absent names stay zero. Truncation, an unknown format byte, duplicate
  /// or over-long names, a value of the wrong type and trailing bytes are
  /// kInvalidArgument. Decoding allocates nothing sized by the payload.
  static Result<ServerStats> Deserialize(std::string_view data);

  /// \brief Multi-line human-readable rendering (the CLI's \stats output):
  /// one line per table section, each field labelled by its series name
  /// without the `assess(d)_` prefix, the `_total` suffix and the section.
  std::string ToString() const;
};

/// \brief One row of the ServerStats field table: the \stats section it
/// prints in, the series name (also the field's wire key), its help text,
/// its Prometheus kind and the member it reads. Exactly one of `u64` and
/// `f64` is set.
struct StatsField {
  enum class Kind : uint8_t { kCounter, kGauge };

  constexpr StatsField(const char* section, const char* name,
                       const char* help, Kind kind,
                       uint64_t ServerStats::*member)
      : section(section), name(name), help(help), kind(kind), u64(member) {}
  constexpr StatsField(const char* section, const char* name,
                       const char* help, Kind kind,
                       double ServerStats::*member)
      : section(section), name(name), help(help), kind(kind), f64(member) {}

  const char* section;
  const char* name;
  const char* help;
  Kind kind;
  uint64_t ServerStats::*u64 = nullptr;
  double ServerStats::*f64 = nullptr;
};

/// \brief The field table, one row per ServerStats field, in \stats
/// order.
std::span<const StatsField> ServerStatsFields();

}  // namespace assess

#endif  // ASSESS_SERVER_PROTOCOL_H_

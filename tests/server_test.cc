// Loopback integration tests for assessd: remote results bit-identical to
// the in-process session, typed errors that never cost the connection,
// >= 8 concurrent clients over one shared cache, admission control,
// per-request timeouts, protocol robustness against malformed traffic, and
// graceful drain. Also the TSan target for the shared-cache / worker-pool
// paths (see .github/workflows/ci.yml).

#include "server/assessd.h"

#include <sys/socket.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "assess/session.h"
#include "assess/wire_format.h"
#include "client/assess_client.h"
#include "common/crc32c.h"
#include "server/protocol.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;

// Mixed workload over the MiniSales database: one statement per benchmark
// shape the planner distinguishes (sibling/POP, constant/NP, past, roll-up).
const char* kSibling =
    "with SALES for country = 'Italy' by product, country assess quantity "
    "against country = 'France' labels quartiles";
const char* kConstant =
    "with SALES by month assess sales against 10 labels quartiles";
const char* kPast =
    "with SALES for month = '1997-07' by month, store assess sales "
    "against past 2 labels quartiles";
const char* kRollup = "with SALES by month assess sales labels quartiles";

std::vector<std::string> MixedStatements() {
  return {kSibling, kConstant, kPast, kRollup};
}

/// Everything except timings must match bit-for-bit between a remote and an
/// in-process execution of the same statement (timings are measured, so
/// they legitimately differ run to run).
void ExpectSameComputation(const AssessResult& expected,
                           const AssessResult& actual) {
  EXPECT_EQ(expected.plan, actual.plan);
  EXPECT_EQ(expected.measure, actual.measure);
  EXPECT_EQ(expected.benchmark_measure, actual.benchmark_measure);
  EXPECT_EQ(expected.comparison_measure, actual.comparison_measure);
  EXPECT_EQ(expected.sql, actual.sql);
  const Cube& lhs = expected.cube;
  const Cube& rhs = actual.cube;
  ASSERT_EQ(lhs.level_count(), rhs.level_count());
  ASSERT_EQ(lhs.measure_count(), rhs.measure_count());
  ASSERT_EQ(lhs.NumRows(), rhs.NumRows());
  for (int l = 0; l < lhs.level_count(); ++l) {
    EXPECT_EQ(lhs.level(l).name(), rhs.level(l).name());
    for (int64_t r = 0; r < lhs.NumRows(); ++r) {
      ASSERT_EQ(lhs.CoordName(r, l), rhs.CoordName(r, l))
          << "row " << r << " level " << l;
    }
  }
  for (int m = 0; m < lhs.measure_count(); ++m) {
    EXPECT_EQ(lhs.measure_name(m), rhs.measure_name(m));
    for (int64_t r = 0; r < lhs.NumRows(); ++r) {
      double x = lhs.MeasureAt(r, m), y = rhs.MeasureAt(r, m);
      ASSERT_EQ(std::isnan(x), std::isnan(y));
      if (!std::isnan(x)) {
        ASSERT_EQ(x, y) << "row " << r << " measure " << m;
      }
    }
  }
  EXPECT_EQ(lhs.labels(), rhs.labels());
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : mini_(BuildMiniSales()) {}

  /// Starts a server on an ephemeral loopback port.
  std::unique_ptr<AssessServer> StartServer(ServerOptions options = {}) {
    auto server = std::make_unique<AssessServer>(mini_.db.get(), options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  AssessClient ConnectOrDie(const AssessServer& server) {
    auto client = AssessClient::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  testutil::MiniDb mini_;
};

TEST_F(ServerTest, StartPingStop) {
  auto server = StartServer();
  ASSERT_GT(server->port(), 0);
  AssessClient client = ConnectOrDie(*server);
  EXPECT_TRUE(client.Ping().ok());
  server->Stop();
  // Stop is idempotent; a stopped server refuses new connections.
  server->Stop();
  auto late = AssessClient::Connect("127.0.0.1", server->port());
  if (late.ok()) {
    EXPECT_FALSE(late->Ping().ok());
  }
}

TEST_F(ServerTest, RemoteResultsMatchInProcessSession) {
  auto server = StartServer();
  AssessClient client = ConnectOrDie(*server);
  AssessSession local(mini_.db.get());
  for (const std::string& statement : MixedStatements()) {
    auto expected = local.Query(statement);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto remote = client.Query(statement);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ExpectSameComputation(*expected, *remote);
    // Remote timings are real measurements from the server.
    EXPECT_GE(remote->timings.Total(), 0.0);
  }
}

TEST_F(ServerTest, ErrorsTravelAsTypedCodesAndKeepTheConnection) {
  auto server = StartServer();
  AssessClient client = ConnectOrDie(*server);

  auto syntax = client.Query("select * from sales");
  ASSERT_FALSE(syntax.ok());
  EXPECT_EQ(syntax.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(syntax.status().message().empty());

  auto unknown = client.Query(
      "with NOPE by month assess sales against 10 labels quartiles");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // The same connection keeps serving after both errors.
  ASSERT_TRUE(client.connected());
  auto ok = client.Query(kConstant);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(ServerTest, EightConcurrentClientsBitIdenticalResults) {
  constexpr int kClients = 8;
  constexpr int kRoundsPerClient = 6;
  auto server = StartServer();

  // Expected results computed in-process, once, up front.
  AssessSession local(mini_.db.get());
  std::vector<std::string> statements = MixedStatements();
  std::vector<AssessResult> expected;
  for (const std::string& statement : statements) {
    auto r = local.Query(statement);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(*r));
  }

  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = AssessClient::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        ++failures;
        ADD_FAILURE() << "client " << c
                      << " could not connect: " << client.status().ToString();
        return;
      }
      for (int round = 0; round < kRoundsPerClient; ++round) {
        // Different clients walk the workload with different phases, so at
        // any instant a mix of statements is in flight.
        size_t pick = static_cast<size_t>(c + round) % statements.size();
        auto remote = client->Query(statements[pick]);
        if (!remote.ok()) {
          // Name the refusal, so a loaded host's typed rejection can be
          // told apart from a wrong answer.
          ++failures;
          ADD_FAILURE() << "client " << c << " round " << round
                        << " statement '" << statements[pick]
                        << "' failed: " << remote.status().ToString();
          continue;
        }
        ExpectSameComputation(expected[pick], *remote);
        ++completed;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), kClients * kRoundsPerClient);

  // All connections pooled one cache: with 8 clients x 6 rounds over 4
  // distinct statements, most executions must have been cache hits.
  AssessClient probe = ConnectOrDie(*server);
  auto stats = probe.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->ok_responses, static_cast<uint64_t>(kClients *
                                                       kRoundsPerClient));
  EXPECT_GT(stats->cache_lookups, 0u);
  EXPECT_GT(stats->cache_exact_hits + stats->cache_subsumption_hits, 0u);
}

TEST_F(ServerTest, StatsReportLoadLatencyAndCache) {
  auto server = StartServer();
  AssessClient client = ConnectOrDie(*server);
  ASSERT_TRUE(client.Query(kSibling).ok());
  ASSERT_TRUE(client.Query(kSibling).ok());  // second run: exact cache hit
  ASSERT_FALSE(client.Query("nonsense").ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->total_requests, 3u);
  EXPECT_EQ(stats->ok_responses, 2u);
  EXPECT_EQ(stats->error_responses, 1u);
  EXPECT_EQ(stats->rejected_overload, 0u);
  EXPECT_EQ(stats->timeouts, 0u);
  EXPECT_EQ(stats->in_flight, 0u);
  EXPECT_EQ(stats->queued, 0u);
  EXPECT_GE(stats->worker_threads, 1u);
  EXPECT_GE(stats->connections, 1u);
  EXPECT_GT(stats->cache_lookups, 0u);
  EXPECT_GT(stats->cache_exact_hits, 0u);
  EXPECT_GT(stats->cache_hit_rate(), 0.0);
  // Three responses recorded; the window percentiles are ordered.
  EXPECT_GE(stats->p90_ms, stats->p50_ms);
  EXPECT_GE(stats->p99_ms, stats->p90_ms);
  EXPECT_GT(stats->p99_ms, 0.0);
  // The human rendering mentions the load numbers.
  EXPECT_NE(stats->ToString().find("hit rate"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Protocol robustness: every abuse below must leave other connections
// serving. kHealthyAfterwards runs a full query on a separate, well-behaved
// connection after each abuse.
// ---------------------------------------------------------------------------

class RawConnection {
 public:
  explicit RawConnection(uint16_t port) {
    auto fd = ConnectTo("127.0.0.1", port);
    fd_ = fd.ok() ? *fd : -1;
  }
  ~RawConnection() { CloseSocket(fd_); }

  bool ok() const { return fd_ >= 0; }

  void SendBytes(const void* data, size_t len) {
    (void)!::send(fd_, data, len, MSG_NOSIGNAL);
  }

  /// Reads one frame with a generous cap; returns its status.
  Status ReadOneFrame(Frame* frame) {
    return ReadFrame(fd_, size_t{64} << 20, frame);
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

TEST_F(ServerTest, MalformedTrafficLeavesServerServing) {
  auto server = StartServer();
  AssessClient healthy = ConnectOrDie(*server);

  auto expect_healthy = [&] {
    auto r = healthy.Query(kConstant);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  };

  {
    // Oversized length prefix: rejected with a typed error, then closed —
    // without the server ever allocating the claimed buffer.
    RawConnection bad(server->port());
    ASSERT_TRUE(bad.ok());
    uint32_t huge = 1u << 30;  // 1 GiB, way over the 16 MiB default
    char header[5];
    std::memcpy(header, &huge, 4);
    header[4] = 0x01;
    bad.SendBytes(header, 5);
    Frame response;
    Status read = bad.ReadOneFrame(&response);
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(response.type, FrameType::kError);
    Status remote = Status::OK();
    ASSERT_TRUE(DeserializeStatus(response.payload, &remote).ok());
    EXPECT_EQ(remote.code(), StatusCode::kFrameTooLarge);
    // ...and the stream is closed afterwards.
    EXPECT_FALSE(bad.ReadOneFrame(&response).ok());
    expect_healthy();
  }
  {
    // Zero-length frame: unframable.
    RawConnection bad(server->port());
    ASSERT_TRUE(bad.ok());
    const char zeros[5] = {0, 0, 0, 0, 0};
    bad.SendBytes(zeros, 4);
    Frame response;
    Status read = bad.ReadOneFrame(&response);
    if (read.ok()) {
      EXPECT_EQ(response.type, FrameType::kError);
    }
    expect_healthy();
  }
  {
    // Truncated frame: a 100-byte announcement with 10 bytes delivered.
    RawConnection bad(server->port());
    ASSERT_TRUE(bad.ok());
    uint32_t length = 100;
    char buf[15];
    std::memcpy(buf, &length, 4);
    buf[4] = 0x01;
    std::memset(buf + 5, 'x', 10);
    bad.SendBytes(buf, 15);
    // Close mid-frame; the server must just drop the connection.
    expect_healthy();
  }
  {
    // Garbage bytes.
    RawConnection bad(server->port());
    ASSERT_TRUE(bad.ok());
    const char garbage[] = "\xde\xad\xbe\xef\xba\xad\xf0\x0d garbage";
    bad.SendBytes(garbage, sizeof(garbage));
    expect_healthy();
  }
  {
    // Mid-request disconnect: a valid query whose sender vanishes before
    // the response. The server executes, fails to write, and moves on.
    RawConnection bad(server->port());
    ASSERT_TRUE(bad.ok());
    std::string frame =
        EncodeFrame(FrameType::kQuery, EncodeQueryPayload(0, kConstant));
    bad.SendBytes(frame.data(), frame.size());
  }  // RawConnection closes here, likely before the response is ready
  expect_healthy();

  // Unknown frame types (well-formed otherwise: correct CRC trailer): an
  // unassigned byte, and the retired workload-report request and reply
  // (0x08, 0x19), which must never be read as anything else.
  for (uint8_t type : {uint8_t{0x7F}, uint8_t{0x08}, uint8_t{0x19}}) {
    SCOPED_TRACE(static_cast<int>(type));
    RawConnection bad(server->port());
    ASSERT_TRUE(bad.ok());
    std::string frame = EncodeFrame(static_cast<FrameType>(type), "");
    bad.SendBytes(frame.data(), frame.size());
    Frame response;
    Status read = bad.ReadOneFrame(&response);
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(response.type, FrameType::kError);
    Status remote = Status::OK();
    ASSERT_TRUE(DeserializeStatus(response.payload, &remote).ok());
    EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument);
    expect_healthy();
  }

  // A frame whose CRC trailer does not match its bytes: typed
  // kCorruptFrame error, then the connection is closed.
  {
    RawConnection bad(server->port());
    ASSERT_TRUE(bad.ok());
    std::string frame =
        EncodeFrame(FrameType::kQuery, EncodeQueryPayload(0, kConstant));
    frame[frame.size() / 2] ^= 0x40;  // flip one covered bit
    bad.SendBytes(frame.data(), frame.size());
    Frame response;
    Status read = bad.ReadOneFrame(&response);
    ASSERT_TRUE(read.ok()) << read.ToString();
    EXPECT_EQ(response.type, FrameType::kError);
    Status remote = Status::OK();
    ASSERT_TRUE(DeserializeStatus(response.payload, &remote).ok());
    EXPECT_EQ(remote.code(), StatusCode::kCorruptFrame);
    EXPECT_FALSE(bad.ReadOneFrame(&response).ok());
    expect_healthy();
  }
}

TEST_F(ServerTest, OverloadedServerRejectsWithTypedError) {
  ServerOptions options;
  options.worker_threads = 1;
  options.max_queue = 1;
  options.pre_execute_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  };
  auto server = StartServer(options);

  // 6 concurrent one-query clients against 1 worker + 1 queue slot: at
  // most 2 can be admitted per 150 ms window, so some must be rejected.
  // Loop a few rounds to make the race a non-event even on slow machines.
  std::atomic<int> succeeded{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  for (int round = 0; round < 5 && (succeeded.load() == 0 ||
                                    overloaded.load() == 0);
       ++round) {
    std::vector<std::thread> clients;
    for (int c = 0; c < 6; ++c) {
      clients.emplace_back([&] {
        auto client = AssessClient::Connect("127.0.0.1", server->port());
        if (!client.ok()) {
          ++other;
          return;
        }
        auto r = client->Query(kConstant);
        if (r.ok()) {
          ++succeeded;
        } else if (r.status().code() == StatusCode::kUnavailable &&
                   r.status().message().find("overloaded") !=
                       std::string::npos) {
          ++overloaded;
        } else {
          ++other;
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  EXPECT_GT(succeeded.load(), 0);
  EXPECT_GT(overloaded.load(), 0);
  EXPECT_EQ(other.load(), 0);

  // Rejection is backpressure, not failure: an idle server serves again.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  AssessClient after = ConnectOrDie(*server);
  EXPECT_TRUE(after.Query(kConstant).ok());
  auto stats = after.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->rejected_overload,
            static_cast<uint64_t>(overloaded.load()));
}

TEST_F(ServerTest, SlowRequestsHitTheWallClockTimeout) {
  ServerOptions options;
  options.request_timeout_ms = 50;
  options.pre_execute_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  };
  auto server = StartServer(options);
  AssessClient client = ConnectOrDie(*server);
  auto r = client.Query(kConstant);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
  EXPECT_NE(r.status().message().find("deadline"), std::string::npos);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->timeouts, 1u);
}

TEST_F(ServerTest, ConnectionCapGreetsExtraClientsWithUnavailable) {
  ServerOptions options;
  options.max_connections = 1;
  auto server = StartServer(options);
  AssessClient first = ConnectOrDie(*server);
  ASSERT_TRUE(first.Ping().ok());
  auto second = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(second.ok());  // TCP accepts, then the server says no
  Status st = second->Ping();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  // The first client is unaffected.
  EXPECT_TRUE(first.Query(kConstant).ok());
}

TEST_F(ServerTest, StopDrainsInFlightRequests) {
  ServerOptions options;
  options.pre_execute_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  };
  auto server = StartServer(options);

  std::atomic<bool> got_result{false};
  std::atomic<bool> query_sent{false};
  std::thread slow_client([&] {
    auto client = AssessClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    query_sent.store(true);
    auto r = client->Query(kConstant);
    // Graceful drain: the in-flight request completes with its result.
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    got_result.store(r.ok());
  });

  while (!query_sent.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Give the query time to reach the worker, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server->Stop();
  slow_client.join();
  EXPECT_TRUE(got_result.load());
}

// ---------------------------------------------------------------------------
// The ServerStats field table: wire frame, \stats and /metrics.
// ---------------------------------------------------------------------------

/// Hand-builds one (name, value) pair of the stats frame.
std::string StatsPair(std::string_view name, uint8_t type,
                      std::string_view value) {
  std::string pair(1, static_cast<char>(name.size()));
  pair.append(name);
  pair.push_back(static_cast<char>(type));
  pair.append(value);
  return pair;
}

/// A stats frame holding `pairs` (each from StatsPair).
std::string StatsFrame(const std::vector<std::string>& pairs) {
  std::string frame = {'T', 0x08, static_cast<char>(pairs.size())};
  for (const std::string& pair : pairs) frame += pair;
  return frame;
}

TEST(ServerStatsWire, TableRoundTripsEveryField) {
  // One row per field: the rows cover the struct (every member is 8 bytes)
  // and no two rows share a member, because each row reads back the
  // distinct value written through it.
  const auto fields = ServerStatsFields();
  ASSERT_EQ(fields.size() * sizeof(uint64_t), sizeof(ServerStats));
  ServerStats stats;
  uint64_t next = 1;
  for (const StatsField& field : fields) {
    if (field.u64 != nullptr) {
      stats.*field.u64 = next == 1 ? UINT64_MAX : next * 1'000'003;
    } else {
      stats.*field.f64 = static_cast<double>(next) + 0.25;
    }
    ++next;
  }
  next = 1;
  for (const StatsField& field : fields) {
    if (field.u64 != nullptr) {
      EXPECT_EQ(stats.*field.u64, next == 1 ? UINT64_MAX : next * 1'000'003)
          << field.name;
    } else {
      EXPECT_EQ(stats.*field.f64, static_cast<double>(next) + 0.25)
          << field.name;
    }
    ++next;
  }

  std::string wire = stats.Serialize();
  ASSERT_GE(wire.size(), 2u);
  EXPECT_EQ(wire[0], 'T');
  EXPECT_EQ(wire[1], 0x08);
  auto decoded = ServerStats::Deserialize(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (const StatsField& field : fields) {
    if (field.u64 != nullptr) {
      EXPECT_EQ((*decoded).*field.u64, stats.*field.u64) << field.name;
    } else {
      EXPECT_EQ((*decoded).*field.f64, stats.*field.f64) << field.name;
    }
  }
  // The human rendering carries every section.
  const std::string text = stats.ToString();
  for (const char* needle : {"hit rate", "slow queries", "wal:", "mqo:",
                             "workload:", "trace emit failures",
                             "dropped samples"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // Trailing garbage is still rejected.
  EXPECT_FALSE(ServerStats::Deserialize(wire + "x").ok());
}

TEST(ServerStatsWire, DecoderSkipsUnknownNamesAndRejectsMalformedPairs) {
  const std::string one = {'\x01'};
  // Unknown names are skipped; absent names stay zero.
  auto decoded = ServerStats::Deserialize(
      StatsFrame({StatsPair("assessd_from_the_future", 0, one),
                  StatsPair("assessd_requests_total", 0, "\x07"),
                  StatsPair("assessd_from_the_future_f64", 1,
                            std::string(8, '\0'))}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->total_requests, 7u);
  EXPECT_EQ(decoded->ok_responses, 0u);
  auto empty = ServerStats::Deserialize(StatsFrame({}));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->total_requests, 0u);

  auto rejected = [](const std::string& frame) {
    auto result = ServerStats::Deserialize(frame);
    return !result.ok() &&
           result.status().code() == StatusCode::kInvalidArgument;
  };
  const std::string requests = StatsPair("assessd_requests_total", 0, one);
  EXPECT_TRUE(rejected(StatsFrame({requests, requests})));  // duplicate
  EXPECT_TRUE(rejected(StatsFrame({StatsPair("x", 0, one),
                                   StatsPair("x", 0, one)})));
  EXPECT_TRUE(rejected(StatsFrame({StatsPair(std::string(65, 'a'), 0, one)})));
  EXPECT_TRUE(rejected(StatsFrame({StatsPair("", 0, one)})));
  EXPECT_TRUE(rejected(StatsFrame({StatsPair("x", 2, one)})));  // bad type
  // A known name with the other value type.
  EXPECT_TRUE(rejected(
      StatsFrame({StatsPair("assessd_requests_total", 1, std::string(8, 0))})));
  EXPECT_TRUE(rejected(StatsFrame({StatsPair("assessd_request_latency_p50_ms",
                                             0, one)})));
  // The count promises more pairs than the payload holds.
  std::string short_frame = StatsFrame({requests});
  short_frame[2] = 2;
  EXPECT_TRUE(rejected(short_frame));
  // Earlier stats formats (0x02-0x07) and other magic are refused cleanly.
  std::string old_format = StatsFrame({requests});
  old_format[1] = 0x07;
  EXPECT_TRUE(rejected(old_format));
  EXPECT_TRUE(rejected("X"));
  EXPECT_TRUE(rejected(""));
}

// ---------------------------------------------------------------------------
// Trace-id frame extension (kFrameTraceIdFlag).
// ---------------------------------------------------------------------------

/// Pushes `bytes` through a socketpair and decodes one frame off the
/// other end, exactly as a peer would.
Status DecodeFrameBytes(const std::string& bytes, Frame* frame) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_EQ(::send(fds[0], bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  ::shutdown(fds[0], SHUT_WR);
  Status read = ReadFrame(fds[1], size_t{16} << 20, frame);
  CloseSocket(fds[0]);
  CloseSocket(fds[1]);
  return read;
}

TEST(FrameTraceId, RoundTripsThroughEncodeAndDecode) {
  const uint64_t id = 0x0123456789abcdefULL;
  std::string bytes = EncodeFrame(FrameType::kQuery, "payload", id);
  Frame frame;
  ASSERT_TRUE(DecodeFrameBytes(bytes, &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kQuery);
  EXPECT_EQ(frame.trace_id, id);
  EXPECT_EQ(frame.payload, "payload");
}

TEST(FrameTraceId, ZeroIdKeepsThePreTraceWireShape) {
  // trace_id 0 must encode byte-identically to the pre-trace protocol, so
  // a new client with tracing off interoperates with an old server.
  EXPECT_EQ(EncodeFrame(FrameType::kQuery, "payload", 0),
            EncodeFrame(FrameType::kQuery, "payload"));
  Frame frame;
  ASSERT_TRUE(
      DecodeFrameBytes(EncodeFrame(FrameType::kPing, ""), &frame).ok());
  EXPECT_EQ(frame.trace_id, 0u);
}

TEST(FrameTraceId, OldDecoderRejectsFlaggedFrameAsUnknownType) {
  // An old peer sees type 0x81 (kQuery | flag), which IsKnownFrameType
  // rejects — versioning by construction, no silent misparse. A new
  // decoder applies the same rule to a flagged *unknown* base type.
  std::string bytes =
      EncodeFrame(static_cast<FrameType>(0x7F | kFrameTraceIdFlag), "x");
  Frame frame;
  Status read = DecodeFrameBytes(bytes, &frame);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.message().find("unknown frame type"), std::string::npos);
}

TEST(FrameTraceId, FlaggedFrameTooShortForItsIdIsRejected) {
  // Hand-build a well-formed (correct length, correct CRC) flagged frame
  // whose payload is shorter than the 8-byte id it promises.
  std::string body;
  body.push_back(static_cast<char>(static_cast<uint8_t>(FrameType::kQuery) |
                                   kFrameTraceIdFlag));
  body += "abc";  // < 8 bytes of id
  std::string bytes;
  const uint32_t length = static_cast<uint32_t>(body.size());
  bytes.append(reinterpret_cast<const char*>(&length), 4);
  bytes += body;
  const uint32_t crc = Crc32c(body);
  bytes.append(reinterpret_cast<const char*>(&crc), 4);
  Frame frame;
  Status read = DecodeFrameBytes(bytes, &frame);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.message().find("traced frame"), std::string::npos);
}

TEST_F(ServerTest, MetricsFrameReturnsPrometheusExposition) {
  auto server = StartServer();
  AssessClient client = ConnectOrDie(*server);
  ASSERT_TRUE(client.Query(kConstant).ok());

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  // Per-server series: the latency histogram plus the request counters.
  EXPECT_NE(metrics->find("assessd_request_latency_ms_bucket"),
            std::string::npos);
  EXPECT_NE(metrics->find("assessd_request_latency_ms_count"),
            std::string::npos);
  EXPECT_NE(metrics->find("assessd_requests_total 1"), std::string::npos);
  // Process-registry series fed by the engine layers.
  EXPECT_NE(metrics->find("assess_morsels_scanned_total"), std::string::npos);
  // kMetrics is answered inline by the reader (no latency sample), so only
  // the query landed in the histogram.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->latency_samples, 1u);
}

/// The samples of a Prometheus exposition by series name (labelled
/// histogram buckets excluded), failing the test on a repeated `# TYPE`.
std::map<std::string, std::string> ParseExposition(const std::string& text) {
  std::map<std::string, std::string> samples;
  std::set<std::string> typed;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string name = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(typed.insert(name).second) << "duplicate # TYPE " << name;
      continue;
    }
    if (line.empty() || line[0] == '#' || line.find('{') != line.npos) {
      continue;
    }
    const size_t space = line.find(' ');
    EXPECT_TRUE(samples.emplace(line.substr(0, space), line.substr(space + 1))
                    .second)
        << "duplicate sample " << line;
  }
  return samples;
}

TEST_F(ServerTest, StatsAndMetricsAgreeOnEveryTableRow) {
  ServerOptions options;
  options.worker_threads = 2;
  options.mqo_window_us = 20'000;
  options.mutable_db = mini_.db.get();
  auto server = StartServer(options);
  {
    // Two concurrent identical queries share an MQO window; the repeats
    // are cache hits; the ingest sweeps the cache past its epoch.
    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
      clients.emplace_back([&] {
        AssessClient client = ConnectOrDie(*server);
        EXPECT_TRUE(client.Query(kSibling).ok());
        EXPECT_TRUE(client.Query(kSibling).ok());
        EXPECT_TRUE(client.Query(kRollup).ok());
      });
    }
    for (std::thread& client : clients) client.join();
    AssessClient client = ConnectOrDie(*server);
    auto ingested = client.Ingest(
        "SALES",
        "date,product,store,quantity,sales\n1997-07-01,Apple,SmartMart,1,0\n");
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    EXPECT_TRUE(client.Query(kRollup).ok());
  }
  AssessClient client = ConnectOrDie(*server);
  // Quiesce: once a round trip proves this connection is served, it must be
  // the only open one, and nothing may be queued, running or still closing.
  ASSERT_TRUE(client.Ping().ok());
  for (int i = 0; i < 500; ++i) {
    const ServerStats now = server->Snapshot();
    if (now.connections == 1 && now.queued == 0 && now.in_flight == 0 &&
        now.pool_queue_depth == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(stats->cache_lookups, 0u);
  EXPECT_GT(stats->cache_exact_hits, 0u);
  EXPECT_EQ(stats->ingest_rows, 1u);
  EXPECT_GT(stats->workload_queries, 0u);

  const std::map<std::string, std::string> samples =
      ParseExposition(*metrics);
  for (const StatsField& field : ServerStatsFields()) {
    auto it = samples.find(field.name);
    ASSERT_NE(it, samples.end()) << field.name;
    if (field.u64 != nullptr) {
      EXPECT_EQ(std::stoull(it->second), (*stats).*field.u64) << field.name;
    } else {
      EXPECT_EQ(std::strtod(it->second.c_str(), nullptr), (*stats).*field.f64)
          << field.name;
    }
  }
}

TEST_F(ServerTest, RemoteExplainAnalyzeRendersSpans) {
  auto server = StartServer();
  AssessClient client = ConnectOrDie(*server);
  auto text = client.ExplainAnalyze(kRollup);
  if (!kTracingCompiledIn) {
    ASSERT_FALSE(text.ok());
    EXPECT_EQ(text.status().code(), StatusCode::kNotSupported);
    return;
  }
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("span tree:"), std::string::npos);
  EXPECT_NE(text->find("Figure 4 phases:"), std::string::npos);
  EXPECT_NE(text->find("query"), std::string::npos);
  // Each EXPLAIN ANALYZE re-executes; both calls succeed and the server
  // counts both traces.
  ASSERT_TRUE(client.ExplainAnalyze(kRollup).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->traces_sampled, 2u);
}

TEST_F(ServerTest, SlowQueryLogCountsTracedQueries) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "needs ASSESS_TRACING=ON";
  ServerOptions options;
  options.slow_query_ms = 0;  // every traced query counts as slow
  auto server = StartServer(options);
  AssessClient client = ConnectOrDie(*server);
  ASSERT_TRUE(client.Query(kConstant).ok());
  ASSERT_TRUE(client.Query(kSibling).ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->traces_sampled, 2u);
  EXPECT_EQ(stats->slow_queries, 2u);
  EXPECT_GT(stats->trace_spans, 0u);
}

TEST_F(ServerTest, TraceSampleZeroTracesNothing) {
  ServerOptions options;
  options.slow_query_ms = 0;
  options.trace_sample = 0.0;
  auto server = StartServer(options);
  AssessClient client = ConnectOrDie(*server);
  ASSERT_TRUE(client.Query(kConstant).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->traces_sampled, 0u);
  EXPECT_EQ(stats->slow_queries, 0u);
}

}  // namespace
}  // namespace assess

// Deterministic chaos harness for the assessd stack: runs the loopback
// server under seeded fault schedules — injected errors, latency, corrupted
// frames, degraded caches — and asserts the only observable outcomes are a
// bit-identical result or a typed error. Never a hang, a crash, or a wrong
// answer.
//
// Schedules are seeded (kSchedules of them), so a failure reproduces by
// seed. Every test disarms the global failpoint registry on entry and exit;
// the whole file skips itself when built with ASSESS_FAILPOINTS=OFF except
// the tests that only need deadlines and retry (no injection).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "assess/session.h"
#include "assess/wire_format.h"
#include "client/assess_client.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "server/assessd.h"
#include "server/protocol.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;

constexpr int kSchedules = 200;

const char* kStatements[] = {
    "with SALES for country = 'Italy' by product, country assess quantity "
    "against country = 'France' labels quartiles",
    "with SALES by month assess sales against 10 labels quartiles",
    "with SALES for month = '1997-07' by month, store assess sales "
    "against past 2 labels quartiles",
    "with SALES by month assess sales labels quartiles",
};
constexpr size_t kStatementCount =
    sizeof(kStatements) / sizeof(kStatements[0]);

/// Everything except timings must match bit-for-bit; timings are measured.
void ExpectSameComputation(const AssessResult& expected,
                           const AssessResult& actual,
                           const std::string& context) {
  EXPECT_EQ(expected.plan, actual.plan) << context;
  EXPECT_EQ(expected.sql, actual.sql) << context;
  const Cube& lhs = expected.cube;
  const Cube& rhs = actual.cube;
  ASSERT_EQ(lhs.NumRows(), rhs.NumRows()) << context;
  ASSERT_EQ(lhs.level_count(), rhs.level_count()) << context;
  ASSERT_EQ(lhs.measure_count(), rhs.measure_count()) << context;
  for (int l = 0; l < lhs.level_count(); ++l) {
    for (int64_t r = 0; r < lhs.NumRows(); ++r) {
      ASSERT_EQ(lhs.CoordName(r, l), rhs.CoordName(r, l))
          << context << " row " << r << " level " << l;
    }
  }
  for (int m = 0; m < lhs.measure_count(); ++m) {
    for (int64_t r = 0; r < lhs.NumRows(); ++r) {
      double x = lhs.MeasureAt(r, m), y = rhs.MeasureAt(r, m);
      uint64_t xb, yb;
      std::memcpy(&xb, &x, sizeof(x));
      std::memcpy(&yb, &y, sizeof(y));
      ASSERT_EQ(xb, yb) << context << " row " << r << " measure " << m;
    }
  }
  EXPECT_EQ(lhs.labels(), rhs.labels()) << context;
}

/// The statuses a client under chaos may legitimately surface: transient
/// transport conditions (after retries ran out) and deadline expiries.
/// Anything else — especially kInternal or an OK-but-different result — is
/// a harness failure.
bool IsAcceptableChaosError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kTimeout:
    case StatusCode::kCorruptFrame:
      return true;
    default:
      return false;
  }
}

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest() : mini_(BuildMiniSales()) {
    FailpointRegistry::Instance().DisarmAll();
    AssessSession session(mini_.db.get());
    for (const char* statement : kStatements) {
      auto result = session.Query(statement);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      expected_.push_back(std::move(result).value());
    }
  }
  ~ChaosTest() override { FailpointRegistry::Instance().DisarmAll(); }

  std::unique_ptr<AssessServer> StartServer(ServerOptions options = {}) {
    options.worker_threads =
        options.worker_threads > 0 ? options.worker_threads : 2;
    auto server = std::make_unique<AssessServer>(mini_.db.get(), options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  ClientOptions ResilientOptions(uint64_t seed) {
    ClientOptions options;
    options.max_retries = 6;
    options.backoff_base_ms = 2;
    options.backoff_cap_ms = 40;
    options.connect_timeout_ms = 2'000;
    options.read_timeout_ms = 5'000;
    options.write_timeout_ms = 5'000;
    options.seed = seed;
    return options;
  }

  testutil::MiniDb mini_;
  std::vector<AssessResult> expected_;
};

// ---------------------------------------------------------------------------
// The seeded schedules: arm 1-3 random failpoints, run concurrent clients
// with retries, and demand correct results or typed errors from every call.
// ---------------------------------------------------------------------------

struct CatalogEntry {
  const char* point;
  // Actions safe at this site ('corrupt' only where a corrupt site exists).
  std::vector<const char*> actions;
};

const std::vector<CatalogEntry>& Catalog() {
  static const std::vector<CatalogEntry> catalog = {
      {"server.accept", {"error"}},  // action irrelevant: triggering closes
      {"server.read_frame", {"error(unavailable)", "delay(%d)"}},
      {"server.write_frame", {"error(unavailable)", "delay(%d)"}},
      {"server.worker_dequeue", {"error(unavailable)", "delay(%d)"}},
      {"server.session_execute", {"error(unavailable)", "delay(%d)"}},
      {"net.write_frame", {"corrupt"}},
      {"storage.scan", {"error(unavailable)", "delay(%d)"}},
      {"pool.morsel", {"error(unavailable)", "delay(%d)"}},
      {"storage.join", {"error(unavailable)", "delay(%d)"}},
      {"storage.group_by", {"error(unavailable)", "delay(%d)"}},
      {"cache.lookup", {"error"}},  // triggering degrades to a miss
      {"cache.insert", {"error"}},  // triggering drops the insert
  };
  return catalog;
}

/// One seeded schedule: a spec string arming 1-3 distinct catalog points
/// with random action, probability, budget and seed.
std::string MakeSchedule(uint64_t seed) {
  Rng rng(seed * 7919 + 1);
  const auto& catalog = Catalog();
  int points = 1 + static_cast<int>(rng.Uniform(3));
  std::vector<size_t> picked;
  std::string spec;
  for (int i = 0; i < points; ++i) {
    size_t at = rng.Uniform(catalog.size());
    bool duplicate = false;
    for (size_t p : picked) duplicate |= (p == at);
    if (duplicate) continue;
    picked.push_back(at);
    const CatalogEntry& entry = catalog[at];
    const char* action = entry.actions[rng.Uniform(entry.actions.size())];
    char action_text[64];
    if (std::strstr(action, "%d") != nullptr) {
      std::snprintf(action_text, sizeof(action_text), action,
                    static_cast<int>(5 + rng.Uniform(21)));  // 5-25 ms
    } else {
      std::snprintf(action_text, sizeof(action_text), "%s", action);
    }
    char point[160];
    std::snprintf(point, sizeof(point),
                  "%s%s=%s:p=0.%d:budget=%d:seed=%llu", spec.empty() ? "" : ";",
                  entry.point, action_text,
                  static_cast<int>(1 + rng.Uniform(5)),           // p=0.1-0.5
                  static_cast<int>(1 + rng.Uniform(4)),           // budget 1-4
                  static_cast<unsigned long long>(rng.Next()));
    spec += point;
  }
  return spec;
}

TEST_F(ChaosTest, SeededSchedulesNeverProduceWrongAnswers) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  auto& registry = FailpointRegistry::Instance();
  for (uint64_t seed = 0; seed < kSchedules; ++seed) {
    std::string schedule = MakeSchedule(seed);
    SCOPED_TRACE("schedule " + std::to_string(seed) + ": " + schedule);
    registry.DisarmAll();

    auto server = StartServer();
    ASSERT_TRUE(registry.ArmFromString(schedule).ok()) << schedule;

    constexpr int kClients = 2;
    constexpr int kQueriesPerClient = 3;
    std::atomic<int> ok_count{0};
    std::atomic<int> typed_errors{0};
    std::atomic<bool> harness_ok{true};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client = AssessClient::Connect(
            "127.0.0.1", server->port(),
            ResilientOptions(seed * 1000 + static_cast<uint64_t>(c)));
        if (!client.ok()) {
          // server.accept chaos can defeat even the connect; that must
          // still be a typed, retryable condition.
          if (!IsAcceptableChaosError(client.status())) {
            harness_ok.store(false);
            ADD_FAILURE() << "connect: " << client.status().ToString();
          }
          typed_errors.fetch_add(kQueriesPerClient);
          return;
        }
        for (int q = 0; q < kQueriesPerClient; ++q) {
          size_t which = (static_cast<size_t>(c) + q) % kStatementCount;
          auto result = client->Query(kStatements[which]);
          if (result.ok()) {
            ExpectSameComputation(
                expected_[which], *result,
                "client " + std::to_string(c) + " query " + std::to_string(q));
            ok_count.fetch_add(1);
          } else if (IsAcceptableChaosError(result.status())) {
            typed_errors.fetch_add(1);
          } else {
            harness_ok.store(false);
            ADD_FAILURE() << "client " << c << " query " << q << ": "
                          << result.status().ToString();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    registry.DisarmAll();  // before Stop(): drain without injection
    server->Stop();
    ASSERT_TRUE(harness_ok.load());
    ASSERT_EQ(ok_count.load() + typed_errors.load(),
              kClients * kQueriesPerClient);
  }
}

// With trigger budgets and enough retries, chaos must not cost any answers:
// every query eventually succeeds, bit-identically.
TEST_F(ChaosTest, BudgetedFaultsAlwaysRecover) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  auto& registry = FailpointRegistry::Instance();
  auto server = StartServer();
  ASSERT_TRUE(registry
                  .ArmFromString(
                      "server.read_frame=error(unavailable):p=0.3:budget=4:"
                      "seed=11;"
                      "net.write_frame=corrupt:p=0.3:budget=4:seed=12;"
                      "storage.scan=error(unavailable):p=0.3:budget=4:seed=13")
                  .ok());
  // Three points, budget 4 each: at most 12 injected failures in total, so
  // 16 retries per call make recovery certain, not merely likely.
  ClientOptions options = ResilientOptions(99);
  options.max_retries = 16;
  auto client =
      AssessClient::Connect("127.0.0.1", server->port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int round = 0; round < 8; ++round) {
    size_t which = static_cast<size_t>(round) % kStatementCount;
    auto result = client->Query(kStatements[which]);
    ASSERT_TRUE(result.ok())
        << "round " << round << ": " << result.status().ToString();
    ExpectSameComputation(expected_[which], *result,
                          "round " + std::to_string(round));
  }
  registry.DisarmAll();
}

// ---------------------------------------------------------------------------
// Targeted fault scenarios.
// ---------------------------------------------------------------------------

// A corrupted frame (either direction) is detected by the CRC32C trailer,
// surfaced as kCorruptFrame, and healed by one retry on a fresh connection.
TEST_F(ChaosTest, CorruptedFrameIsDetectedAndRetried) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  auto& registry = FailpointRegistry::Instance();
  auto server = StartServer();
  ASSERT_TRUE(
      registry.ArmFromString("net.write_frame=corrupt:budget=1:seed=5").ok());
  auto client = AssessClient::Connect("127.0.0.1", server->port(),
                                      ResilientOptions(7));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto result = client->Query(kStatements[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameComputation(expected_[0], *result, "after corruption");
  EXPECT_EQ(registry.triggers("net.write_frame"), 1u)
      << "the corruption was never injected";
  registry.DisarmAll();
}

// Without retries, the same corruption surfaces as a typed kCorruptFrame —
// never a garbled result.
TEST_F(ChaosTest, CorruptedResponseWithoutRetriesIsTyped) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  auto& registry = FailpointRegistry::Instance();
  auto server = StartServer();
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Arm after connecting; the first WriteFrame in either direction is hit.
  ASSERT_TRUE(
      registry.ArmFromString("net.write_frame=corrupt:budget=1:seed=5").ok());
  auto result = client->Query(kStatements[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruptFrame)
      << result.status().ToString();
  registry.DisarmAll();
}

// Reads re-execute: a repeated query id is not replayed. The same id with an
// invalid statement fails as that statement must, and the same id with the
// first statement again is an exact cache hit with the same computation
// (the payload bytes differ only in the measured timings).
TEST_F(ChaosTest, RepeatedQueryIdReExecutes) {
  auto server = StartServer();
  int fd = -1;
  {
    auto connected = ConnectTo("127.0.0.1", server->port(), 2'000);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    fd = *connected;
  }
  constexpr uint64_t kId = 0xFEEDFACE12345678ULL;
  ASSERT_TRUE(WriteFrame(fd, FrameType::kQuery,
                         EncodeQueryPayload(kId, kStatements[1]))
                  .ok());
  Frame first;
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &first).ok());
  ASSERT_EQ(first.type, FrameType::kResult);

  ASSERT_TRUE(WriteFrame(fd, FrameType::kQuery,
                         EncodeQueryPayload(kId, "syntactically !! invalid"))
                  .ok());
  Frame invalid;
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &invalid).ok());
  ASSERT_EQ(invalid.type, FrameType::kError);
  Status remote = Status::OK();
  ASSERT_TRUE(DeserializeStatus(invalid.payload, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kInvalidArgument) << remote.ToString();

  ASSERT_TRUE(WriteFrame(fd, FrameType::kQuery,
                         EncodeQueryPayload(kId, kStatements[1]))
                  .ok());
  Frame again;
  ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &again).ok());
  ASSERT_EQ(again.type, FrameType::kResult);
  auto first_result = DeserializeAssessResult(first.payload);
  auto again_result = DeserializeAssessResult(again.payload);
  ASSERT_TRUE(first_result.ok()) << first_result.status().ToString();
  ASSERT_TRUE(again_result.ok()) << again_result.status().ToString();
  ExpectSameComputation(*first_result, *again_result, "re-executed id");
  CloseSocket(fd);
  auto stats = server->Snapshot();
  EXPECT_EQ(stats.ok_responses, 2u)
      << "every arrival of a query id must execute";
  EXPECT_GE(stats.cache_exact_hits, 1u);
  server->Stop();
}

// Request id 0 opts out of the ingest receipt store: two identical id-0
// ingests both append.
TEST_F(ChaosTest, RequestIdZeroIsNeverDeduplicated) {
  ServerOptions options;
  options.mutable_db = mini_.db.get();
  auto server = StartServer(options);
  int fd = -1;
  {
    auto connected = ConnectTo("127.0.0.1", server->port(), 2'000);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    fd = *connected;
  }
  const BoundCube* bound = *mini_.db->Find("SALES");
  const int64_t rows_before = bound->facts().NumRows();
  const std::string payload = EncodeIngestPayload(
      /*request_id=*/0, "SALES", IngestFormat::kCsv, 0,
      "date,product,store,quantity,sales\n"
      "1997-07-01,Apple,SmartMart,3,0\n");
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(WriteFrame(fd, FrameType::kIngest, payload).ok());
    Frame frame;
    ASSERT_TRUE(ReadFrame(fd, kDefaultMaxFrameBytes, &frame).ok());
    EXPECT_EQ(frame.type, FrameType::kIngestReply);
  }
  CloseSocket(fd);
  EXPECT_EQ(bound->facts().NumRows(), rows_before + 2)
      << "id 0 must append every time";
  server->Stop();
}

// The kFailpoint admin frame: refused by default, honoured (arm, describe,
// then injected fault) when the server opts in.
TEST_F(ChaosTest, FailpointAdminFrameArmsAndDisarms) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  {
    auto locked = StartServer();  // default: admin disabled
    auto client = AssessClient::Connect("127.0.0.1", locked->port());
    ASSERT_TRUE(client.ok());
    auto refused = client->Failpoint("storage.scan=error");
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kNotSupported);
  }
  ServerOptions options;
  options.allow_failpoint_admin = true;
  auto server = StartServer(options);
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  auto armed = client->Failpoint(
      "server.session_execute=error(unavailable, injected by admin):budget=1");
  ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  EXPECT_NE(armed->find("server.session_execute"), std::string::npos);

  auto failed = client->Query(kStatements[0]);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  // The reply is stamped with the client's trace id: "trace 0x...: <message>".
  EXPECT_NE(failed.status().message().find("injected by admin"),
            std::string::npos)
      << failed.status().message();
  EXPECT_NE(failed.status().message().find("trace 0x"), std::string::npos)
      << failed.status().message();

  // Budget spent: the same connection serves the query fine now.
  auto result = client->Query(kStatements[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameComputation(expected_[0], *result, "after budget");

  auto disarmed = client->Failpoint("server.session_execute=off");
  ASSERT_TRUE(disarmed.ok());
  EXPECT_EQ(*disarmed, "no failpoints armed");
}

// An injected storage-layer failure comes back as its typed error and does
// not cost the connection.
TEST_F(ChaosTest, InjectedStorageErrorIsTypedAndSurvivable) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  auto& registry = FailpointRegistry::Instance();
  auto server = StartServer();
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(registry
                  .ArmFromString(
                      "storage.scan=error(internal, disk gremlins):budget=1")
                  .ok());
  auto failed = client->Query(kStatements[3]);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(client->connected()) << "typed error must not cost the link";
  auto result = client->Query(kStatements[3]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameComputation(expected_[3], *result, "after injected error");
  registry.DisarmAll();
}

// A failed morsel inside the shared scan pool surfaces as its typed error —
// the job stops claiming further morsels, the pool and the connection both
// survive, and a clean retry recomputes the bit-identical answer.
TEST_F(ChaosTest, FailedMorselIsTypedErrorNotAHang) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  auto& registry = FailpointRegistry::Instance();
  auto server = StartServer();
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(registry
                  .ArmFromString(
                      "pool.morsel=error(internal, morsel gremlins):budget=1")
                  .ok());
  auto failed = client->Query(kStatements[3]);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(client->connected()) << "typed error must not cost the link";
  auto result = client->Query(kStatements[3]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameComputation(expected_[3], *result, "after morsel failure");
  registry.DisarmAll();
}

// A stuck morsel (injected delay at the pool's execution site) only slows
// the scan down; the answer is still bit-identical.
TEST_F(ChaosTest, DelayedMorselStillCompletes) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  auto& registry = FailpointRegistry::Instance();
  auto server = StartServer();
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(registry.ArmFromString("pool.morsel=delay(25):budget=4").ok());
  auto result = client->Query(kStatements[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameComputation(expected_[0], *result, "after delayed morsels");
  registry.DisarmAll();
}

// A degraded cache (lookups miss, inserts dropped) never changes answers.
TEST_F(ChaosTest, DegradedCacheNeverChangesResults) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  auto& registry = FailpointRegistry::Instance();
  auto server = StartServer();
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(registry
                  .ArmFromString("cache.lookup=error:p=0.5:seed=3;"
                                 "cache.insert=error:p=0.5:seed=4")
                  .ok());
  for (int round = 0; round < 6; ++round) {
    size_t which = static_cast<size_t>(round) % kStatementCount;
    auto result = client->Query(kStatements[which]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameComputation(expected_[which], *result,
                          "round " + std::to_string(round));
  }
  registry.DisarmAll();
}

// A failing trace sink must be invisible to clients: with the slow-query
// log tracing every request and the emit site erroring every time, results
// stay bit-identical, the connection survives, and the failure is only a
// counter — the response was produced before the emit was attempted.
TEST_F(ChaosTest, FailingTraceSinkNeverCorruptsResults) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_TRACING=OFF";
  }
  auto& registry = FailpointRegistry::Instance();
  ServerOptions options;
  options.slow_query_ms = 0;  // every traced query goes through the sink
  auto server = StartServer(options);
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      registry.ArmFromString("trace.emit=error(internal, sink down)").ok());
  for (int round = 0; round < 6; ++round) {
    size_t which = static_cast<size_t>(round) % kStatementCount;
    auto result = client->Query(kStatements[which]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameComputation(expected_[which], *result,
                          "round " + std::to_string(round));
  }
  EXPECT_TRUE(client->connected());
  EXPECT_GT(registry.triggers("trace.emit"), 0u)
      << "the sink failure was never injected";
  auto stats = server->Snapshot();
  EXPECT_EQ(stats.traces_sampled, 6u);
  EXPECT_EQ(stats.slow_queries, 6u)
      << "a failing sink must not lose the slow-query count";
  registry.DisarmAll();
  server->Stop();
}

// A slow trace sink only delays the worker after the response bytes are
// ready; queries still answer correctly and the server drains cleanly.
TEST_F(ChaosTest, SlowTraceSinkOnlySlowsDown) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_TRACING=OFF";
  }
  auto& registry = FailpointRegistry::Instance();
  ServerOptions options;
  options.slow_query_ms = 0;
  auto server = StartServer(options);
  auto client = AssessClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(registry.ArmFromString("trace.emit=delay(25):budget=4").ok());
  for (int round = 0; round < 4; ++round) {
    size_t which = static_cast<size_t>(round) % kStatementCount;
    auto result = client->Query(kStatements[which]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameComputation(expected_[which], *result,
                          "round " + std::to_string(round));
  }
  registry.DisarmAll();
  server->Stop();  // a hung emit would deadlock this drain
}

// ---------------------------------------------------------------------------
// Deadline and retry behaviour that needs no failpoints.
// ---------------------------------------------------------------------------

// A read deadline expiry surfaces as kTimeout; with retries the client
// reconnects and re-executes the query, and gets the same answer the
// in-process session computes.
TEST_F(ChaosTest, ReadDeadlineThenRetryRecovers) {
  ServerOptions options;
  std::atomic<bool> slow_once{true};
  options.pre_execute_hook = [&slow_once] {
    if (slow_once.exchange(false)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  };
  auto server = StartServer(options);

  ClientOptions no_retry;
  no_retry.read_timeout_ms = 100;
  no_retry.seed = 21;
  {
    auto client =
        AssessClient::Connect("127.0.0.1", server->port(), no_retry);
    ASSERT_TRUE(client.ok());
    auto timed_out = client->Query(kStatements[2]);
    ASSERT_FALSE(timed_out.ok());
    EXPECT_EQ(timed_out.status().code(), StatusCode::kTimeout);
    EXPECT_FALSE(client->connected())
        << "an expired read leaves the stream mid-frame; it must close";
  }

  slow_once.store(true);
  ClientOptions with_retry = no_retry;
  with_retry.max_retries = 4;
  with_retry.backoff_base_ms = 50;
  with_retry.seed = 22;
  auto client =
      AssessClient::Connect("127.0.0.1", server->port(), with_retry);
  ASSERT_TRUE(client.ok());
  auto result = client->Query(kStatements[2]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameComputation(expected_[2], *result, "after deadline retry");
}

// Connecting to a server that went away: with retries the client keeps
// trying and reports kUnavailable/kTimeout, never hangs.
TEST_F(ChaosTest, VanishedServerIsTypedNotHung) {
  uint16_t dead_port;
  {
    auto server = StartServer();
    dead_port = server->port();
    server->Stop();
  }
  ClientOptions options = ResilientOptions(31);
  options.max_retries = 2;
  auto started = std::chrono::steady_clock::now();
  auto client = AssessClient::Connect("127.0.0.1", dead_port, options);
  auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(client.ok());
  EXPECT_TRUE(IsAcceptableChaosError(client.status()))
      << client.status().ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);
}

// An established client survives a server restart on the same port.
TEST_F(ChaosTest, ClientReconnectsAfterServerRestart) {
  ServerOptions options;
  auto server = StartServer(options);
  uint16_t port = server->port();

  ClientOptions retrying = ResilientOptions(41);
  auto client = AssessClient::Connect("127.0.0.1", port, retrying);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Query(kStatements[0]).ok());

  server->Stop();
  options.port = port;  // rebind the same port
  server = StartServer(options);

  auto result = client->Query(kStatements[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameComputation(expected_[0], *result, "after restart");
}

}  // namespace
}  // namespace assess

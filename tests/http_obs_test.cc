// The observability HTTP endpoint and trace-id propagation: raw-socket GETs
// against /metrics, /healthz (503 during drain), /workload and /traces,
// malformed-request handling, the obs.profile failpoint, and the end-to-end
// join between the client's trace id, the slow-query log and /traces.

#include "server/http_obs.h"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/assess_client.h"
#include "common/failpoint.h"
#include "obs/trace.h"
#include "server/assessd.h"
#include "server/protocol.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;

const char* kStatement =
    "with SALES by month assess sales against 10 labels quartiles";

std::string TraceHex(uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

/// Sends raw bytes to the HTTP port and returns everything the server wrote
/// before closing — status line, headers and body in one string.
std::string RawHttp(uint16_t port, const std::string& request) {
  auto fd = ConnectTo("127.0.0.1", port, /*timeout_ms=*/2000);
  if (!fd.ok()) return "connect failed: " + fd.status().ToString();
  std::string out;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(*fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  // Half-close: a truncated request reaches the server as EOF instead of
  // parking its single serving thread on the receive timeout.
  ::shutdown(*fd, SHUT_WR);
  char buf[4096];
  while (true) {
    ssize_t n = ::recv(*fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  CloseSocket(*fd);
  return out;
}

std::string Get(uint16_t port, const std::string& path) {
  return RawHttp(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

class HttpObsTest : public ::testing::Test {
 protected:
  HttpObsTest() : mini_(BuildMiniSales()) {}

  std::unique_ptr<AssessServer> StartServer(ServerOptions options = {}) {
    options.http_port = 0;  // ephemeral
    auto server = std::make_unique<AssessServer>(mini_.db.get(), options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    EXPECT_GT(server->http_port(), 0);
    return server;
  }

  AssessClient ConnectOrDie(const AssessServer& server,
                            ClientOptions options = {}) {
    auto client =
        AssessClient::Connect("127.0.0.1", server.port(), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  testutil::MiniDb mini_;
};

TEST_F(HttpObsTest, MetricsEndpointServesPrometheusText) {
  auto server = StartServer();
  AssessClient client = ConnectOrDie(*server);
  ASSERT_TRUE(client.Query(kStatement).ok());

  std::string response = Get(server->http_port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE assessd_requests_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE assessd_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE assessd_workload_fingerprints gauge"),
            std::string::npos);
  EXPECT_NE(response.find("assessd_workload_queries_total 1"),
            std::string::npos);

  // The request counter counts HTTP requests (including the in-flight one),
  // visible on the next scrape and in the stats frame.
  std::string again = Get(server->http_port(), "/metrics");
  EXPECT_NE(again.find("assessd_http_requests_total 2"), std::string::npos);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->http_requests, 2u);
  EXPECT_EQ(stats->workload_fingerprints, 1u);
}

TEST_F(HttpObsTest, WorkloadEndpointServesAdvisorJson) {
  auto server = StartServer();
  AssessClient client = ConnectOrDie(*server);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Query(kStatement).ok());
  }
  std::string response = Get(server->http_port(), "/workload");
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(response.find("\"fingerprints\": 1"), std::string::npos);
  EXPECT_NE(response.find("\"total_queries\": 3"), std::string::npos);
  EXPECT_NE(response.find("\"dropped_samples\": 0"), std::string::npos);
  // The one fingerprint leads the top list with all three executions.
  EXPECT_NE(response.find("\"top\": [{\"query\": \"SALES "),
            std::string::npos);
  EXPECT_NE(response.find("\"executions\": 3, \"total_ms\": "),
            std::string::npos);
}

TEST_F(HttpObsTest, WorkloadKillSwitchProfilesNothing) {
  ServerOptions options;
  options.workload_profile = false;
  auto server = StartServer(options);
  AssessClient client = ConnectOrDie(*server);
  ASSERT_TRUE(client.Query(kStatement).ok());
  std::string response = Get(server->http_port(), "/workload");
  EXPECT_NE(response.find("\"fingerprints\": 0"), std::string::npos);
  EXPECT_NE(response.find("\"total_queries\": 0"), std::string::npos);
}

TEST_F(HttpObsTest, MalformedAndUnknownRequestsGetTypedErrors) {
  auto server = StartServer();
  const uint16_t port = server->http_port();
  EXPECT_NE(Get(port, "/nope").find("HTTP/1.0 404 Not Found"),
            std::string::npos);
  EXPECT_NE(RawHttp(port, "BOGUS\r\n\r\n").find("HTTP/1.0 400 Bad Request"),
            std::string::npos);
  EXPECT_NE(RawHttp(port, "POST /metrics HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 400 Bad Request"),
            std::string::npos);
  EXPECT_NE(RawHttp(port, "GET /metrics\r\n\r\n")
                .find("HTTP/1.0 400 Bad Request"),
            std::string::npos);
  // Truncated request (no header terminator): the server answers 400 when
  // the peer gives up rather than hanging.
  EXPECT_NE(RawHttp(port, "GET /metri").find("HTTP/1.0 400 Bad Request"),
            std::string::npos);
  // The listener survives all of that.
  EXPECT_NE(Get(port, "/healthz").find("HTTP/1.0 200 OK"), std::string::npos);
}

TEST_F(HttpObsTest, HealthzAnswers503DuringDrain) {
  ServerOptions options;
  options.pre_execute_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };
  auto server = StartServer(options);
  const uint16_t http_port = server->http_port();
  EXPECT_NE(Get(http_port, "/healthz").find("HTTP/1.0 200 OK"),
            std::string::npos);

  std::atomic<bool> query_sent{false};
  std::thread slow_client([&] {
    auto client = AssessClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    query_sent.store(true);
    EXPECT_TRUE(client->Query(kStatement).ok());
  });
  while (!query_sent.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread stopper([&] { server->Stop(); });
  // The HTTP listener is stopped LAST in Stop(), so /healthz keeps
  // answering — with 503 — while the in-flight query drains.
  bool saw_draining = false;
  for (int i = 0; i < 200 && !saw_draining; ++i) {
    std::string response = Get(http_port, "/healthz");
    if (response.find("503 Service Unavailable") != std::string::npos) {
      saw_draining = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stopper.join();
  slow_client.join();
  EXPECT_TRUE(saw_draining);
}

TEST_F(HttpObsTest, ObsProfileFailpointNeverFailsQueries) {
  if (!kFailpointsCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_FAILPOINTS=OFF";
  }
  auto server = StartServer();
  ASSERT_TRUE(
      FailpointRegistry::Instance().ArmFromString("obs.profile=error").ok());
  AssessClient client = ConnectOrDie(*server);
  for (int i = 0; i < 4; ++i) {
    auto r = client.Query(kStatement);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  FailpointRegistry::Instance().DisarmAll();
  // Dropped samples are visible, and the profile stayed empty — the broken
  // profiler moved a counter, nothing else. The endpoint still serves.
  std::string response = Get(server->http_port(), "/workload");
  EXPECT_NE(response.find("\"fingerprints\": 0"), std::string::npos);
  std::string metrics = Get(server->http_port(), "/metrics");
  EXPECT_NE(metrics.find("assessd_workload_dropped_samples_total 4"),
            std::string::npos);
}

TEST_F(HttpObsTest, TraceIdJoinsClientSlowQueryLogAndTraceRing) {
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "built with ASSESS_TRACING=OFF";
  }
  ServerOptions options;
  options.slow_query_ms = 0;  // every traced query is "slow"
  std::mutex log_mutex;
  std::vector<std::string> slow_lines;
  options.slow_query_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mutex);
    slow_lines.push_back(line);
  };
  auto server = StartServer(options);

  ClientOptions client_options;
  client_options.seed = 42;  // deterministic trace ids
  AssessClient client = ConnectOrDie(*server, client_options);
  ASSERT_TRUE(client.Query(kStatement).ok());
  ASSERT_NE(client.last_trace_id(), 0u);
  const std::string hex = TraceHex(client.last_trace_id());

  // 1. The slow-query log line leads with request id + trace id.
  {
    std::lock_guard<std::mutex> lock(log_mutex);
    ASSERT_EQ(slow_lines.size(), 1u);
    EXPECT_NE(slow_lines[0].find("[assessd] slow query request="),
              std::string::npos);
    EXPECT_NE(slow_lines[0].find("trace=" + hex), std::string::npos);
  }

  // 2. /traces carries the same id as the root of a span tree.
  std::string traces = Get(server->http_port(), "/traces");
  EXPECT_NE(traces.find("\"trace_id\":\"" + hex + "\""), std::string::npos);
  EXPECT_NE(traces.find("\"traceEvents\""), std::string::npos);

  // 3. The stats frame counts the traced frame.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->trace_ids_received, 1u);

  // 4. EXPLAIN ANALYZE stamps its own id into the rendered report.
  auto analyzed = client.ExplainAnalyze(kStatement);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("trace: " + TraceHex(client.last_trace_id())),
            std::string::npos);
  // ...and the profiler surfaces the fingerprint's seen count in it: the
  // query above was the first sighting, this get is the second.
  EXPECT_NE(analyzed->find("seen=2"), std::string::npos) << *analyzed;
}

TEST_F(HttpObsTest, ErrorRepliesCarryTheTraceId) {
  auto server = StartServer();
  ClientOptions client_options;
  client_options.seed = 7;
  AssessClient client = ConnectOrDie(*server, client_options);
  auto bad = client.Query("with NOPE by month assess sales labels quartiles");
  ASSERT_FALSE(bad.ok());
  ASSERT_NE(client.last_trace_id(), 0u);
  EXPECT_NE(bad.status().message().find(
                "trace " + TraceHex(client.last_trace_id())),
            std::string::npos);
}

TEST_F(HttpObsTest, UntracedClientStillWorks) {
  auto server = StartServer();
  ClientOptions client_options;
  client_options.trace_ids = false;  // pre-trace wire shape: no flag bit
  AssessClient client = ConnectOrDie(*server, client_options);
  ASSERT_TRUE(client.Query(kStatement).ok());
  EXPECT_EQ(client.last_trace_id(), 0u);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->trace_ids_received, 0u);
}

}  // namespace
}  // namespace assess

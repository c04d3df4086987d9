// Measures what workload profiling costs: the bench_mqo_concurrent
// correlated workload — six loopback clients firing correlated dashboard
// rounds, a fresh date slice per round so the result cache never answers
// round r from round r-1 — runs interleaved with --workload-profile off and
// on. The profiler's hot path is one fingerprint hash + a handful of
// relaxed atomics per query, so the acceptance floor is tight: at most 3%
// QPS overhead.
//
// Writes BENCH_workload.json for the regression record.

#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/assess_client.h"
#include "obs/workload_profiler.h"
#include "server/assessd.h"
#include "server/protocol.h"
#include "ssb/sales_generator.h"

namespace {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  long long value = std::atoll(env);
  return value > 0 ? value : fallback;
}

}  // namespace

int main() {
  using namespace assess;
  using namespace assess::bench;

  const int64_t kFacts = EnvInt64("ASSESS_WORKLOAD_BENCH_FACTS", 2000000);
  const int kRounds =
      static_cast<int>(EnvInt64("ASSESS_WORKLOAD_BENCH_ROUNDS", 60));
  const int kTrials =
      static_cast<int>(EnvInt64("ASSESS_WORKLOAD_BENCH_TRIALS", 5));
  constexpr int kClients = 6;

  std::fprintf(stderr, "[bench] generating SALES (%lld facts)...\n",
               static_cast<long long>(kFacts));
  SalesConfig config;
  config.facts = kFacts;
  config.seed = 7;
  auto built = BuildSalesDatabase(config);
  if (!built.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<StarDatabase> db = std::move(*built);

  auto bound = db->Find("SALES");
  if (!bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
    return 1;
  }
  const Hierarchy& date = (*bound)->schema().hierarchy(0);
  if (date.LevelCardinality(0) < kRounds) {
    std::fprintf(stderr, "not enough date members for %d rounds\n", kRounds);
    return 1;
  }

  // The same correlated shapes as bench_mqo_concurrent: a duplicate pair,
  // distinct group-bys over the same slice, and a year roll-up.
  auto statement = [&](int client, int round) {
    const std::string& day = date.MemberName(0, round);
    const char* shape[kClients] = {
        "by month assess quantity",
        "by month assess quantity",  // duplicate of client 0
        "by product assess quantity",
        "by country assess storeSales",
        "by month, country assess storeCost",
        "by year assess quantity",
    };
    return std::string("with SALES for date = '") + day + "' " +
           shape[client] + " against 10 labels quartiles";
  };

  // One concurrent run of the full workload; returns wall seconds. When
  // profiling is on, the server's profile totals are copied out before the
  // server stops.
  auto run_workload = [&](bool profile_on,
                          WorkloadReport* report = nullptr) -> double {
    ServerOptions options;
    options.worker_threads = 2;
    options.mqo_max_batch = kClients;
    options.workload_profile = profile_on;
    AssessServer server(db.get(), options);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      std::exit(1);
    }
    std::atomic<int> failures{0};
    std::barrier round_barrier(kClients);
    Stopwatch watch;
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        auto client = AssessClient::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          ++failures;
          return;
        }
        for (int round = 0; round < kRounds; ++round) {
          round_barrier.arrive_and_wait();
          if (!client->Query(statement(c, round)).ok()) ++failures;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    double seconds = watch.ElapsedSeconds();
    if (profile_on && report != nullptr) *report = server.profiler().BuildReport();
    server.Stop();
    if (failures.load() > 0) {
      std::fprintf(stderr, "FAIL: %d request(s) failed (profile %s)\n",
                   failures.load(), profile_on ? "on" : "off");
      std::exit(1);
    }
    return seconds;
  };

  const int requests = kClients * kRounds;
  std::printf("workload profiler overhead (%lld facts, %d clients, %d rounds, "
              "%d interleaved trials)\n\n",
              static_cast<long long>(kFacts), kClients, kRounds, kTrials);
  std::printf("%6s %9s %10s %10s\n", "trial", "profile", "wall(s)", "qps");

  // Interleave off/on trials so drift (page cache, frequency scaling) hits
  // both configurations equally; score each configuration by its best run.
  run_workload(false);  // warmup, untimed and unprofiled
  double best_off = -1.0;
  double best_on = -1.0;
  WorkloadReport report;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (bool on : {false, true}) {
      double seconds = run_workload(on, on ? &report : nullptr);
      double qps = seconds > 0.0 ? requests / seconds : 0.0;
      std::printf("%6d %9s %10.3f %10.1f\n", trial, on ? "on" : "off",
                  seconds, qps);
      double& best = on ? best_on : best_off;
      if (best < 0.0 || seconds < best) best = seconds;
    }
  }
  double qps_off = requests / best_off;
  double qps_on = requests / best_on;
  double overhead_pct = (best_on - best_off) / best_off * 100.0;
  std::printf("\nbest-of-%d: %.1f qps off, %.1f qps on -> %.2f%% overhead\n\n",
              kTrials, qps_off, qps_on, overhead_pct);

  std::FILE* json = std::fopen("BENCH_workload.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_workload.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"facts\": %lld,\n  \"clients\": %d,\n"
               "  \"rounds\": %d,\n  \"trials\": %d,\n"
               "  \"qps_profile_off\": %.2f,\n"
               "  \"qps_profile_on\": %.2f,\n"
               "  \"profiler_overhead_pct\": %.3f,\n"
               "  \"profile\": {\"fingerprints\": %llu, "
               "\"evicted_fingerprints\": %llu, \"total_queries\": %llu}"
               "\n}\n",
               static_cast<long long>(kFacts), kClients, kRounds, kTrials,
               qps_off, qps_on, overhead_pct,
               static_cast<unsigned long long>(report.fingerprints),
               static_cast<unsigned long long>(report.evicted_fingerprints),
               static_cast<unsigned long long>(report.total_queries));
  std::fclose(json);
  std::printf("wrote BENCH_workload.json\n");

  if (overhead_pct > 3.0) {
    std::fprintf(stderr,
                 "FAIL: profiler overhead %.2f%% above the 3%% floor\n",
                 overhead_pct);
    return 1;
  }
  return 0;
}

// Tests for the observability layer (src/obs/): the metrics registry
// (counters, gauges, histograms, Prometheus exposition), the span-tree
// tracer (nesting, cross-thread propagation through the TaskPool, golden
// serializations under a fake clock, deterministic sampling), and the
// StepTimings-from-trace view the executor derives. The concurrent cases
// double as the TSan targets for the lock-free metric paths (see
// .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "assess/result_set.h"
#include "assess/session.h"
#include "common/task_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace assess {
namespace {

using ::assess::testutil::BuildMiniSales;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Metrics, HistogramBucketEdgesAreInclusive) {
  Histogram hist({1.0, 2.0, 4.0});
  hist.Observe(1.0);  // == first edge: lands in bucket 0
  hist.Observe(2.0);  // == second edge: lands in bucket 1
  hist.Observe(3.0);  // in (2, 4]: bucket 2
  hist.Observe(100.0);  // past the last edge: +Inf bucket
  std::vector<uint64_t> buckets = hist.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(hist.Count(), 4u);
  EXPECT_DOUBLE_EQ(hist.Sum(), 106.0);
}

TEST(Metrics, HistogramQuantilesAreMonotoneAndPositive) {
  Histogram hist(Histogram::LatencyBoundsMs());
  for (int i = 1; i <= 1000; ++i) hist.Observe(i * 0.1);  // 0.1 .. 100 ms
  double p50 = hist.Quantile(0.50);
  double p90 = hist.Quantile(0.90);
  double p99 = hist.Quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Bucket interpolation keeps the estimate within a doubling bucket of the
  // true quantile.
  EXPECT_GT(p50, 25.0);
  EXPECT_LT(p50, 100.0);
  // +Inf observations clamp to the last finite bound.
  Histogram tiny({1.0});
  tiny.Observe(50.0);
  EXPECT_DOUBLE_EQ(tiny.Quantile(0.99), 1.0);
  // Empty histogram: all quantiles zero.
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
}

TEST(Metrics, RegistryCreatesOnceAndRejectsKindMismatch) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  Counter* c1 = registry.GetCounter("obs_test_counter", "a test counter");
  Counter* c2 = registry.GetCounter("obs_test_counter");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1, c2);
  // Same name, different kind: refused.
  EXPECT_EQ(registry.GetHistogram("obs_test_counter", {1.0}), nullptr);

  c1->Inc(3);
  Histogram* h = registry.GetHistogram("obs_test_hist", {1.0, 2.0}, "a hist");
  ASSERT_NE(h, nullptr);
  h->Observe(1.5);

  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP obs_test_counter a test counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_counter counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test_hist_bucket{le=\"2\"} 1"), std::string::npos);
  EXPECT_NE(text.find("obs_test_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_hist_count 1"), std::string::npos);
}

TEST(Metrics, ConcurrentUpdatesAreExactUnderContention) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  Counter counter;
  Histogram hist(Histogram::LatencyBoundsMs());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Inc();
        hist.Observe(static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(hist.Count(), static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t bucket_total = 0;
  for (uint64_t b : hist.BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, hist.Count());
}

// ---------------------------------------------------------------------------
// Tracer: the TraceContext API works in every build; Span-based recording
// requires ASSESS_TRACING=ON and skips otherwise.
// ---------------------------------------------------------------------------

/// A deterministic clock: every reading advances 1000 ns.
struct FakeClock {
  int64_t t = 0;
  int64_t operator()() { return t += 1000; }
};

TEST(Trace, GoldenJsonAndChromeAndTreeUnderFakeClock) {
  TraceContext trace;
  trace.SetClockForTest(FakeClock{});
  // Built through the direct API so this golden holds in OFF builds too.
  auto root = trace.StartSpan("root", TraceContext::kNoSpan);   // start 1000
  trace.AddInt(root, "rows", 7);
  auto child = trace.StartSpan("child", root);                  // start 2000
  trace.AddString(child, "mode", "scan");
  trace.EndSpan(child);                                         // end 3000
  trace.EndSpan(root);                                          // end 4000

  EXPECT_EQ(trace.ToJson(),
            "{\"trace\":{\"spans\":["
            "{\"id\":0,\"parent\":-1,\"name\":\"root\",\"thread\":0,"
            "\"start_ns\":1000,\"duration_ns\":3000,\"attrs\":{\"rows\":7}},"
            "{\"id\":1,\"parent\":0,\"name\":\"child\",\"thread\":0,"
            "\"start_ns\":2000,\"duration_ns\":1000,"
            "\"attrs\":{\"mode\":\"scan\"}}]}}");
  EXPECT_EQ(trace.ToChromeTrace(),
            "{\"traceEvents\":["
            "{\"name\":\"root\",\"ph\":\"X\",\"ts\":1.000,\"dur\":3.000,"
            "\"pid\":1,\"tid\":0,\"args\":{\"rows\":7}},"
            "{\"name\":\"child\",\"ph\":\"X\",\"ts\":2.000,\"dur\":1.000,"
            "\"pid\":1,\"tid\":0,\"args\":{\"mode\":\"scan\"}}]}");
  EXPECT_EQ(trace.ToTreeString(),
            "root 0.003ms {rows=7}\n"
            "  child 0.001ms {mode=scan}\n");
}

TEST(Trace, OpenSpansRenderAsOpenAndSkipChromeEvents) {
  TraceContext trace;
  trace.SetClockForTest(FakeClock{});
  auto open = trace.StartSpan("stuck", TraceContext::kNoSpan);
  (void)open;  // never ended
  EXPECT_NE(trace.ToTreeString().find("stuck (open)"), std::string::npos);
  EXPECT_EQ(trace.ToChromeTrace(), "{\"traceEvents\":[]}");
  EXPECT_NE(trace.ToJson().find("\"duration_ns\":-1"), std::string::npos);
}

TEST(Trace, SpanSecondsSumsOnlyTheRequestedSubtree) {
  TraceContext trace;
  trace.SetClockForTest(FakeClock{});
  auto a = trace.StartSpan("exec", TraceContext::kNoSpan);  // 1000
  auto a1 = trace.StartSpan("get_c", a);                    // 2000
  trace.EndSpan(a1);                                        // 3000 -> 1000ns
  trace.EndSpan(a);                                         // 4000
  auto b = trace.StartSpan("exec", TraceContext::kNoSpan);  // 5000
  auto b1 = trace.StartSpan("get_c", b);                    // 6000
  trace.EndSpan(b1);                                        // 7000 -> 1000ns
  trace.EndSpan(b);                                         // 8000

  EXPECT_DOUBLE_EQ(trace.SpanSeconds("get_c"), 2000e-9);
  EXPECT_DOUBLE_EQ(trace.SpanSeconds("get_c", a), 1000e-9);
  EXPECT_DOUBLE_EQ(trace.SpanSeconds("get_c", b), 1000e-9);
  EXPECT_DOUBLE_EQ(trace.SpanSeconds("absent"), 0.0);
}

TEST(Trace, SpansNestAutomaticallyUnderTheThreadScope) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "needs ASSESS_TRACING=ON";
  TraceContext trace;
  {
    TraceContext::Scope scope(&trace);
    Span outer("outer");
    {
      Span inner("inner");
      Span innermost("innermost");
      (void)innermost;
    }
    Span sibling("sibling");
    (void)sibling;
  }
  std::vector<SpanNode> nodes = trace.Snapshot();
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes[0].name, "outer");
  EXPECT_EQ(nodes[0].parent, TraceContext::kNoSpan);
  EXPECT_EQ(nodes[1].name, "inner");
  EXPECT_EQ(nodes[1].parent, nodes[0].id);
  EXPECT_EQ(nodes[2].name, "innermost");
  EXPECT_EQ(nodes[2].parent, nodes[1].id);
  EXPECT_EQ(nodes[3].name, "sibling");
  EXPECT_EQ(nodes[3].parent, nodes[0].id);
  for (const SpanNode& node : nodes) EXPECT_GE(node.duration_ns, 0);
}

TEST(Trace, NoInstalledTraceMeansNoRecordingAnywhere) {
  Span orphan("orphan");
  EXPECT_FALSE(orphan.active());
  EXPECT_EQ(orphan.context(), nullptr);
  EXPECT_EQ(TraceContext::Current(), nullptr);
}

TEST(Trace, PoolWorkersParentTheirSpansUnderTheSubmitter) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "needs ASSESS_TRACING=ON";
  TaskPool pool(2);
  TraceContext trace;
  TraceContext::SpanId submit_id = TraceContext::kNoSpan;
  {
    TraceContext::Scope scope(&trace);
    Span submit("submit");
    submit_id = submit.id();
    std::atomic<int> ran{0};
    Status status = pool.RunMorsels(16, 2, [&](int64_t) {
      ran.fetch_add(1);
      return Status::OK();
    });
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(ran.load(), 16);
  }
  // Every pool.drain span — whether drained by the submitting thread or by
  // a pool worker — parents under the submitting span. At least one exists
  // on any host (the submitter always participates); how many is up to the
  // scheduler, so no worker-count assertion.
  int drains = 0;
  int64_t morsels = 0;
  for (const SpanNode& node : trace.Snapshot()) {
    if (node.name != "pool.drain") continue;
    ++drains;
    EXPECT_EQ(node.parent, submit_id);
    for (const TraceAttr& attr : node.attrs) {
      if (attr.key == "morsels") morsels += attr.int_value;
    }
  }
  EXPECT_GE(drains, 1);
  EXPECT_EQ(morsels, 16);
}

TEST(Trace, SamplerIsDeterministicUnderAFixedSeed) {
  TraceSampler a(0.5, 42), b(0.5, 42), c(0.5, 43);
  std::vector<bool> seq_a, seq_b, seq_c;
  int sampled = 0;
  for (int i = 0; i < 200; ++i) {
    seq_a.push_back(a.Sample());
    seq_b.push_back(b.Sample());
    seq_c.push_back(c.Sample());
    if (seq_a.back()) ++sampled;
  }
  EXPECT_EQ(seq_a, seq_b);    // same seed: identical decisions
  EXPECT_NE(seq_a, seq_c);    // different seed: different sequence
  EXPECT_GT(sampled, 50);     // rate 0.5 +- a wide tolerance
  EXPECT_LT(sampled, 150);
  // Degenerate rates never consult the RNG.
  TraceSampler all(1.0, 1), none(0.0, 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(all.Sample());
    EXPECT_FALSE(none.Sample());
  }
}

// ---------------------------------------------------------------------------
// StepTimings as a trace view
// ---------------------------------------------------------------------------

TEST(TraceView, TracedQueryDerivesStepTimingsFromItsSpans) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "needs ASSESS_TRACING=ON";
  testutil::MiniDb mini = BuildMiniSales();
  AssessSession session(mini.db.get());
  const char* statement =
      "with SALES by month assess sales against 10 labels quartiles";

  TraceContext trace;
  Result<AssessResult> result = [&] {
    TraceContext::Scope scope(&trace);
    return session.Query(statement);
  }();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(trace.span_count(), 0u);

  // The executor filled result->timings from the trace; recomputing the
  // view over the whole trace (one query executed, so the whole trace is
  // that query) must agree exactly.
  StepTimings view = StepTimingsFromTrace(trace);
  EXPECT_DOUBLE_EQ(result->timings.get_c, view.get_c);
  EXPECT_DOUBLE_EQ(result->timings.get_b, view.get_b);
  EXPECT_DOUBLE_EQ(result->timings.get_cb, view.get_cb);
  EXPECT_DOUBLE_EQ(result->timings.transform, view.transform);
  EXPECT_DOUBLE_EQ(result->timings.join, view.join);
  EXPECT_DOUBLE_EQ(result->timings.compare, view.compare);
  EXPECT_DOUBLE_EQ(result->timings.label, view.label);
  EXPECT_GT(result->timings.Total(), 0.0);

  // The trace carries the expected structural spans.
  EXPECT_GT(trace.SpanSeconds("execute"), 0.0);
  EXPECT_GT(trace.SpanSeconds("engine.get"), 0.0);
}

TEST(TraceView, UntracedQueryStillFillsStepTimings) {
  testutil::MiniDb mini = BuildMiniSales();
  AssessSession session(mini.db.get());
  auto result = session.Query(
      "with SALES by month assess sales against 10 labels quartiles");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Without a trace the executor's stopwatches fill the timings directly.
  EXPECT_GT(result->timings.Total(), 0.0);
}

}  // namespace
}  // namespace assess

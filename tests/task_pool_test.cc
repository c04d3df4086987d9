// The work-stealing morsel pool underneath every scan: completeness (each
// morsel runs exactly once), error propagation (first failure wins and stops
// the job), and liveness (the submitting thread always participates, so a
// saturated or empty pool can never deadlock a query).

#include "common/task_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace assess {
namespace {

TEST(TaskPoolTest, EveryMorselRunsExactlyOnce) {
  TaskPool pool(4);
  constexpr int64_t kMorsels = 1000;
  std::vector<std::atomic<int>> runs(kMorsels);
  Status status = pool.RunMorsels(kMorsels, 4, [&](int64_t m) {
    runs[m].fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (int64_t m = 0; m < kMorsels; ++m) {
    EXPECT_EQ(runs[m].load(), 1) << "morsel " << m;
  }
  TaskPoolStats stats = pool.stats();
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_EQ(stats.jobs_run, 1u);
  EXPECT_EQ(stats.morsels_run, static_cast<uint64_t>(kMorsels));
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(TaskPoolTest, SerialInlinePathRunsInOrder) {
  // One participant must run every morsel inline on the caller, in index
  // order — the code path small scans and threads=1 take.
  for (int workers : {1, 3}) {
    TaskPool pool(workers);
    std::vector<int64_t> order;
    Status status = pool.RunMorsels(8, 1, [&](int64_t m) {
      order.push_back(m);  // unsynchronized on purpose: must be caller-only
      return Status::OK();
    });
    ASSERT_TRUE(status.ok());
    ASSERT_EQ(order.size(), 8u);
    for (int64_t m = 0; m < 8; ++m) EXPECT_EQ(order[m], m);
  }
}

TEST(TaskPoolTest, FirstErrorWinsAndStopsClaiming) {
  TaskPool pool(4);
  constexpr int64_t kMorsels = 10000;
  std::atomic<int64_t> ran{0};
  Status status = pool.RunMorsels(kMorsels, 4, [&](int64_t m) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (m == 7) return Status::Internal("morsel 7 exploded");
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("morsel 7"), std::string::npos);
  // The job stops claiming after the failure: nowhere near all morsels ran.
  EXPECT_LT(ran.load(), kMorsels);
}

TEST(TaskPoolTest, CallerParticipatesSoSaturationCannotDeadlock) {
  // Occupy every pool worker with one long job, then submit another from
  // this thread: it must finish because the submitter drains it alone.
  TaskPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> blocked{0};
  std::thread hog([&] {
    // 3 morsels, 3 participants: the hog thread plus both pool workers all
    // park inside a morsel until released — the pool is fully saturated.
    Status status = pool.RunMorsels(3, 3, [&](int64_t) {
      blocked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      return Status::OK();
    });
    EXPECT_TRUE(status.ok());
  });
  while (blocked.load() < 3) std::this_thread::yield();

  std::atomic<int64_t> ran{0};
  Status status = pool.RunMorsels(64, 2, [&](int64_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(ran.load(), 64);

  release.store(true);
  hog.join();
}

TEST(TaskPoolTest, ConcurrentJobsShareOneWorkerSet) {
  TaskPool pool(4);
  constexpr int kJobs = 8;
  constexpr int64_t kMorsels = 256;
  std::vector<std::thread> submitters;
  std::atomic<int64_t> total{0};
  for (int j = 0; j < kJobs; ++j) {
    submitters.emplace_back([&] {
      Status status = pool.RunMorsels(kMorsels, 0, [&](int64_t) {
        total.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      });
      EXPECT_TRUE(status.ok());
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(total.load(), kJobs * kMorsels);
  EXPECT_EQ(pool.stats().jobs_run, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(pool.stats().queue_depth, 0u);
}

TEST(TaskPoolTest, ScanCountsAccumulate) {
  TaskPool pool(1);
  pool.AddScanCounts(10, 3, 1000, 40, 700);
  pool.AddScanCounts(5, 0, 500, 2, 0);
  TaskPoolStats stats = pool.stats();
  EXPECT_EQ(stats.morsels_scanned, 15u);
  EXPECT_EQ(stats.morsels_skipped, 3u);
  EXPECT_EQ(stats.rows_visited, 1500u);
  EXPECT_EQ(stats.rows_passed, 42u);
  EXPECT_EQ(stats.setup_entries, 700u);
}

TEST(TaskPoolTest, SharedPoolIsOneInstance) {
  const std::shared_ptr<TaskPool>& a = TaskPool::Shared();
  const std::shared_ptr<TaskPool>& b = TaskPool::Shared();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_GE(a->parallelism(), 1);
}

TEST(TaskPoolTest, ZeroMorselJobIsANoOp) {
  TaskPool pool(2);
  Status status =
      pool.RunMorsels(0, 4, [&](int64_t) { return Status::Internal("never"); });
  EXPECT_TRUE(status.ok());
}

}  // namespace
}  // namespace assess

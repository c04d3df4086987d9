#include "common/task_pool.h"

#include <algorithm>
#include <cstdlib>

#include "common/failpoint.h"
#include "obs/trace.h"

namespace assess {

namespace {

int DefaultWorkerCount() {
  int forced = ForcedThreadsFromEnv();
  if (forced > 0) return forced;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace

int ForcedThreadsFromEnv() {
  static const int forced = [] {
    const char* env = std::getenv("ASSESS_THREADS");
    if (env == nullptr || *env == '\0') return 0;
    int value = std::atoi(env);
    return value > 0 ? value : 0;
  }();
  return forced;
}

/// One submitted job. Lives on the submitter's stack: workers only ever
/// reach it through active_jobs_ under mutex_, and RunMorsels unpublishes
/// it (again under mutex_, after every participant has left) before
/// returning — so no worker can hold a dangling pointer.
struct TaskPool::Job {
  const MorselFn* fn = nullptr;
  int64_t num_morsels = 0;
  int max_participants = 1;
  /// Next unclaimed morsel; claiming is one uncontended-case fetch-add,
  /// which is the whole scheduling cost per 64K rows.
  std::atomic<int64_t> next{0};
  /// Set once on the first callback error; later claims stop immediately.
  std::atomic<bool> failed{false};
  Status error;       ///< first error (guarded by pool mutex_)
  int participants = 0;  ///< threads inside Drain() (guarded by mutex_)
  std::condition_variable done_cv;  ///< waits on mutex_: participants == 0
  /// The submitter's trace position, captured before publication: workers
  /// install it so their pool-side spans parent under the submitting
  /// query's span even though they run on foreign threads. The trace
  /// outlives the job because RunMorsels (called beneath the traced scope)
  /// does not return until every participant has left.
  TraceContext::Binding trace;
};

TaskPool::TaskPool(int workers) {
  int count = workers <= 0 ? DefaultWorkerCount() : workers;
  workers_.reserve(count);
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back(&TaskPool::WorkerLoop, this);
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

const std::shared_ptr<TaskPool>& TaskPool::Shared() {
  static const std::shared_ptr<TaskPool> pool = std::make_shared<TaskPool>(0);
  return pool;
}

Status TaskPool::RunOne(Job* job, int64_t morsel) {
  ASSESS_FAILPOINT("pool.morsel");
  morsels_run_.fetch_add(1, std::memory_order_relaxed);
  return (*job->fn)(morsel);
}

void TaskPool::Drain(Job* job) {
  TraceContext::BindScope bind(job->trace);
  Span span("pool.drain");
  int64_t ran = 0;
  while (!job->failed.load(std::memory_order_acquire)) {
    int64_t morsel = job->next.fetch_add(1, std::memory_order_relaxed);
    if (morsel >= job->num_morsels) break;
    Status status = RunOne(job, morsel);
    ++ran;
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job->failed.load(std::memory_order_relaxed)) {
        job->error = std::move(status);
        job->failed.store(true, std::memory_order_release);
      }
    }
  }
  span.AddInt("morsels", ran);
}

TaskPool::Job* TaskPool::ClaimEligibleJobLocked() {
  for (Job* job : active_jobs_) {
    if (job->failed.load(std::memory_order_relaxed)) continue;
    if (job->next.load(std::memory_order_relaxed) >= job->num_morsels) {
      continue;
    }
    if (job->participants >= job->max_participants) continue;
    ++job->participants;
    return job;
  }
  return nullptr;
}

void TaskPool::WorkerLoop() {
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        if (stop_) return true;
        job = ClaimEligibleJobLocked();
        return job != nullptr;
      });
      if (job == nullptr) return;  // stop_
    }
    Drain(job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--job->participants == 0) job->done_cv.notify_all();
    }
  }
}

Status TaskPool::RunMorsels(int64_t num_morsels, int max_participants,
                            const MorselFn& fn) {
  if (num_morsels <= 0) return Status::OK();
  if (max_participants <= 0) max_participants = std::max(1, parallelism());

  Job job;
  job.fn = &fn;
  job.num_morsels = num_morsels;
  job.max_participants = max_participants;
  job.trace = TraceContext::CurrentBinding();

  // Serial inline path: same morsel decomposition, same failpoint site,
  // zero scheduling. Results are identical to the parallel path by the
  // engine's deterministic morsel-order merge, so callers may flip thread
  // counts freely.
  if (max_participants == 1 || num_morsels == 1 || workers_.empty()) {
    for (int64_t m = 0; m < num_morsels; ++m) {
      ASSESS_RETURN_NOT_OK(RunOne(&job, m));
    }
    jobs_run_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.participants = 1;  // the caller, registered before publication
    active_jobs_.push_back(&job);
  }
  work_cv_.notify_all();

  Drain(&job);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    --job.participants;
    job.done_cv.wait(lock, [&] { return job.participants == 0; });
    active_jobs_.erase(
        std::find(active_jobs_.begin(), active_jobs_.end(), &job));
  }
  jobs_run_.fetch_add(1, std::memory_order_relaxed);
  return job.failed.load(std::memory_order_acquire) ? job.error : Status::OK();
}

void TaskPool::AddScanCounts(uint64_t scanned, uint64_t skipped,
                             uint64_t rows_visited, uint64_t rows_passed,
                             uint64_t setup_entries) {
  morsels_scanned_.fetch_add(scanned, std::memory_order_relaxed);
  morsels_skipped_.fetch_add(skipped, std::memory_order_relaxed);
  rows_visited_.fetch_add(rows_visited, std::memory_order_relaxed);
  rows_passed_.fetch_add(rows_passed, std::memory_order_relaxed);
  setup_entries_.fetch_add(setup_entries, std::memory_order_relaxed);
}

TaskPoolStats TaskPool::stats() const {
  TaskPoolStats stats;
  stats.workers = workers_.size();
  stats.jobs_run = jobs_run_.load(std::memory_order_relaxed);
  stats.morsels_run = morsels_run_.load(std::memory_order_relaxed);
  stats.morsels_scanned = morsels_scanned_.load(std::memory_order_relaxed);
  stats.morsels_skipped = morsels_skipped_.load(std::memory_order_relaxed);
  stats.rows_visited = rows_visited_.load(std::memory_order_relaxed);
  stats.rows_passed = rows_passed_.load(std::memory_order_relaxed);
  stats.setup_entries = setup_entries_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Job* job : active_jobs_) {
      if (!job->failed.load(std::memory_order_relaxed) &&
          job->next.load(std::memory_order_relaxed) < job->num_morsels) {
        ++stats.queue_depth;
      }
    }
  }
  return stats;
}

}  // namespace assess

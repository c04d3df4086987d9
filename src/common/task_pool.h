#ifndef ASSESS_COMMON_TASK_POOL_H_
#define ASSESS_COMMON_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace assess {

/// \brief Rows per scan morsel: the unit of work the pool schedules. Small
/// enough that a skewed predicate cannot strand one worker with most of the
/// scan, large enough that the per-morsel dispatch (one atomic fetch-add)
/// is invisible next to 64K row visits. A predicated fact scan narrows each
/// morsel to the rows its slice can hold and skips a morsel holding none.
inline constexpr int64_t kMorselRows = int64_t{1} << 16;

/// \brief Counters a TaskPool accumulates over its lifetime. `queue_depth`
/// is a point-in-time gauge (jobs that still have unclaimed morsels);
/// everything else is monotonic. The morsel scan/skip and row visit/pass
/// counters are fed by the storage engine (see StarQueryEngine), so a pool
/// shared by many sessions — the assessd deployment — reports fleet-wide
/// scan activity.
struct TaskPoolStats {
  uint64_t workers = 0;
  uint64_t queue_depth = 0;
  uint64_t jobs_run = 0;
  uint64_t morsels_run = 0;
  uint64_t morsels_scanned = 0;
  uint64_t morsels_skipped = 0;
  uint64_t rows_visited = 0;
  uint64_t rows_passed = 0;
  uint64_t setup_entries = 0;
};

/// \brief A process-wide pool of workers executing morsel-decomposed jobs
/// (Leis et al., "Morsel-Driven Parallelism", SIGMOD 2014).
///
/// Scheduling model: a job is a count of morsels plus a callback; workers
/// (and the submitting thread) claim morsel indices dynamically off one
/// shared atomic cursor, so a worker that finishes early immediately pulls
/// the next morsel instead of idling behind a static partition. Concurrent
/// jobs coexist in one pool: every query submitted by every session draws
/// from the same fixed worker set, so N concurrent queries cost N× the
/// queue depth, never N× the threads (the oversubscription the per-query
/// std::thread design suffered from).
///
/// The submitting thread always participates in its own job. That is the
/// liveness guarantee: even when every pool worker is busy with other jobs
/// (or the pool has zero workers), the caller alone drains its morsels, so
/// RunMorsels can never deadlock behind pool saturation.
///
/// Error model: the first non-OK Status returned by the callback wins, the
/// job stops claiming further morsels, and RunMorsels returns that Status
/// after all in-flight morsels finish. The failpoint site "pool.morsel"
/// fires before every morsel execution (including the serial inline path),
/// so fault injection can prove a failed or delayed morsel surfaces as a
/// typed error, not a hang.
class TaskPool {
 public:
  /// Runs one morsel by index; a non-OK return fails the whole job.
  using MorselFn = std::function<Status(int64_t morsel)>;

  /// \brief Spawns `workers` threads; <= 0 sizes the pool from
  /// ASSESS_THREADS when set, else one worker per hardware thread.
  explicit TaskPool(int workers = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// \brief The process-wide pool every engine uses unless constructed with
  /// an explicit one. Sized from ASSESS_THREADS / hardware concurrency.
  static const std::shared_ptr<TaskPool>& Shared();

  /// \brief Number of pool workers (the default intra-query parallelism an
  /// engine derives instead of assuming it owns the whole machine).
  int parallelism() const { return static_cast<int>(workers_.size()); }

  /// \brief Executes fn(0) .. fn(num_morsels - 1), blocking until all have
  /// completed or the job failed. At most `max_participants` threads work
  /// on the job at once (<= 0: pool parallelism); the caller is one of
  /// them. With one participant (or an empty pool) the morsels run inline
  /// on the caller in index order — the serial path is the same code.
  Status RunMorsels(int64_t num_morsels, int max_participants,
                    const MorselFn& fn);

  /// \brief Accumulates engine-side scan accounting (morsels scanned vs.
  /// skipped, rows the scans visited and rows that passed, and the scans'
  /// set-up entries: pass flags plus lane tables) into this pool's stats.
  void AddScanCounts(uint64_t scanned, uint64_t skipped,
                     uint64_t rows_visited, uint64_t rows_passed,
                     uint64_t setup_entries);

  TaskPoolStats stats() const;

 private:
  struct Job;

  void WorkerLoop();
  /// Claims and runs morsels of `job` until none remain or the job failed.
  void Drain(Job* job);
  /// The per-morsel execution wrapper (failpoint + callback + accounting).
  Status RunOne(Job* job, int64_t morsel);
  /// Under mutex_: first job with unclaimed morsels and spare participant
  /// capacity, with its participant count already incremented; or nullptr.
  Job* ClaimEligibleJobLocked();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<Job*> active_jobs_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> jobs_run_{0};
  std::atomic<uint64_t> morsels_run_{0};
  std::atomic<uint64_t> morsels_scanned_{0};
  std::atomic<uint64_t> morsels_skipped_{0};
  std::atomic<uint64_t> rows_visited_{0};
  std::atomic<uint64_t> rows_passed_{0};
  std::atomic<uint64_t> setup_entries_{0};
};

/// \brief The ASSESS_THREADS override: when the environment variable is set
/// to a positive integer, every engine runs its scans at exactly that
/// parallelism regardless of configuration (and the shared pool is sized to
/// it). This is how CI forces the parallel path under TSan; 0 means unset.
int ForcedThreadsFromEnv();

}  // namespace assess

#endif  // ASSESS_COMMON_TASK_POOL_H_

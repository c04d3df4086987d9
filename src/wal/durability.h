#ifndef ASSESS_WAL_DURABILITY_H_
#define ASSESS_WAL_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "ingest/ingest.h"
#include "storage/star_schema.h"
#include "wal/wal.h"

namespace assess {

/// \brief Durability knobs (`assessd --data-dir` / `--fsync-mode` /
/// `--checkpoint-wal-mb`).
struct DurabilityOptions {
  WalOptions wal;
  /// Take a checkpoint once this many WAL bytes accumulated since the last
  /// one (0 disables the automatic trigger; explicit Checkpoint() calls and
  /// the shutdown checkpoint still run).
  int64_t checkpoint_wal_bytes = int64_t{128} << 20;
};

/// \brief What startup recovery found and did — logged once and surfaced
/// through the ServerStats recovery_* fields.
struct RecoveryInfo {
  /// True when the data directory was empty: the database was bootstrapped
  /// and sealed as checkpoint 1; nothing was replayed.
  bool fresh_start = false;
  uint64_t checkpoint_seq = 0;  ///< the checkpoint recovery loaded
  uint64_t checkpoint_lsn = 0;  ///< WAL position that checkpoint covers
  uint64_t replayed_records = 0;
  uint64_t truncated_bytes = 0;  ///< torn-tail bytes dropped from the WAL
  bool tail_truncated = false;
  std::string tail_note;  ///< human-readable torn-tail warning ("" if none)
};

/// \brief The durability subsystem of one data directory: owns the
/// recovered StarDatabase, the write-ahead log, and the checkpoint cadence.
///
///   <data-dir>/
///     CURRENT            -> names the live checkpoint (atomic pointer)
///     checkpoint-<seq>/  manifest-sealed snapshot + wal.meta
///     wal/wal-<lsn>.log  CRC32C-framed record segments
///
/// Open() recovers: load the CURRENT checkpoint (manifest-verified, exact
/// epochs restored), replay every WAL record past its LSN through the
/// ordinary Ingestor commit path (auto-insert side effects included, each
/// replayed batch cross-checked against its record's epoch and row count),
/// repair a torn tail, and refuse — typed kCorruptWal / kCorruptCheckpoint
/// — to guess at any other damage.
///
/// As a CommitDurabilityHook it appends + fsyncs one WAL record per ingest
/// batch *before* the batch's epoch publishes (group commit per
/// FsyncMode::kGroup), which is what makes a kIngestReply receipt a
/// durability promise.
class DurabilityManager : public CommitDurabilityHook {
 public:
  /// Builds the initial database when the data directory has no checkpoint
  /// yet (first boot). The result is immediately sealed as checkpoint 1.
  using Bootstrap = std::function<Result<std::unique_ptr<StarDatabase>>()>;

  static Result<std::unique_ptr<DurabilityManager>> Open(
      const std::string& data_dir, DurabilityOptions options,
      const Bootstrap& bootstrap);
  ~DurabilityManager() override = default;

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  /// \brief The recovered (or bootstrapped) database; owned by the manager.
  StarDatabase* db() { return db_.get(); }

  const RecoveryInfo& recovery() const { return recovery_; }

  /// \brief The write-ahead hook (see CommitDurabilityHook): encodes the
  /// batch, appends it and makes it durable per the fsync mode.
  Status OnCommit(const IngestCommit& commit) override;

  /// \brief Graceful-drain flush: everything appended so far becomes
  /// durable (no-op under FsyncMode::kNone).
  Status Flush();

  /// \brief Takes a checkpoint now: freezes appenders (every cube's ingest
  /// mutex + the shared schema lock), rotates the WAL, writes a
  /// manifest-sealed snapshot with exact epochs, atomically publishes it as
  /// CURRENT, then truncates covered WAL segments and collects stale
  /// checkpoints. Serialized; concurrent callers queue.
  Status Checkpoint();

  /// \brief True once checkpoint_wal_bytes of WAL accumulated since the
  /// last checkpoint.
  bool ShouldCheckpoint() const;

  WalStats wal_stats() const { return wal_->stats(); }
  uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }
  FsyncMode fsync_mode() const { return options_.wal.fsync_mode; }
  const std::string& data_dir() const { return data_dir_; }

 private:
  DurabilityManager(std::string data_dir, DurabilityOptions options);

  std::string data_dir_;
  std::string wal_dir_;
  DurabilityOptions options_;
  std::unique_ptr<StarDatabase> db_;
  std::unique_ptr<WriteAheadLog> wal_;
  RecoveryInfo recovery_;

  std::mutex checkpoint_mu_;  ///< one checkpoint at a time
  uint64_t last_checkpoint_seq_ = 0;
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> wal_bytes_at_checkpoint_{0};
};

}  // namespace assess

#endif  // ASSESS_WAL_DURABILITY_H_

#ifndef ASSESS_WAL_WAL_H_
#define ASSESS_WAL_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ingest/ingest.h"

namespace assess {

/// \brief The per-database write-ahead log: every committed ingest batch is
/// appended as one CRC32C-framed, LSN-sequenced, epoch-stamped record and
/// made durable *before* the batch's epoch is published and the client's
/// kIngestReply receipt is sent. Recovery replays the records after the
/// newest checkpoint through the ordinary ingest path, so an acknowledged
/// batch survives any crash.
///
/// On-disk layout (all integers little-endian), one or more segment files
/// `wal-<first_lsn, 20 digits>.log` inside `<data-dir>/wal/`:
///
///   segment := magic "ASSESSW1" (8 bytes) | first_lsn(u64) | record*
///   record  := payload_len(u32) | crc32c(payload)(u32) | payload
///   payload := lsn(u64) | kind(u8) | epoch(u64) | format(u8) | flags(u8)
///            | cube_len(u16) | cube | row_count(u32)
///            | header_len(u32) | header | text_len(u32) | text
///
/// Records carry the *accepted row text* (for CSV: the bound header line
/// plus every accepted data line), not physical columns: replaying a record
/// through the Ingestor reproduces the exact same fact rows *and* every
/// auto-insert side effect on dimensions and hierarchy dictionaries — the
/// commit path is its own redo code. LSNs are dense and global across
/// segments; a segment holds the consecutive records starting at its
/// `first_lsn`.
///
/// Corruption discipline (the scan, see ScanWal): a record that fails its
/// CRC or runs past end-of-file *at the tail of the last segment* is a torn
/// write from the crash itself — the scan truncates it with a typed warning
/// and recovery proceeds with the valid prefix. The same damage anywhere
/// else (mid-segment bytes following the bad frame, a non-final segment, an
/// LSN discontinuity under a valid CRC) cannot be explained by a torn tail
/// and surfaces as a typed kCorruptWal error: recovery refuses to guess.
enum class WalRecordKind : uint8_t {
  kIngestBatch = 1,  ///< one committed ingest batch (row text + epoch)
};

/// \brief When the log fsyncs relative to a commit.
enum class FsyncMode : uint8_t {
  kNone = 0,   ///< never fsync (throughput baseline; a crash may lose
               ///< acknowledged batches — only for benches and tests)
  kAlways = 1, ///< fsync each commit by itself ("batch" on the CLI): the
               ///< durable baseline group commit is measured against
  kGroup = 2,  ///< group commit (default): concurrent committers coalesce
               ///< into one fsync — a leader syncs everything written so
               ///< far while followers wait on its result
};

std::string_view FsyncModeToString(FsyncMode mode);

/// \brief Parses the `--fsync-mode` flag: "none", "batch" or "group".
Result<FsyncMode> ParseFsyncMode(std::string_view text);

/// \brief WAL tuning knobs.
struct WalOptions {
  FsyncMode fsync_mode = FsyncMode::kGroup;
  /// A checkpoint rotates to a fresh segment regardless; this only bounds
  /// how large one segment may grow between checkpoints.
  int64_t segment_bytes = int64_t{64} << 20;
};

/// \brief Monotonic WAL counters (the ServerStats wal_* fields, exported as
/// the assess_wal_* series).
struct WalStats {
  uint64_t appends = 0;        ///< records appended
  uint64_t fsyncs = 0;         ///< fsync(2) calls issued
  uint64_t bytes_written = 0;  ///< framed bytes appended
};

/// \brief One decoded (or to-be-encoded) WAL record. `lsn` is assigned by
/// WriteAheadLog::Append; every other field is the caller's.
struct WalRecordData {
  uint64_t lsn = 0;
  WalRecordKind kind = WalRecordKind::kIngestBatch;
  /// The fact-table epoch this batch committed at. Replay verifies the
  /// re-ingested batch lands on exactly this epoch.
  uint64_t epoch = 0;
  IngestFormat format = IngestFormat::kCsv;
  /// bit0: the batch was ingested with member auto-insert enabled.
  uint8_t flags = 0;
  std::string cube;
  /// Accepted data rows in the batch (replay cross-checks the re-ingested
  /// row count against it).
  uint32_t row_count = 0;
  /// CSV: the header line the batch's rows were bound under (empty for
  /// JSONL, which is self-describing).
  std::string header;
  /// The accepted data lines, newline-joined.
  std::string text;
};

inline constexpr uint8_t kWalFlagAutoInsert = 0x01;

/// \brief Encodes a record's payload (everything the CRC covers).
std::string EncodeWalPayload(const WalRecordData& rec);

/// \brief Decodes one payload; kCorruptWal on any structural violation
/// (truncation, unknown kind/format, trailing bytes).
Result<WalRecordData> DecodeWalPayload(std::string_view payload);

/// \brief The append side of the log. Thread-safe; one instance per data
/// directory, owned by the DurabilityManager.
class WriteAheadLog {
 public:
  /// \brief Opens (creating if needed) `wal_dir` for appending, starting a
  /// fresh segment whose first record will carry `next_lsn`. Existing
  /// segments are left alone — recovery reads them via ScanWal before
  /// opening the log for writing.
  static Result<std::unique_ptr<WriteAheadLog>> Open(std::string wal_dir,
                                                     WalOptions options,
                                                     uint64_t next_lsn);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// \brief Appends `rec` (assigning it the next LSN) and makes it durable
  /// per the fsync mode before returning its LSN. Under kGroup, concurrent
  /// appenders coalesce: one leader fsyncs everything written so far while
  /// the rest wait for the leader's result. Failpoints: `wal.append` fails
  /// the call *before* any byte is written (the log stays healthy — the
  /// batch simply was never made durable); `wal.fsync` fails the sync
  /// itself, which poisons the log — every later append is refused with
  /// kUnavailable, because bytes of unknown durability precede it.
  Result<uint64_t> Append(const WalRecordData& rec);

  /// \brief Forces everything appended so far durable (graceful-drain
  /// flush). No-op under FsyncMode::kNone.
  Status Sync();

  /// \brief Seals the current segment (fsync + close) and starts a fresh
  /// one at the current next-LSN. Called by the checkpointer *before*
  /// writing the snapshot, so the old segments' records are all covered by
  /// the checkpoint once it lands and can be deleted; if the checkpoint
  /// fails, the sealed segments are simply replayed like any others.
  Status StartNewSegment();

  /// \brief Deletes sealed segments every record of which has LSN <
  /// `lsn_exclusive` (the checkpoint's truncate step). The active segment
  /// is never deleted.
  Status DeleteSegmentsBelow(uint64_t lsn_exclusive);

  /// \brief The LSN the next append will get.
  uint64_t next_lsn() const;
  /// \brief The highest appended LSN (0 when none yet).
  uint64_t last_lsn() const;

  WalStats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  WriteAheadLog(std::string dir, WalOptions options, uint64_t next_lsn);

  Status OpenSegmentLocked();
  Status SyncLocked(std::unique_lock<std::mutex>* lock);
  Status WriteFrameLocked(const std::string& payload);

  const std::string dir_;
  const WalOptions options_;

  mutable std::mutex mu_;
  std::condition_variable sync_cv_;
  int fd_ = -1;
  std::string segment_path_;
  int64_t segment_offset_ = 0;
  uint64_t next_lsn_ = 1;
  uint64_t written_seq_ = 0;  ///< highest LSN whose bytes are written
  uint64_t durable_seq_ = 0;  ///< highest LSN known durable
  bool sync_in_flight_ = false;
  /// A failed write or fsync poisons the log: the on-disk state past
  /// durable_seq_ is unknowable, so further appends are refused until the
  /// process restarts and recovery re-establishes a trusted prefix.
  Status poisoned_ = Status::OK();

  uint64_t appends_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t bytes_written_ = 0;
};

/// \brief What one WAL scan found and did.
struct WalScanReport {
  uint64_t records = 0;          ///< valid records seen (all segments)
  uint64_t replayed = 0;         ///< records delivered to the callback
  uint64_t last_lsn = 0;         ///< highest valid LSN (0 when none)
  uint64_t truncated_bytes = 0;  ///< torn-tail bytes dropped
  bool tail_truncated = false;
  /// Human-readable warning describing a repaired torn tail (empty
  /// otherwise) — recovery logs it, typed, instead of silently guessing.
  std::string tail_note;
};

/// \brief Scans every segment under `wal_dir` in LSN order, verifying
/// frames and LSN continuity, and invokes `fn` for each valid record with
/// lsn > `after_lsn` (the checkpoint's LSN; pass 0 to replay everything).
/// A torn tail on the final segment is dropped — and physically truncated
/// when `repair` is set — with a note in the report; any other damage
/// returns kCorruptWal and replays nothing further. A non-OK status from
/// `fn` aborts the scan with that status.
Status ScanWal(const std::string& wal_dir, uint64_t after_lsn, bool repair,
               const std::function<Status(const WalRecordData&)>& fn,
               WalScanReport* report);

}  // namespace assess

#endif  // ASSESS_WAL_WAL_H_

#include "wal/durability.h"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "ingest/ingestor.h"
#include "obs/trace.h"
#include "wal/checkpoint.h"

namespace assess {

namespace fs = std::filesystem;

namespace {

/// Re-ingests one WAL record through the ordinary commit path and
/// cross-checks the outcome against what the record promises. Any
/// divergence is typed corruption: the record carried a valid CRC, so a
/// replay mismatch means the checkpoint and the log disagree.
Status ReplayRecord(StarDatabase* db, const WalRecordData& rec) {
  if (rec.kind != WalRecordKind::kIngestBatch) {
    return Status::CorruptWal("WAL record " + std::to_string(rec.lsn) +
                              " has unknown kind");
  }
  IngestOptions opts;
  opts.format = rec.format;
  opts.auto_insert_members = (rec.flags & kWalFlagAutoInsert) != 0;
  opts.max_errors = 0;
  Ingestor ingestor(db, /*cache=*/nullptr, opts);
  std::string text;
  if (rec.format == IngestFormat::kCsv) {
    text.reserve(rec.header.size() + 1 + rec.text.size());
    text += rec.header;
    text += '\n';
    text += rec.text;
  } else {
    text = rec.text;
  }
  Result<IngestStats> stats = ingestor.IngestText(rec.cube, text);
  if (!stats.ok()) {
    return Status::CorruptWal("replay of WAL record " +
                              std::to_string(rec.lsn) + " (cube '" +
                              rec.cube + "') failed: " +
                              stats.status().ToString());
  }
  if (stats->rows_ingested != rec.row_count || stats->epoch != rec.epoch) {
    return Status::CorruptWal(
        "replay of WAL record " + std::to_string(rec.lsn) + " diverged: "
        "record committed " + std::to_string(rec.row_count) +
        " rows at epoch " + std::to_string(rec.epoch) + ", replay produced " +
        std::to_string(stats->rows_ingested) + " rows at epoch " +
        std::to_string(stats->epoch));
  }
  return Status::OK();
}

}  // namespace

DurabilityManager::DurabilityManager(std::string data_dir,
                                     DurabilityOptions options)
    : data_dir_(std::move(data_dir)),
      wal_dir_((fs::path(data_dir_) / "wal").string()),
      options_(options) {}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const std::string& data_dir, DurabilityOptions options,
    const Bootstrap& bootstrap) {
  std::error_code ec;
  fs::create_directories(data_dir, ec);
  if (ec) {
    return Status::Internal("cannot create data directory '" + data_dir +
                            "': " + ec.message());
  }
  std::unique_ptr<DurabilityManager> mgr(
      new DurabilityManager(data_dir, options));
  fs::create_directories(mgr->wal_dir_, ec);
  if (ec) {
    return Status::Internal("cannot create WAL directory '" + mgr->wal_dir_ +
                            "': " + ec.message());
  }

  Result<uint64_t> current = ReadCurrentCheckpoint(data_dir);
  uint64_t next_lsn = 1;
  if (!current.ok() && current.status().code() == StatusCode::kNotFound) {
    // First boot: build the database and seal it as checkpoint 1, so even a
    // crash before the first ingest recovers to a well-defined state.
    ASSESS_ASSIGN_OR_RETURN(mgr->db_, bootstrap());
    if (mgr->db_ == nullptr) {
      return Status::Internal("durability bootstrap produced no database");
    }
    CheckpointMeta meta;
    meta.wal_lsn = 0;
    std::vector<std::string> names = mgr->db_->CubeNames();
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
      ASSESS_ASSIGN_OR_RETURN(const BoundCube* cube, mgr->db_->Find(name));
      meta.cube_epochs.emplace_back(name, cube->facts().epoch());
    }
    ASSESS_RETURN_NOT_OK(WriteCheckpoint(*mgr->db_, data_dir, 1, meta));
    ASSESS_RETURN_NOT_OK(PublishCurrentCheckpoint(data_dir, 1));
    mgr->last_checkpoint_seq_ = 1;
    mgr->recovery_.fresh_start = true;
    mgr->recovery_.checkpoint_seq = 1;
  } else {
    ASSESS_RETURN_NOT_OK(current.status());
    Span span("wal.recover");
    ASSESS_ASSIGN_OR_RETURN(LoadedCheckpoint loaded,
                            LoadCheckpoint(data_dir, *current));
    mgr->db_ = std::move(loaded.db);
    WalScanReport report;
    StarDatabase* db = mgr->db_.get();
    ASSESS_RETURN_NOT_OK(ScanWal(
        mgr->wal_dir_, loaded.meta.wal_lsn, /*repair=*/true,
        [db](const WalRecordData& rec) { return ReplayRecord(db, rec); },
        &report));
    mgr->last_checkpoint_seq_ = *current;
    mgr->recovery_.checkpoint_seq = *current;
    mgr->recovery_.checkpoint_lsn = loaded.meta.wal_lsn;
    mgr->recovery_.replayed_records = report.replayed;
    mgr->recovery_.truncated_bytes = report.truncated_bytes;
    mgr->recovery_.tail_truncated = report.tail_truncated;
    mgr->recovery_.tail_note = report.tail_note;
    span.AddInt("replayed", static_cast<int64_t>(report.replayed));
    span.AddInt("truncated_bytes",
                static_cast<int64_t>(report.truncated_bytes));
    next_lsn = std::max(report.last_lsn, loaded.meta.wal_lsn) + 1;
  }

  ASSESS_ASSIGN_OR_RETURN(
      mgr->wal_, WriteAheadLog::Open(mgr->wal_dir_, options.wal, next_lsn));
  // Sweep what older runs left behind: superseded checkpoints and orphaned
  // snapshot attempts. Best-effort.
  (void)GarbageCollectCheckpoints(data_dir, mgr->last_checkpoint_seq_);
  return mgr;
}

Status DurabilityManager::OnCommit(const IngestCommit& commit) {
  WalRecordData rec;
  rec.kind = WalRecordKind::kIngestBatch;
  rec.epoch = commit.epoch;
  rec.format = commit.format;
  rec.flags = commit.auto_insert ? kWalFlagAutoInsert : 0;
  rec.cube = *commit.cube;
  rec.row_count = commit.row_count;
  rec.header = *commit.header;
  rec.text = *commit.text;
  ASSESS_ASSIGN_OR_RETURN(uint64_t lsn, wal_->Append(rec));
  (void)lsn;
  return Status::OK();
}

Status DurabilityManager::Flush() { return wal_->Sync(); }

bool DurabilityManager::ShouldCheckpoint() const {
  if (options_.checkpoint_wal_bytes <= 0) return false;
  const uint64_t written = wal_->stats().bytes_written;
  const uint64_t base =
      wal_bytes_at_checkpoint_.load(std::memory_order_relaxed);
  return written - base >=
         static_cast<uint64_t>(options_.checkpoint_wal_bytes);
}

Status DurabilityManager::Checkpoint() {
  std::lock_guard<std::mutex> cp_lock(checkpoint_mu_);
  Span span("checkpoint");

  // Freeze every appender: all ingest mutexes (sorted by cube name for a
  // deterministic multi-lock order — single-cube commits take one of these
  // then the schema lock, same order as here) plus the schema lock shared,
  // because the save reads dimension tables and hierarchy dictionaries.
  std::vector<std::string> names = db_->CubeNames();
  std::sort(names.begin(), names.end());
  std::vector<std::unique_lock<std::mutex>> ingest_locks;
  ingest_locks.reserve(names.size());
  for (const std::string& name : names) {
    ASSESS_ASSIGN_OR_RETURN(BoundCube * cube, db_->FindMutable(name));
    ingest_locks.emplace_back(cube->ingest_mutex());
  }
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mutex());

  CheckpointMeta meta;
  meta.wal_lsn = wal_->last_lsn();
  for (const std::string& name : names) {
    ASSESS_ASSIGN_OR_RETURN(const BoundCube* cube, db_->Find(name));
    meta.cube_epochs.emplace_back(name, cube->facts().epoch());
  }

  // Rotate before the snapshot is cut: everything the snapshot covers sits
  // in sealed segments the truncate step may delete; post-checkpoint
  // records land in the fresh segment. If the snapshot fails, the sealed
  // segments simply stay and replay like any others.
  ASSESS_RETURN_NOT_OK(wal_->StartNewSegment());

  const uint64_t seq = last_checkpoint_seq_ + 1;
  ASSESS_RETURN_NOT_OK(WriteCheckpoint(*db_, data_dir_, seq, meta));
  ASSESS_RETURN_NOT_OK(PublishCurrentCheckpoint(data_dir_, seq));
  last_checkpoint_seq_ = seq;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_at_checkpoint_.store(wal_->stats().bytes_written,
                                 std::memory_order_relaxed);
  span.AddInt("seq", static_cast<int64_t>(seq));
  span.AddInt("wal_lsn", static_cast<int64_t>(meta.wal_lsn));

  // The appenders may resume; truncation and GC touch only what the new
  // checkpoint superseded.
  for (auto& lock : ingest_locks) lock.unlock();
  schema_lock.unlock();
  ASSESS_RETURN_NOT_OK(wal_->DeleteSegmentsBelow(meta.wal_lsn + 1));
  return GarbageCollectCheckpoints(data_dir_, seq);
}

}  // namespace assess

#ifndef ASSESS_INGEST_INGEST_H_
#define ASSESS_INGEST_INGEST_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace assess {

/// \brief Text row formats the streaming ingester understands.
enum class IngestFormat : uint8_t {
  kCsv = 0,    ///< header line + comma-separated records (RFC-4180 quoting)
  kJsonl = 1,  ///< one flat JSON object per line, keys = column names
};

std::string_view IngestFormatToString(IngestFormat format);

/// \brief Picks the format from a file name: ".jsonl"/".ndjson" select
/// kJsonl, everything else kCsv.
IngestFormat IngestFormatFromPath(std::string_view path);

/// \brief Everything the durability layer needs to persist one ingest
/// request before its epoch is published: the accepted row text (for CSV,
/// the bound header plus every accepted data line) and the epoch the
/// request will commit at. Pointers borrow from the ingest run and are valid
/// only for the duration of the OnCommit call.
struct IngestCommit {
  const std::string* cube = nullptr;
  /// The epoch this request commits at (current fact epoch + 1) — stamped
  /// into the WAL record so replay can verify it reproduces the same epoch.
  uint64_t epoch = 0;
  IngestFormat format = IngestFormat::kCsv;
  bool auto_insert = false;
  uint32_t row_count = 0;
  /// CSV header line the rows were bound under (empty for JSONL).
  const std::string* header = nullptr;
  /// Accepted data lines, newline-joined.
  const std::string* text = nullptr;
};

/// \brief Write-ahead hook the Ingestor calls once per request, inside
/// Commit — after the whole request is parsed and validated, under the
/// cube's ingest mutex, *before* its new members are interned and
/// AppendBatch publishes the epoch. A non-OK return fails the request:
/// nothing is appended or interned, no epoch moves, and the error surfaces
/// as the request's typed error. The DurabilityManager implements this to
/// append + fsync the WAL record, so a request is durable strictly before
/// any client can observe it.
class CommitDurabilityHook {
 public:
  virtual ~CommitDurabilityHook() = default;
  virtual Status OnCommit(const IngestCommit& commit) = 0;
};

/// \brief Knobs of one ingest run.
struct IngestOptions {
  IngestFormat format = IngestFormat::kCsv;

  /// When a row names a level-0 member missing from the dimension, insert
  /// it (together with its roll-up parents, which the row must then also
  /// provide) instead of rejecting the row. New members are staged while
  /// the request parses and interned by its commit, under the database's
  /// exclusive schema lock; member-stable ingest never takes it.
  bool auto_insert_members = false;

  /// Malformed or unresolvable rows are skipped, up to this many; one more
  /// fails the request with the row's typed error and lands nothing. 0
  /// (default) = strict: fail on the first bad row. Skipped rows are
  /// counted in IngestStats::rows_rejected.
  int64_t max_errors = 0;

  /// When set, each request's commit calls OnCommit before publishing its
  /// epoch; a failure fails the request with the hook's typed error (see
  /// CommitDurabilityHook). Borrowed, not owned; null = no write-ahead
  /// logging (in-process and bench use).
  CommitDurabilityHook* durability = nullptr;
};

/// \brief What one ingest run did. Serializes to a fixed little-endian
/// layout for the kIngestReply wire frame.
struct IngestStats {
  uint64_t rows_ingested = 0;   ///< fact rows committed
  uint64_t rows_rejected = 0;   ///< malformed rows skipped (<= max_errors)
  /// 1 for a committed request, 0 for one with no rows. Kept so the fixed
  /// kIngestReply layout stays unchanged.
  uint64_t batches = 0;
  uint64_t new_members = 0;     ///< dimension rows auto-inserted
  uint64_t epoch = 0;           ///< fact epoch after the request
  uint64_t mv_incremental_updates = 0;  ///< view delta-merges applied
  uint64_t mv_full_rebuilds = 0;        ///< views rebuilt from scratch
  uint64_t cache_invalidations = 0;     ///< cache entries swept
  /// Always 0: fact scans read the int32 FK columns, which never repack.
  /// Kept so the fixed kIngestReply layout stays unchanged.
  uint64_t repacks = 0;

  std::string Serialize() const;
  static Result<IngestStats> Deserialize(std::string_view payload);

  /// \brief One-line human rendering for the CLI.
  std::string ToString() const;
};

}  // namespace assess

#endif  // ASSESS_INGEST_INGEST_H_

#ifndef ASSESS_INGEST_INGESTOR_H_
#define ASSESS_INGEST_INGESTOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cube_cache.h"
#include "common/result.h"
#include "ingest/ingest.h"
#include "storage/star_schema.h"

namespace assess {

/// \brief Streaming row ingestion into a bound cube: parses CSV or JSONL
/// rows, resolves dimension keys (optionally auto-inserting new members),
/// appends facts under one epoch per request, maintains the materialized
/// views incrementally and sweeps superseded result-cache entries.
///
/// Columns are matched by name against the cube's schema: for every
/// hierarchy the finest level's column is required (it is the dimension
/// key); coarser-level columns are optional and only consulted to validate
/// or establish roll-up links; every schema measure's column is required.
///
/// Atomicity: one call is one commit. The whole text is parsed and
/// resolved first; then its accepted rows and the members they add land
/// together (one WAL record, one epoch, one view delta, one cache sweep) or
/// not at all.
///
/// Concurrency: the commit runs under the cube's ingest mutex, so
/// concurrent ingests into the same cube serialize. Queries are never
/// blocked by member-stable ingest — they scan epoch snapshots. A request
/// that adds members takes the database's exclusive schema lock for the
/// member insert only.
///
/// Error handling: malformed or unresolvable rows produce typed errors
/// (kInvalidArgument / kNotFound) carrying the 1-based line number. By
/// default the first such error fails the request; IngestOptions::max_errors
/// skips that many rejected rows. A failed request lands nothing: no row,
/// no member, no epoch.
class Ingestor {
 public:
  /// `cache` may be null (no result cache to maintain); `db` must outlive
  /// the ingestor.
  Ingestor(StarDatabase* db, std::shared_ptr<CubeResultCache> cache,
           IngestOptions options);

  /// \brief Ingests `text` (the full file contents) into `cube_name`.
  Result<IngestStats> IngestText(std::string_view cube_name,
                                 std::string_view text);

  /// \brief Reads `path` and ingests it. The format comes from
  /// IngestOptions::format (callers typically set it from the extension
  /// via IngestFormatFromPath).
  Result<IngestStats> IngestFile(std::string_view cube_name,
                                 const std::string& path);

  const IngestOptions& options() const { return options_; }

 private:
  struct Run;  // per-call state (bindings, staged rows and members)

  /// Resolves a column name against the cube schema (level or measure),
  /// interning the binding in the run; kInvalidArgument for unknown names.
  Result<int> BindColumn(Run* run, const std::string& name);
  /// Binds the CSV header row and checks the required columns (every
  /// hierarchy's finest level, every measure) are present exactly once.
  Status BindCsvHeader(Run* run, const std::vector<std::string>& names);
  Status IngestLines(Run* run, std::string_view text);
  Status ProcessRow(Run* run, int64_t line_no,
                    const std::vector<std::string>& fields,
                    const std::vector<int>& field_bindings);
  /// Resolves a row's member of dimension `h` to its dimension row, or
  /// (auto-insert) to the placeholder FK of a staged new member.
  Status ResolveDimension(Run* run, int h,
                          const std::vector<const std::string*>& level_values,
                          int32_t* fk_out);
  Status ResolveNewMember(Run* run, int h,
                          const std::vector<const std::string*>& level_values,
                          int32_t* fk_out);
  /// Lands the whole request: logs it, interns its staged members, appends
  /// its rows under one epoch, maintains the views and sweeps the cache.
  Status Commit(Run* run);

  StarDatabase* db_;
  std::shared_ptr<CubeResultCache> cache_;
  IngestOptions options_;
};

}  // namespace assess

#endif  // ASSESS_INGEST_INGESTOR_H_

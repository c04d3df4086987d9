// The benchmark's traffic mixes. A schedule is built from (workload, seed,
// seconds) alone and fixes every statement and every ingested row of a run,
// so two runs with the same arguments issue the identical mix: the count of
// statements scales with --seconds, never with how fast the host answered.

#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/star_schema.h"

namespace perfbench {

/// One round. The ingest batch (if any) commits first; then the query
/// clients run their statements in waves: wave i holds the i-th statement of
/// every client that has one, sent together, and the next wave starts once
/// every reply of this one has arrived.
struct Round {
  std::string ingest_csv;  ///< CSV with header; empty = no ingest
  int ingest_rows = 0;
  /// statements[client] = that client's statements for this round, in order.
  std::vector<std::vector<std::string>> statements;
};

/// Rounds are grouped into this many equal segments; qps and p50 are
/// reported as the median over segments, so a burst of host noise inside
/// one segment does not move them.
inline constexpr int kSegments = 5;

struct Schedule {
  std::string workload;
  uint64_t seed = 0;
  int query_clients = 0;
  bool has_ingest_client = false;
  /// A multiple of kSegments rounds.
  std::vector<Round> rounds;
  /// Statements each client runs once before timing, so lazy packed columns,
  /// zone maps and per-connection sessions exist before the first sample.
  /// The cache can never answer a timed statement from them.
  std::vector<std::string> warmup;

  /// Designed shape, asserted after every run (see main.cc): statements
  /// whose gets the cache cannot answer, and (dashboard) the filters, each
  /// of which must scan in its first round.
  int64_t designed_miss_statements = 0;
  int64_t designed_filters = 0;

  int64_t statement_count() const;
  int64_t ingest_batches() const;
  int64_t ingest_rows() const;
  /// FNV-1a over every statement and batch in schedule order; two seeds
  /// giving the same digest would mean the seed does not reach the mix.
  uint64_t digest() const;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the schedule of `workload` for `seed`, sized for `seconds` of
/// timed traffic on the deployment of main.cc. `db` supplies member names
/// (the SSB dimensions are identical in every generated instance).
/// Returns false and fills `error` for an unknown workload, or when
/// `seconds` asks for more distinct selections than the workload has.
bool BuildSchedule(const std::string& workload, uint64_t seed, int seconds,
                   const assess::StarDatabase& db, Schedule* out,
                   std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_

// The single-threaded replay of a schedule, in process. It is both the
// answer oracle (every statement's result digest, at the same fact epoch as
// the timed phase saw) and, when traced, the source of the per-layer
// numbers: the replay records its own spans around the public calls into
// each layer — parse, analyze, plan, execute, serialize, frame, deserialize,
// ingest, WAL commit, checkpoint — and splits Execute by the StepTimings it
// returns. No TraceContext is installed, so the program's own span sites
// stay idle and the executor times its steps with its stopwatches.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "assess/result_set.h"
#include "common/status.h"
#include "schedule.h"
#include "wal/durability.h"

namespace perfbench {

/// Row count plus an order-sensitive FNV-1a digest of every coordinate
/// name, measure name, measure bit pattern and label. Results promised
/// bit-identical (cache, MQO, wire) digest identically.
struct ResultDigest {
  int64_t rows = -1;  ///< -1: no result (the statement failed)
  uint64_t hash = 0;
  bool operator==(const ResultDigest&) const = default;
};
ResultDigest DigestResult(const assess::AssessResult& result);

/// One recorded span; `parent` indexes the same vector (-1 = root).
struct SpanEvent {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t op = 0;         ///< statement or batch index in schedule order
  bool derived = false;   ///< placed from StepTimings, not timed directly
};

/// Summed seconds over the replay. Statement layers are self times: with
/// `unattributed` they add up to `statement` exactly.
struct LayerTotals {
  int64_t statements = 0;
  double statement = 0, parse = 0, analyze = 0, plan = 0, execute_self = 0;
  double get = 0, transform = 0, join = 0, compare = 0, label = 0;
  double serialize = 0, deserialize = 0, unattributed = 0;
  double result_bytes = 0;  ///< encoded kResult frame bytes
  int64_t batches = 0, checkpoints = 0;
  double ingest_self = 0, wal_commit = 0, checkpoint = 0;
};

struct ReplayResult {
  assess::Status status;
  std::vector<ResultDigest> digests;  ///< per statement, schedule order
  /// Answer check against `expected` (see Replay): statements whose answer
  /// matched neither in-process answer, the first few of their indexes, and
  /// statements that matched only the cold-session answer.
  int64_t wrong = 0;
  std::vector<int64_t> wrong_ops;
  int64_t cold_path = 0;
  LayerTotals totals;                 ///< filled when traced
  std::vector<SpanEvent> spans;       ///< filled when traced
  double wall_s = 0;                  ///< whole replay, ingest included
};

/// Replays `schedule` against `durability`'s database (which must be a
/// freshly set-up instance, at the epoch the timed phase started from)
/// with the deployment's engine options: views, a 64 MB result cache, the
/// shared scan pool. Ingest batches commit through an Ingestor whose
/// write-ahead hook is the manager, and a checkpoint runs whenever
/// ShouldCheckpoint() says so — the server's cadence.
///
/// With `expected` (the timed phase's digests, schedule order), every answer
/// is checked bit for bit at its epoch. A cached answer depends on which
/// entries the cache held (a subsumption roll-up re-adds a finer entry's
/// sums in another order than a scan), and under concurrency the server's
/// cache history is one serial order of the batch, not necessarily the
/// replay's. So an answer that differs from the replay's must equal the
/// answer of a cold in-process session (views on, no cache) at that epoch;
/// otherwise it is wrong. Those checks run outside the replay's spans.
ReplayResult Replay(const Schedule& schedule,
                    assess::DurabilityManager* durability, bool traced,
                    const std::vector<ResultDigest>* expected = nullptr);

/// Writes `spans` as Chrome trace_event JSON, with `metadata_json` (an
/// object) under "metadata".
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanEvent>& spans,
                      const std::string& metadata_json);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_

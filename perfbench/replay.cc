#include "replay.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <shared_mutex>

#include "assess/analyzer.h"
#include "assess/parser.h"
#include "assess/planner.h"
#include "assess/session.h"
#include "assess/wire_format.h"
#include "cache/cube_cache.h"
#include "fnv.h"
#include "ingest/ingestor.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

using assess::AssessResult;
using assess::Status;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span bookkeeping of the traced replay; every call is a no-op when off,
/// so the untraced replay runs the same statement code without clocks.
class Recorder {
 public:
  Recorder(bool on, std::vector<SpanEvent>* out) : on_(on), out_(out) {}

  int Begin(const char* name, int parent, int64_t op) {
    if (!on_) return -1;
    out_->push_back({name, NowNs(), 0, parent, op, false});
    return static_cast<int>(out_->size()) - 1;
  }
  /// Closes span `id`; returns its duration in seconds (0 when off).
  double End(int id) {
    if (id < 0) return 0.0;
    SpanEvent& span = (*out_)[id];
    span.end_ns = NowNs();
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  /// A child of `parent` placed after `*cursor_ns`, `seconds` long: the
  /// StepTimings phases inside Execute, which the executor times itself.
  void Derived(const char* name, int parent, int64_t op, double seconds,
               int64_t* cursor_ns) {
    if (!on_ || seconds <= 0.0) return;
    const int64_t len = static_cast<int64_t>(seconds * 1e9);
    out_->push_back({name, *cursor_ns, *cursor_ns + len, parent, op, true});
    *cursor_ns += len;
  }
  bool on() const { return on_; }

 private:
  bool on_;
  std::vector<SpanEvent>* out_;
};

/// The benchmark-side write-ahead hook: times DurabilityManager::OnCommit
/// as a wal.commit span under the current ingest span.
class TimedCommitHook : public assess::CommitDurabilityHook {
 public:
  TimedCommitHook(assess::DurabilityManager* inner, Recorder* rec)
      : inner_(inner), rec_(rec) {}

  Status OnCommit(const assess::IngestCommit& commit) override {
    const int span = rec_->Begin("wal.commit", parent_, op_);
    Status status = inner_->OnCommit(commit);
    seconds_ += rec_->End(span);
    return status;
  }

  void StartBatch(int parent, int64_t op) {
    parent_ = parent;
    op_ = op;
    seconds_ = 0.0;
  }
  double seconds() const { return seconds_; }

 private:
  assess::DurabilityManager* inner_;
  Recorder* rec_;
  int parent_ = -1;
  int64_t op_ = 0;
  double seconds_ = 0.0;
};

}  // namespace

ResultDigest DigestResult(const AssessResult& result) {
  const assess::Cube& cube = result.cube;
  Fnv fnv;
  fnv.Str(result.measure);
  fnv.Str(result.benchmark_measure);
  fnv.Str(result.comparison_measure);
  fnv.Pod(cube.level_count());
  fnv.Pod(cube.measure_count());
  for (int m = 0; m < cube.measure_count(); ++m) fnv.Str(cube.measure_name(m));
  const int64_t rows = cube.NumRows();
  const bool labeled = !cube.labels().empty();
  for (int64_t row = 0; row < rows; ++row) {
    for (int l = 0; l < cube.level_count(); ++l) {
      fnv.Str(cube.CoordName(row, l));
    }
    for (int m = 0; m < cube.measure_count(); ++m) {
      uint64_t bits;
      const double v = cube.MeasureAt(row, m);
      std::memcpy(&bits, &v, sizeof(bits));
      fnv.Pod(bits);
    }
    if (labeled) fnv.Str(cube.labels()[row]);
  }
  return {rows, fnv.value()};
}

namespace {

/// The digest of `result` as a client sees it, after the wire round trip.
ResultDigest WireDigest(const AssessResult& result) {
  auto decoded =
      assess::DeserializeAssessResult(assess::SerializeAssessResult(result));
  return decoded.ok() ? DigestResult(*decoded) : ResultDigest{};
}

}  // namespace

ReplayResult Replay(const Schedule& schedule,
                    assess::DurabilityManager* durability, bool traced,
                    const std::vector<ResultDigest>* expected) {
  ReplayResult out;
  assess::StarDatabase* db = durability->db();
  assess::ExecutorOptions options;
  options.shared_cache = std::make_shared<assess::CubeResultCache>();
  assess::AssessSession session(db, options);
  assess::ExecutorOptions cold_options;
  cold_options.use_result_cache = false;
  assess::AssessSession cold_session(db, cold_options);
  Recorder rec(traced, &out.spans);
  TimedCommitHook hook(durability, &rec);
  LayerTotals& t = out.totals;

  auto fail = [&out](const std::string& what, const Status& status) {
    out.status = Status::Internal("replay " + what + ": " + status.ToString());
  };

  const int64_t wall_start = NowNs();
  int64_t excluded_ns = 0;  // answer checks, kept out of wall_s
  int64_t op = 0;
  int64_t batch = 0;
  for (const Round& round : schedule.rounds) {
    if (!round.ingest_csv.empty()) {
      const int span = rec.Begin("ingest.commit", -1, batch);
      hook.StartBatch(span, batch);
      assess::IngestOptions ingest_options;
      ingest_options.durability = &hook;
      assess::Ingestor ingestor(db, session.result_cache(), ingest_options);
      auto ingested = ingestor.IngestText("SSB", round.ingest_csv);
      t.ingest_self += rec.End(span) - hook.seconds();
      t.wal_commit += hook.seconds();
      if (!ingested.ok()) {
        fail("ingest", ingested.status());
        return out;
      }
      if (durability->ShouldCheckpoint()) {
        const int cp = rec.Begin("wal.checkpoint", -1, batch);
        Status status = durability->Checkpoint();
        t.checkpoint += rec.End(cp);
        if (!status.ok()) {
          fail("checkpoint", status);
          return out;
        }
        ++t.checkpoints;
      }
      ++t.batches;
      ++batch;
    }
    for (const auto& client : round.statements) {
      for (const std::string& text : client) {
        const int root = rec.Begin("statement", -1, op);
        std::shared_lock<std::shared_mutex> lock(db->schema_mutex());
        int span = rec.Begin("assess.parse", root, op);
        auto parsed = assess::ParseAssessStatement(text);
        t.parse += rec.End(span);
        if (!parsed.ok()) {
          fail("parse", parsed.status());
          return out;
        }
        span = rec.Begin("assess.analyze", root, op);
        auto analyzed =
            assess::Analyze(*parsed, *db, *session.functions(),
                            *session.labelings(), *session.options());
        t.analyze += rec.End(span);
        if (!analyzed.ok()) {
          fail("analyze", analyzed.status());
          return out;
        }
        span = rec.Begin("assess.plan", root, op);
        const assess::PlanKind plan = assess::BestPlan(*analyzed);
        t.plan += rec.End(span);
        const int exec = rec.Begin("assess.execute", root, op);
        auto result = session.executor().Execute(*analyzed, plan);
        const double exec_s = rec.End(exec);
        lock.unlock();
        if (!result.ok()) {
          fail("execute", result.status());
          return out;
        }
        const assess::StepTimings& st = result->timings;
        if (rec.on()) {
          int64_t cursor = out.spans[exec].start_ns;
          rec.Derived("storage.get", exec, op,
                      st.get_c + st.get_b + st.get_cb, &cursor);
          rec.Derived("assess.transform", exec, op, st.transform, &cursor);
          rec.Derived("assess.join", exec, op, st.join, &cursor);
          rec.Derived("functions.compare", exec, op, st.compare, &cursor);
          rec.Derived("labeling.label", exec, op, st.label, &cursor);
          t.get += st.get_c + st.get_b + st.get_cb;
          t.transform += st.transform;
          t.join += st.join;
          t.compare += st.compare;
          t.label += st.label;
          t.execute_self += exec_s - st.Total();
        }
        span = rec.Begin("wire.serialize", root, op);
        const std::string payload = assess::SerializeAssessResult(*result);
        t.serialize += rec.End(span);
        span = rec.Begin("wire.frame", root, op);
        const std::string frame =
            assess::EncodeFrame(assess::FrameType::kResult, payload);
        t.serialize += rec.End(span);
        span = rec.Begin("wire.deserialize", root, op);
        auto decoded = assess::DeserializeAssessResult(payload);
        t.deserialize += rec.End(span);
        t.statement += rec.End(root);
        t.result_bytes += static_cast<double>(frame.size());
        if (!decoded.ok()) {
          fail("deserialize", decoded.status());
          return out;
        }
        out.digests.push_back(DigestResult(*decoded));
        if (expected != nullptr &&
            op < static_cast<int64_t>(expected->size())) {
          const ResultDigest& want = (*expected)[op];
          if (want.rows >= 0 && !(want == out.digests.back())) {
            const int64_t check_start = NowNs();
            auto cold = cold_session.Query(text);
            if (cold.ok() && WireDigest(*cold) == want) {
              ++out.cold_path;
            } else if (++out.wrong <= 3) {
              out.wrong_ops.push_back(op);
            }
            excluded_ns += NowNs() - check_start;
          }
        }
        ++t.statements;
        ++op;
      }
    }
  }
  out.wall_s = static_cast<double>(NowNs() - wall_start - excluded_ns) * 1e-9;
  if (traced) {
    t.unattributed = t.statement -
                     (t.parse + t.analyze + t.plan + t.execute_self + t.get +
                      t.transform + t.join + t.compare + t.label +
                      t.serialize + t.deserialize);
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanEvent>& spans,
                      const std::string& metadata_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"metadata\": %s,\n",
               metadata_json.c_str());
  std::fprintf(f, "\"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanEvent& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %lld, "
                 "\"id\": %zu, \"parent\": %d%s}}%s\n",
                 s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.op), i, s.parent,
                 s.derived ? ", \"from\": \"StepTimings\"" : "",
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

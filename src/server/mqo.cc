#include "server/mqo.h"

#include <algorithm>
#include <map>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "assess/parser.h"
#include "assess/planner.h"
#include "assess/subplans.h"
#include "cache/cube_cache.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/star_schema.h"

namespace assess {

namespace {

/// Shared scans compile one lane-table set per consumer; beyond this arity
/// the fused kernels bail to hash aggregation anyway, so such subplans are
/// simply left out of grouping and execute solo.
constexpr int kMaxSharedArity = 16;

std::string SharedScanNote(size_t co_executing) {
  return "mqo: shared scan with " + std::to_string(co_executing) + " queries";
}

}  // namespace

MqoCollector::MqoCollector(const StarDatabase* db, const EngineOptions& engine,
                           MqoOptions options, Hooks hooks)
    : db_(db),
      engine_(db, engine),
      options_(options),
      hooks_(std::move(hooks)),
      functions_(FunctionRegistry::Default()),
      labelings_(LabelingRegistry::Default()),
      batch_size_hist_(MetricsRegistry::Instance().GetHistogram(
          "assessd_mqo_batch_size", Histogram::ExponentialBounds(1.0, 2.0, 8),
          "Requests per MQO micro-batch flush")) {
  thread_ = std::thread([this] { Run(); });
}

MqoCollector::~MqoCollector() { Stop(); }

Result<std::vector<MqoCollector::PlannedGet>> MqoCollector::PlanStatement(
    const std::string& statement) {
  // The same shared schema lock sessions plan under: dimension growth from
  // an ingest commit must not race name resolution or epoch stamping.
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex());
  ASSESS_ASSIGN_OR_RETURN(AssessStatement stmt, ParseAssessStatement(statement));
  ASSESS_ASSIGN_OR_RETURN(
      AnalyzedStatement analyzed,
      Analyze(stmt, *db_, functions_, labelings_, analyzer_options_));
  const PlanKind plan = BestPlan(analyzed);
  ASSESS_ASSIGN_OR_RETURN(std::vector<CubeQuery> gets,
                          PlannedGetSubplans(analyzed, plan));
  std::vector<PlannedGet> planned;
  planned.reserve(gets.size());
  for (CubeQuery& query : gets) {
    if (query.group_by.Arity() > kMaxSharedArity) continue;
    auto bound = db_->Find(query.cube_name);
    if (!bound.ok()) continue;
    PlannedGet get;
    get.canon = CanonicalizeQuery(query);
    // Group identity: one cube, one canonical predicate conjunction, one
    // fact epoch. Queries planned against different epochs would scan
    // different committed prefixes and must never share.
    get.canon.epoch = (*bound.value()).facts().epoch();
    get.fingerprint = FingerprintKey(get.canon);
    get.group_key = get.canon.cube_name;
    get.group_key.push_back('\0');
    for (const std::string& key : get.canon.predicate_keys) {
      get.group_key += key;
    }
    get.group_key.push_back('\0');
    get.group_key += std::to_string(get.canon.epoch);
    get.query = std::move(query);
    planned.push_back(std::move(get));
  }
  return planned;
}

bool MqoCollector::Submit(void* token, const std::string& statement) {
  // Plan before taking the collector lock: parsing and analysis are
  // read-only over shared registries and the (schema-locked) database, so
  // reader threads plan concurrently. A statement that fails to plan is
  // still held — it flushes ungrouped and produces its own typed error from
  // the session, exactly as it would unbatched.
  Held held;
  held.token = token;
  auto planned = PlanStatement(statement);
  if (planned.ok()) held.gets = std::move(planned.value());
  held.arrived = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return false;
    held_.push_back(std::move(held));
    pending_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
  return true;
}

void MqoCollector::Run() {
  const auto window = std::chrono::microseconds(options_.window_us);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (held_.empty()) {
      cv_.wait(lock, [this] { return stop_ || !held_.empty(); });
      continue;
    }
    const auto deadline = held_.front().arrived + window;
    if (static_cast<int>(held_.size()) < options_.max_batch &&
        std::chrono::steady_clock::now() < deadline) {
      cv_.wait_until(lock, deadline, [this, deadline] {
        return stop_ ||
               static_cast<int>(held_.size()) >= options_.max_batch ||
               std::chrono::steady_clock::now() >= deadline;
      });
      continue;  // re-evaluate: stop, ripeness, or a spurious wake
    }
    std::vector<Held> batch = std::move(held_);
    held_.clear();
    lock.unlock();
    ProcessBatch(std::move(batch), /*shared_scans_allowed=*/true);
    lock.lock();
  }
}

void MqoCollector::ProcessBatch(std::vector<Held> batch,
                                bool shared_scans_allowed) {
  if (batch.empty()) return;
  Span span("mqo.batch");
  span.AddInt("requests", static_cast<int64_t>(batch.size()));
  batch_size_hist_->Observe(static_cast<double>(batch.size()));
  if (batch.size() >= 2) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    queries_batched_.fetch_add(batch.size(), std::memory_order_relaxed);
  }

  // Per-request outcome, decided group by group. A request whose group's
  // shared scan fails is rejected once; its remaining subplans drop out of
  // later groups (its session will never run them).
  std::vector<Status> verdict(batch.size(), Status::OK());
  std::vector<std::string> note(batch.size());

  if (shared_scans_allowed && batch.size() >= 2) {
    // Group subplans by (cube, predicate conjunction, epoch). Groups run
    // in submission order; each group's members are ranked below.
    struct Member {
      size_t held;
      size_t get;
    };
    std::vector<std::string> group_order;
    std::unordered_map<std::string, std::vector<Member>> groups;
    for (size_t i = 0; i < batch.size(); ++i) {
      for (size_t g = 0; g < batch[i].gets.size(); ++g) {
        auto [it, fresh] =
            groups.try_emplace(batch[i].gets[g].group_key);
        if (fresh) group_order.push_back(batch[i].gets[g].group_key);
        it->second.push_back(Member{i, g});
      }
    }

    // Execution reads schemas and fact snapshots; hold the shared schema
    // lock like any session would. Released before hooks run.
    std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mutex());
    const std::shared_ptr<CubeResultCache>& cache = engine_.result_cache();
    for (const std::string& key : group_order) {
      std::vector<Member>& members = groups[key];
      if (members.size() < 2) continue;

      std::vector<const CanonicalQuery*> consumer_canons;
      std::unordered_set<std::string> consumer_fps;
      std::vector<Member> participants;  // consumers + piggybackers
      size_t piggybacked = 0;
      const CubeSchema* schema = nullptr;
      {
        auto bound = db_->Find(batch[members[0].held]
                                   .gets[members[0].get]
                                   .canon.cube_name);
        if (!bound.ok()) continue;
        schema = &(*bound.value()).schema();
      }
      // Finest group-by first: the rank sums each hierarchy's level (its
      // level count when absent), which a finer-or-equal group-by never
      // exceeds, so the order extends the roll-up order. The fingerprint
      // breaks ties, and a stable sort keeps duplicates in submission
      // order. Which member rides which scan then depends on what the
      // batch holds, never on which worker reached the window first.
      auto rank = [&](const Member& m) {
        const GroupBySet& by = batch[m.held].gets[m.get].canon.group_by;
        int sum = 0;
        for (int h = 0; h < schema->hierarchy_count(); ++h) {
          sum += by.HasHierarchy(h) ? by.LevelOf(h)
                                    : schema->hierarchy(h).level_count();
        }
        return sum;
      };
      std::stable_sort(members.begin(), members.end(),
                       [&](const Member& a, const Member& b) {
                         const int ra = rank(a);
                         const int rb = rank(b);
                         if (ra != rb) return ra < rb;
                         return batch[a.held].gets[a.get].fingerprint <
                                batch[b.held].gets[b.get].fingerprint;
                       });

      // Serial-trajectory consumer selection in that order — the same
      // answers the queries would get running one after another against
      // the shared cache:
      //  - an exact duplicate of an earlier consumer single-flights,
      //  - a subplan the cache already answers drops out,
      //  - a subplan a finer earlier consumer subsumes piggybacks (its
      //    session re-aggregates the consumer's seeded result),
      //  - everything else becomes a consumer of the shared scan.
      std::vector<CubeQuery> queries;
      for (const Member& m : members) {
        if (!verdict[m.held].ok()) continue;  // already failed elsewhere
        const PlannedGet& get = batch[m.held].gets[m.get];
        if (consumer_fps.count(get.fingerprint)) {
          ++piggybacked;
          participants.push_back(m);
          continue;
        }
        if (cache != nullptr && cache->Contains(get.fingerprint)) continue;
        bool subsumed = false;
        for (const CanonicalQuery* canon : consumer_canons) {
          if (EntryAnswersQuery(*schema, get.canon, *canon)) {
            subsumed = true;
            break;
          }
        }
        if (subsumed) {
          ++piggybacked;
          participants.push_back(m);
          continue;
        }
        consumer_fps.insert(get.fingerprint);
        consumer_canons.push_back(&get.canon);
        queries.push_back(get.query);
        participants.push_back(m);
      }
      // A shared scan only pays when at least two queries ride one pass.
      if (queries.empty() || participants.size() < 2) continue;

      const uint64_t epoch =
          batch[members[0].held].gets[members[0].get].canon.epoch;
      Span scan_span("mqo.shared_scan");
      scan_span.AddString("cube", schema->name());
      scan_span.AddInt("queries", static_cast<int64_t>(queries.size()));
      scan_span.AddInt("piggybacked", static_cast<int64_t>(piggybacked));
      auto result = [&]() -> Result<std::vector<Cube>> {
        ASSESS_FAILPOINT("mqo.batch");
        return engine_.ExecuteSharedScan(queries, epoch);
      }();
      if (result.ok()) {
        shared_scans_.fetch_add(1, std::memory_order_relaxed);
        queries_piggybacked_.fetch_add(piggybacked,
                                       std::memory_order_relaxed);
        const std::string group_note = SharedScanNote(participants.size());
        for (const Member& m : participants) {
          if (note[m.held].empty()) note[m.held] = group_note;
        }
      } else if (result.status().code() == StatusCode::kUnavailable) {
        // An ingest raced the window: the epoch the batch planned against
        // is gone. Degrade silently — every member executes unbatched.
        continue;
      } else {
        // The scan itself died (storage fault, injected failure): fail
        // exactly the requests that were riding it, with the typed status.
        // Other groups — and batch-mates outside this group — are fine.
        for (const Member& m : participants) {
          if (verdict[m.held].ok()) verdict[m.held] = result.status();
        }
      }
    }
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    if (verdict[i].ok()) {
      hooks_.enqueue(batch[i].token, note[i]);
    } else {
      hooks_.reject(batch[i].token, verdict[i]);
    }
    pending_.fetch_sub(1, std::memory_order_relaxed);
  }
}

MqoStats MqoCollector::stats() const {
  MqoStats stats;
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.queries_batched = queries_batched_.load(std::memory_order_relaxed);
  stats.shared_scans = shared_scans_.load(std::memory_order_relaxed);
  stats.queries_piggybacked =
      queries_piggybacked_.load(std::memory_order_relaxed);
  return stats;
}

void MqoCollector::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::vector<Held> rest;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rest = std::move(held_);
    held_.clear();
  }
  // The drain flush: held requests were admitted and carry live promises,
  // so they must reach the worker queue even mid-shutdown. Shared scans are
  // skipped — shutdown never waits on a fact scan.
  ProcessBatch(std::move(rest), /*shared_scans_allowed=*/false);
}

}  // namespace assess

#include "schedule.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "common/rng.h"
#include "fnv.h"

namespace perfbench {
namespace {

using assess::Hierarchy;
using assess::Rng;

// SSB hierarchy and level indexes (ssb/ssb_generator.cc).
constexpr int kDate = 0, kCustomer = 1, kPart = 2, kSupplier = 3;
constexpr int kKey = 0;  // every hierarchy's finest level (the fact key)
constexpr int kDay = 0, kMonth = 1, kYear = 2;
constexpr int kNation = 2, kRegion = 3;  // c_/s_ geography levels
constexpr int kMfgr = 3;

// Timed traffic per second of --seconds, fixed here rather than measured
// at run time so a run's mix never depends on the host's speed. Sized on a
// 4-core x86-64 host so the timed phase lasts about --seconds there.
constexpr int kExploreStatementsPerSecond = 140;
constexpr int kDashboardRoundsPerSecond = 250;
constexpr int kLiveRoundsPerSecond = 32;

// dashboard: the shared filter rotates every kRoundsPerFilter rounds, so
// one round in kRoundsPerFilter misses the cache and runs as an MQO shared
// scan; the other rounds are cache hits. 1/4 keeps the slow mode at 25 % of
// the samples, far from both the 50th and the 99th percentile.
constexpr int kRoundsPerFilter = 4;
constexpr int kDashboardTiles = 4;

// explore: every non-past statement slices its own date range of this many
// days; the range's first day is never reused within a run.
constexpr int kExploreRangeDays = 45;
constexpr int kMaxPasses = 8;
// Statements per type in each block: constant, external, sibling, past.
constexpr int kExploreTypeWeights[4] = {1, 1, 3, 1};

// live_ingest: rows per ingest batch (one WAL record, one epoch).
constexpr int kLiveBatchRows = 256;

const char* kRatioLabels =
    "labels {[-inf, 0.5): low, [0.5, 1.5]: ok, (1.5, inf): high}";

const Hierarchy& H(const assess::StarDatabase& db, int h) {
  auto bound = db.Find("SSB");
  if (!bound.ok()) throw std::runtime_error("SSB cube missing");
  return (*bound)->schema().hierarchy(h);
}

std::string Member(const assess::StarDatabase& db, int h, int level, int id) {
  return H(db, h).MemberName(level, id);
}

int Cardinality(const assess::StarDatabase& db, int h, int level) {
  return H(db, h).LevelCardinality(level);
}

std::vector<int> Shuffled(int n, Rng* rng) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(v[i], v[static_cast<int>(rng->Uniform(i + 1))]);
  }
  return v;
}

std::string Quote(const std::string& member) { return "'" + member + "'"; }

// Each text ends in 0xff, a byte no UTF-8 text holds, so ("ab", "c") and
// ("a", "bc") hash apart.
void Mix(Fnv* fnv, std::string_view text) {
  fnv->Bytes(text.data(), text.size());
  fnv->Pod<unsigned char>(0xff);
}

// ---------------------------------------------------------------- explore

// Statement k of the run takes the k-th unused
// range start (or (month, s_nation) pair for past), so no two statements
// share a selection and no get can be answered from another's cache entry:
// every cache entry's predicate set holds its statement's unique range.
class ExploreGen {
 public:
  ExploreGen(const assess::StarDatabase& db, Rng* rng) : db_(db), rng_(rng) {
    starts_ = Shuffled(
        Cardinality(db, kDate, kDay) - kExploreRangeDays - kMaxPasses, rng);
    // Past needs four predecessor months.
    const int months = Cardinality(db, kDate, kMonth);
    const int nations = Cardinality(db, kSupplier, kNation);
    for (int pair : Shuffled((months - 4) * nations, rng)) {
      past_.push_back({4 + pair / nations, pair % nations});
    }
  }

  std::string Next(int type) {
    switch (type) {
      case 0:
        return "with SSB for " + Range() +
               " by part assess revenue against 20000 "
               "using ratio(revenue, 20000) " +
               kRatioLabels;
      case 1:
        return "with SSB for " + Range() +
               " by customer assess revenue against BUDGET.plannedRevenue "
               "using normalizedDifference(revenue, benchmark.plannedRevenue) "
               "labels {[-inf, -0.1): behind, [-0.1, 0.1]: onTrack, "
               "(0.1, inf): ahead}";
      case 2: {
        const int regions = Cardinality(db_, kSupplier, kRegion);
        const int a = static_cast<int>(rng_->Uniform(regions));
        const int b = (a + 1 + static_cast<int>(rng_->Uniform(regions - 1))) %
                      regions;
        return "with SSB for " + Range() + ", s_region = " +
               Quote(Member(db_, kSupplier, kRegion, a)) +
               " by part, s_region assess quantity against s_region = " +
               Quote(Member(db_, kSupplier, kRegion, b)) +
               " using difference(quantity, benchmark.quantity) "
               "labels {[-inf, 0): less, [0, 0]: same, (0, inf]: more}";
      }
      default: {
        if (next_past_ >= past_.size()) throw std::runtime_error("past pool");
        const auto [month, nation] = past_[next_past_++];
        return "with SSB for month = " +
               Quote(Member(db_, kDate, kMonth, month)) + ", s_nation = " +
               Quote(Member(db_, kSupplier, kNation, nation)) +
               " by month, customer assess revenue against past 4 "
               "using ratio(revenue, benchmark.revenue) "
               "labels {[-inf, 0.9): worse, [0.9, 1.1]: fine, "
               "(1.1, inf): better}";
      }
    }
  }

 private:
  // Once every start day is used, the next pass lengthens the range by a
  // day, which keeps each (start, length) pair — and so each predicate
  // set — unique.
  std::string Range() {
    if (next_start_ == starts_.size()) {
      if (++pass_ == kMaxPasses) throw std::runtime_error("range pool");
      next_start_ = 0;
    }
    const int first = starts_[next_start_++];
    return "date between " + Quote(Member(db_, kDate, kDay, first)) +
           " and " +
           Quote(Member(db_, kDate, kDay,
                        first + kExploreRangeDays - 1 + pass_));
  }

  const assess::StarDatabase& db_;
  Rng* rng_;
  std::vector<int> starts_;
  size_t next_start_ = 0;
  int pass_ = 0;
  std::vector<std::pair<int, int>> past_;
  size_t next_past_ = 0;
};

void BuildExplore(const assess::StarDatabase& db, Rng* rng, int seconds,
                  Schedule* s) {
  s->query_clients = 1;
  const int per_segment = kExploreStatementsPerSecond * seconds / kSegments;
  ExploreGen gen(db, rng);
  // The analyst cycles the four benchmark types in blocks of
  // kExploreTypeWeights, every block freshly shuffled. The weights keep the
  // median inside the sibling mode and the 99th percentile inside the
  // constant mode (the costliest: its by-part results are the largest).
  std::vector<int> block;
  for (int t = 0; t < 4; ++t) {
    block.insert(block.end(), kExploreTypeWeights[t], t);
  }
  std::vector<int> types;
  while (static_cast<int>(types.size()) < per_segment * kSegments) {
    for (int i : Shuffled(static_cast<int>(block.size()), rng)) {
      types.push_back(block[i]);
    }
  }
  // One round per segment.
  for (int seg = 0; seg < kSegments; ++seg) {
    Round round;
    round.statements.resize(1);
    for (int k = seg * per_segment; k < (seg + 1) * per_segment; ++k) {
      round.statements[0].push_back(gen.Next(types[k]));
    }
    s->rounds.push_back(std::move(round));
  }
  // Warm-up: one statement of each type on fresh selections.
  for (int t = 0; t < 4; ++t) s->warmup.push_back(gen.Next(t));
  s->designed_miss_statements = s->statement_count();
}

// -------------------------------------------------------------- dashboard

// The four tiles of one dashboard over a shared filter: an exact duplicate
// pair (single-flight), a distinct group-by (shared scan) and a coarser
// roll-up of the first tile (subsumption).
std::vector<std::string> DashboardTiles(const std::string& filter) {
  const std::string head = "with SSB for " + filter;
  const std::string revenue =
      " assess revenue against 20000 using ratio(revenue, 20000) " +
      std::string(kRatioLabels);
  const std::string tile0 = head + " by c_nation, category" + revenue;
  return {
      tile0,
      tile0,
      head + " by c_region, brand assess quantity against 10 "
             "using difference(quantity, 10) labels quartiles",
      head + " by c_region, mfgr" + revenue,
  };
}

void BuildDashboard(const assess::StarDatabase& db, Rng* rng, int seconds,
                    Schedule* s) {
  s->query_clients = kDashboardTiles;
  const int rounds = kDashboardRoundsPerSecond * seconds / kSegments /
                     kRoundsPerFilter * kSegments * kRoundsPerFilter;
  const int filters = (rounds + kRoundsPerFilter - 1) / kRoundsPerFilter;
  const int months = Cardinality(db, kDate, kMonth);
  const int nations = Cardinality(db, kSupplier, kNation);
  const int mfgrs = Cardinality(db, kPart, kMfgr);
  // Filters (month, s_nation, mfgr), never repeated; the last one is kept
  // for warm-up.
  std::vector<int> picks = Shuffled(months * nations * mfgrs, rng);
  if (filters + 1 > static_cast<int>(picks.size())) {
    throw std::runtime_error("dashboard filter pool exhausted");
  }
  auto filter = [&](int i) {
    const int pick = picks[i];
    return "month = " +
           Quote(Member(db, kDate, kMonth, pick / (nations * mfgrs))) +
           ", s_nation = " +
           Quote(Member(db, kSupplier, kNation, pick / mfgrs % nations)) +
           ", mfgr = " + Quote(Member(db, kPart, kMfgr, pick % mfgrs));
  };
  for (int r = 0; r < rounds; ++r) {
    Round round;
    for (std::string& tile : DashboardTiles(filter(r / kRoundsPerFilter))) {
      round.statements.push_back({std::move(tile)});
    }
    s->rounds.push_back(std::move(round));
  }
  s->warmup = DashboardTiles(filter(static_cast<int>(picks.size()) - 1));
  s->designed_miss_statements = int64_t{filters} * kDashboardTiles;
  s->designed_filters = filters;
}

// ------------------------------------------------------------ live_ingest

std::string IngestBatch(const assess::StarDatabase& db, Rng* rng) {
  auto bound = db.Find("SSB");
  const assess::CubeSchema& schema = (*bound)->schema();
  std::string csv;
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    csv += schema.hierarchy(h).level_name(0);
    csv += ',';
  }
  csv += "quantity,revenue,supplycost\n";
  for (int r = 0; r < kLiveBatchRows; ++r) {
    // Member-stable rows: every key names an existing level-0 member.
    for (int h : {kDate, kCustomer, kPart, kSupplier}) {
      const int card = Cardinality(db, h, kKey);
      csv += Member(db, h, kKey, static_cast<int>(rng->Uniform(card)));
      csv += ',';
    }
    const int quantity = 1 + static_cast<int>(rng->Uniform(50));
    const int price = 1000 + static_cast<int>(rng->Uniform(9000));
    const int revenue = quantity * price;
    csv += std::to_string(quantity) + ',' + std::to_string(revenue) + ',' +
           std::to_string(revenue / 2) + '\n';
  }
  return csv;
}

// Per round and client: the client's statement misses once (the batch
// swept its epoch), then hits exactly four times and by subsumption once.
// Exact-hit waves are 4 in 6, so the median lies well inside their mode,
// and the miss waves (1 in 6) hold the 99th percentile. Client 0's
// statements are answered from the {month, c_nation} view, client 1's scan
// the fact table.
std::vector<std::vector<std::string>> LiveStatements(
    const assess::StarDatabase& db, int year, int c_region, int s_region) {
  const std::string y = Quote(Member(db, kDate, kYear, year));
  const std::string view_query =
      "with SSB for year = " + y + ", c_region = " +
      Quote(Member(db, kCustomer, kRegion, c_region));
  const std::string fact_query =
      "with SSB for year = " + y + ", s_region = " +
      Quote(Member(db, kSupplier, kRegion, s_region));
  const std::string revenue =
      " assess revenue against 1000000 using ratio(revenue, 1000000) " +
      std::string(kRatioLabels);
  const std::string quantity =
      " assess quantity against 100 using difference(quantity, 100) "
      "labels quartiles";
  const std::string a0 = view_query + " by month, c_nation" + revenue;
  const std::string s0 = view_query + " by year, c_region" + revenue;
  const std::string a1 = fact_query + " by category, s_nation" + quantity;
  const std::string s1 = fact_query + " by mfgr, s_region" + quantity;
  return {{a0, a0, a0, a0, s0, a0}, {a1, a1, a1, a1, s1, a1}};
}

void BuildLiveIngest(const assess::StarDatabase& db, Rng* rng, int seconds,
                     Schedule* s) {
  s->query_clients = 2;
  s->has_ingest_client = true;
  const int rounds = kLiveRoundsPerSecond * seconds / kSegments * kSegments;
  const int years = Cardinality(db, kDate, kYear);
  const int regions = Cardinality(db, kCustomer, kRegion);
  for (int r = 0; r < rounds; ++r) {
    Round round;
    round.ingest_csv = IngestBatch(db, rng);
    round.ingest_rows = kLiveBatchRows;
    round.statements = LiveStatements(
        db, static_cast<int>(rng->Uniform(years)),
        static_cast<int>(rng->Uniform(regions)),
        static_cast<int>(rng->Uniform(regions)));
    s->rounds.push_back(std::move(round));
  }
  // Warm-up at the bootstrap epoch; the first batch sweeps its entries.
  for (const auto& client : LiveStatements(db, 0, 0, 0)) {
    s->warmup.push_back(client[0]);
  }
  // The first statement of each client per round misses.
  s->designed_miss_statements = int64_t{rounds} * s->query_clients;
}

}  // namespace

int64_t Schedule::statement_count() const {
  int64_t n = 0;
  for (const Round& r : rounds) {
    for (const auto& c : r.statements) n += static_cast<int64_t>(c.size());
  }
  return n;
}

int64_t Schedule::ingest_batches() const {
  int64_t n = 0;
  for (const Round& r : rounds) n += r.ingest_csv.empty() ? 0 : 1;
  return n;
}

int64_t Schedule::ingest_rows() const {
  int64_t n = 0;
  for (const Round& r : rounds) n += r.ingest_rows;
  return n;
}

uint64_t Schedule::digest() const {
  Fnv fnv;
  for (const Round& r : rounds) {
    Mix(&fnv, r.ingest_csv);
    for (const auto& c : r.statements) {
      for (const std::string& stmt : c) Mix(&fnv, stmt);
    }
  }
  return fnv.value();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"explore", "dashboard",
                                                 "live_ingest"};
  return names;
}

bool BuildSchedule(const std::string& workload, uint64_t seed, int seconds,
                   const assess::StarDatabase& db, Schedule* out,
                   std::string* error) {
  Schedule s;
  s.workload = workload;
  s.seed = seed;
  // Distinct streams per workload, so one seed gives unrelated mixes.
  Fnv stream(Fnv::kBasis ^ seed);
  Mix(&stream, workload);
  Rng rng(stream.value());
  try {
    if (workload == "explore") {
      BuildExplore(db, &rng, seconds, &s);
    } else if (workload == "dashboard") {
      BuildDashboard(db, &rng, seconds, &s);
    } else if (workload == "live_ingest") {
      BuildLiveIngest(db, &rng, seconds, &s);
    } else {
      *error = "unknown workload '" + workload + "'";
      return false;
    }
  } catch (const std::exception& e) {
    *error = std::string("schedule: ") + e.what();
    return false;
  }
  *out = std::move(s);
  return true;
}

}  // namespace perfbench

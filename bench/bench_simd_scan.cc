// SIMD scan-kernel benchmark: what the vectorized fused kernels buy over
// (a) the pre-vectorization generic hash kernel and (b) the scalar mirror
// of the same fused design, on SSB fact scans at 1 thread.
//
//   1. Kernel micro-bench on the real SSB columns: the seed engine's
//      per-row hash-aggregate loop (FlatMap64 + per-row key construction)
//      against the fused dense kernel at each tier (scalar, and AVX2 when
//      the CPU has it). This is
//      the apples-to-apples number for the "fused kernels at 1 thread"
//      speedup target — same predicate, same grouping, same memory.
//   2. Engine-level queries (apex, selective, non-selective, wide
//      group-by) with the tier pinned via ForceSimdLevelForTest, so the
//      numbers include planning, lane-table construction and the morsel
//      loop. Checksums must be bit-identical across tiers — the bench
//      aborts if the determinism contract breaks.
//
// Writes BENCH_simd.json. Override reps with ASSESS_BENCH_REPS and scale
// with ASSESS_SSB_BASE_SF.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flat_map64.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/task_pool.h"
#include "storage/predicate.h"
#include "storage/scan_kernels.h"
#include "storage/star_query_engine.h"

namespace assess {
namespace {

using bench::RepsFromEnv;
using bench::Secs;

// The seed engine's inner loop, reproduced: per row a pass-flag lookup, a
// mixed-radix key, a FlatMap64 probe and the accumulate. What every scan
// paid before the dense fused kernels existed.
double RunGenericHashKernel(const std::vector<int32_t>& date_fk,
                            const std::vector<int32_t>& cust_fk,
                            const std::vector<uint8_t>& pass,
                            const std::vector<MemberId>& nation_of,
                            const std::vector<double>& revenue, int reps,
                            double* checksum) {
  const int64_t rows = static_cast<int64_t>(revenue.size());
  // Best-of-reps everywhere in this file: the box shares cores, and the
  // minimum is the standard noise-robust estimator of kernel cost.
  double seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    FlatMap64 map{1024};
    int32_t num_groups = 0;
    std::vector<double> acc;
    for (int64_t i = 0; i < rows; ++i) {
      const int32_t date = date_fk[i];
      if (!pass[date]) continue;
      const uint64_t key =
          1 + (static_cast<uint64_t>(nation_of[cust_fk[i]]) + 1);
      bool inserted = false;
      int32_t group = map.FindOrInsert(key, num_groups, &inserted);
      if (inserted) {
        ++num_groups;
        acc.push_back(0.0);
      }
      acc[group] += revenue[i];
    }
    seconds = std::min(seconds, sw.ElapsedSeconds());
    *checksum = 0;
    for (double v : acc) *checksum += v;
  }
  return seconds;
}

// The same scan through the fused kernel of `level`, morsel by morsel like
// the engine runs it.
double RunFusedKernel(SimdLevel level, const FusedScanArgs& args,
                      int64_t rows, int reps, double* checksum) {
  FusedScanFn kernel = GetFusedScanKernel(level);
  double seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    AggState state;
    state.out_coords.resize(args.groups.size());
    state.acc.resize(args.measures.size());
    state.cnt.resize(args.measures.size());
    for (int64_t begin = 0; begin < rows; begin += kMorselRows) {
      kernel(args, begin, std::min(rows, begin + kMorselRows), &state);
    }
    seconds = std::min(seconds, sw.ElapsedSeconds());
    *checksum = 0;
    for (double v : state.acc[0]) *checksum += v;
  }
  return seconds;
}

double TimeQuery(const StarQueryEngine& engine, const CubeQuery& query,
                 int reps, uint64_t* checksum) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    auto cube = engine.Execute(query);
    if (!cube.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   cube.status().ToString().c_str());
      std::exit(1);
    }
    best = std::min(best, sw.ElapsedSeconds());
    // Bit-exact checksum: XOR of all measure bit patterns. Tier-invariant
    // by the determinism contract; checked by main().
    uint64_t sum = 0;
    for (int m = 0; m < cube->measure_count(); ++m) {
      for (double v : cube->measure_column(m)) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        sum ^= bits;
      }
    }
    *checksum = sum;
  }
  return best;
}

}  // namespace
}  // namespace assess

int main() {
  using namespace assess;

  const int reps = RepsFromEnv(5);
  const double sf = BaseScaleFactorFromEnv(0.2);
  const SimdLevel best = DetectCpuSimdLevel();
  // The tiers this CPU can run, scalar (the reference) first.
  std::vector<SimdLevel> tiers = {SimdLevel::kScalar};
  if (best == SimdLevel::kAVX2) tiers.push_back(SimdLevel::kAVX2);

  SsbScalePoint point;
  point.name = "SSB-simd";
  point.scale_factor = sf;
  std::unique_ptr<StarDatabase> db = bench::BuildScale(point, false);
  const BoundCube* ssb = *db->Find("SSB");
  const FactTable& facts = ssb->facts();
  const int64_t rows = facts.NumRows();

  std::printf("simd scan bench: SF %.3g (%lld rows), best tier %s, %d reps\n\n",
              sf, static_cast<long long>(rows), SimdLevelName(best), reps);

  // -- 1. Kernel micro-bench ----------------------------------------------
  // Group by c_nation under year IN {1997, 1998}: the fused-kernel shape of
  // bench_parallel_scan, now against the real kernels.
  std::vector<Predicate> preds = {{0, 2, PredicateOp::kIn, {"1997", "1998"}}};
  auto pass_or = BuildDimensionRowFlags(ssb->dimension(0), preds);
  if (!pass_or.ok()) {
    std::fprintf(stderr, "flags failed: %s\n",
                 pass_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<uint8_t>& pass = *pass_or;
  const std::vector<MemberId>& nation_of = ssb->dimension(1).level_column(2);
  const uint32_t nations = static_cast<uint32_t>(
      ssb->schema().hierarchy(1).LevelCardinality(2));

  // Lane tables exactly as the engine builds them (radix 1, one group).
  std::vector<uint32_t> date_lane(ssb->dimension(0).NumRows(), 0u);
  for (size_t c = 0; c < date_lane.size(); ++c) {
    if (!pass[c]) date_lane[c] = kLaneReject;
  }
  std::vector<uint32_t> cust_lane(ssb->dimension(1).NumRows(), 0u);
  for (size_t c = 0; c < cust_lane.size(); ++c) {
    cust_lane[c] = static_cast<uint32_t>(nation_of[c]) + 1u;
  }
  FusedScanArgs args;
  args.columns.push_back(
      KernelColumn{facts.fk_column(0).data(), date_lane.data()});
  args.columns.push_back(
      KernelColumn{facts.fk_column(1).data(), cust_lane.data()});
  args.groups.push_back(KernelGroup{1, nations + 1});
  args.measures.push_back(KernelMeasure{
      facts.measure_column(1).data(), AggOp::kSum});
  args.key_space = nations + 2;

  double generic_check = 0;
  const double generic_s = RunGenericHashKernel(
      facts.fk_column(0), facts.fk_column(1), pass, nation_of,
      facts.measure_column(1), reps, &generic_check);
  std::printf("kernel micro (year IN {1997,1998} by c_nation, 1 thread):\n");
  std::printf("  %-14s %ss\n", "generic-hash", Secs(generic_s).c_str());

  std::vector<double> tier_seconds(tiers.size(), 0.0);
  double scalar_check = 0;
  for (size_t t = 0; t < tiers.size(); ++t) {
    double check = 0;
    tier_seconds[t] = RunFusedKernel(tiers[t], args, rows, reps, &check);
    // Fused tiers are bit-identical to each other by contract. The generic
    // loop groups across the whole scan while this harness re-seeds groups
    // per morsel (no merge step), so against it only a rounding-tolerance
    // comparison is meaningful.
    if (t == 0) {
      scalar_check = check;
      double diff = check > generic_check ? check - generic_check
                                          : generic_check - check;
      if (diff > 1e-6 * (1.0 + (generic_check < 0 ? -generic_check
                                                  : generic_check))) {
        std::fprintf(stderr, "kernel checksum mismatch vs generic: %f vs %f\n",
                     check, generic_check);
        return 1;
      }
    } else if (check != scalar_check) {
      std::fprintf(stderr, "kernel checksum mismatch at tier %s: %f vs %f\n",
                   SimdLevelName(tiers[t]), check, scalar_check);
      return 1;
    }
    std::printf("  fused-%-8s %ss  (%.2fx vs generic)\n",
                SimdLevelName(tiers[t]), Secs(tier_seconds[t]).c_str(),
                generic_s / tier_seconds[t]);
  }

  // -- 2. Engine-level queries at each tier ---------------------------------
  struct QueryCase {
    const char* name;
    CubeQuery query;
  };
  auto make = [&](const std::vector<std::string>& by,
                  std::vector<Predicate> qpreds) {
    auto q = CubeQuery::Make(ssb->schema(), "SSB", by, std::move(qpreds),
                             {"revenue"});
    if (!q.ok()) {
      std::fprintf(stderr, "bad query: %s\n", q.status().ToString().c_str());
      std::exit(1);
    }
    return *q;
  };
  std::vector<QueryCase> cases;
  cases.push_back({"apex", make({}, {})});
  cases.push_back({"non_selective", make({"c_nation", "s_region"}, {})});
  cases.push_back(
      {"selective", make({"c_nation", "s_region"},
                         {{3, 3, PredicateOp::kEquals, {"ASIA"}},
                          {0, 2, PredicateOp::kIn, {"1997", "1998"}}})});
  cases.push_back({"by_brand", make({"brand"}, {})});

  struct EnginePoint {
    const char* query;
    SimdLevel tier;
    double seconds;
  };
  std::vector<EnginePoint> engine_points;
  std::printf("\nengine queries (1 thread):\n");
  std::printf("  %-14s %-8s %10s %10s\n", "query", "tier", "seconds",
              "speedup");
  for (const QueryCase& qc : cases) {
    double scalar_s = 0;
    uint64_t want_check = 0;
    for (SimdLevel tier : tiers) {
      ForceSimdLevelForTest(static_cast<int>(tier));
      EngineOptions options;
      options.use_views = false;
      options.use_result_cache = false;
      options.threads = 1;
      options.pool = std::make_shared<TaskPool>(1);
      StarQueryEngine engine(db.get(), options);
      uint64_t check = 0;
      double seconds = TimeQuery(engine, qc.query, reps, &check);
      if (tier == SimdLevel::kScalar) {
        scalar_s = seconds;
        want_check = check;
      } else if (check != want_check) {
        std::fprintf(stderr,
                     "engine checksum mismatch: query %s tier %s\n",
                     qc.name, SimdLevelName(tier));
        return 1;
      }
      engine_points.push_back({qc.name, tier, seconds});
      std::printf("  %-14s %-8s %ss %9.2fx\n", qc.name, SimdLevelName(tier),
                  Secs(seconds).c_str(), scalar_s / seconds);
    }
  }
  ForceSimdLevelForTest(-1);

  // -- JSON record ----------------------------------------------------------
  std::FILE* json = std::fopen("BENCH_simd.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_simd.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"scale_factor\": %.6g,\n"
               "  \"rows\": %lld,\n"
               "  \"reps\": %d,\n"
               "  \"best_tier\": \"%s\",\n"
               "  \"kernel_micro\": {\n"
               "    \"workload\": \"year IN {1997,1998} group by c_nation, "
               "sum revenue, 1 thread\",\n"
               "    \"generic_hash_seconds\": %.6f,\n",
               sf, static_cast<long long>(rows), reps, SimdLevelName(best),
               generic_s);
  for (size_t t = 0; t < tiers.size(); ++t) {
    std::fprintf(json, "    \"fused_%s_seconds\": %.6f,\n",
                 SimdLevelName(tiers[t]), tier_seconds[t]);
  }
  std::fprintf(json,
               "    \"speedup_best_vs_generic\": %.3f\n"
               "  },\n"
               "  \"engine_queries\": [\n",
               generic_s / tier_seconds.back());
  for (size_t i = 0; i < engine_points.size(); ++i) {
    const EnginePoint& p = engine_points[i];
    std::fprintf(json,
                 "    {\"query\": \"%s\", \"tier\": \"%s\", "
                 "\"seconds\": %.6f}%s\n",
                 p.query, SimdLevelName(p.tier),
                 p.seconds, i + 1 < engine_points.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_simd.json\n");
  return 0;
}

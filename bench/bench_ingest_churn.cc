// Ingest-churn benchmark: the SSB workload keeps querying while requests of
// member-stable rows stream into the fact table, each commit sweeping the
// epoch-keyed cache and delta-merging two materialized views. Each
// statement runs twice per round, so the second pass can hit the
// epoch-keyed cache; every ingest then advances the epoch and the next
// round starts cold again. Reports query and ingest latency percentiles
// plus the cache and maintenance counters, and writes BENCH_ingest.json
// for the regression record. Single-threaded on purpose:
// interleaving is deterministic and honest on a one-core CI host, and the
// snapshot-isolation properties of concurrent churn are proven by
// ingest_test, not timed here.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cache/cube_cache.h"
#include "ingest/ingestor.h"
#include "storage/star_query_engine.h"

namespace {

using namespace assess;
using namespace assess::bench;

std::string QuoteCsv(const std::string& field) {
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

// Header naming every hierarchy's key column and every measure.
std::string ChurnHeader(const CubeSchema& schema) {
  std::string header;
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    if (!header.empty()) header += ',';
    header += schema.hierarchy(h).level_name(0);
  }
  for (int m = 0; m < schema.measure_count(); ++m) {
    header += ',';
    header += schema.measure(m).name;
  }
  header += '\n';
  return header;
}

// One CSV request of member-stable rows, keys sampled from the live
// dimensions (deterministically, so both modes ingest identical data).
std::string ChurnRequest(const BoundCube& bound, int rows, int64_t salt) {
  const CubeSchema& schema = bound.schema();
  std::string text = ChurnHeader(schema);
  for (int r = 0; r < rows; ++r) {
    std::string line;
    for (int h = 0; h < schema.hierarchy_count(); ++h) {
      const DimensionTable& dim = bound.dimension(h);
      const int64_t row =
          (salt * 7919 + int64_t{r} * 131 + h * 31) % dim.NumRows();
      if (!line.empty()) line += ',';
      line += QuoteCsv(dim.hierarchy().MemberName(0, dim.CodeAt(row, 0)));
    }
    for (int m = 0; m < schema.measure_count(); ++m) {
      line += ',';
      line += std::to_string(1 + (r + m) % 7);
    }
    text += line;
    text += '\n';
  }
  return text;
}

double PercentileMs(std::vector<double> seconds, double p) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  const size_t idx = std::min(
      seconds.size() - 1,
      static_cast<size_t>(p * static_cast<double>(seconds.size() - 1)));
  return seconds[idx] * 1000.0;
}

struct ChurnResult {
  double query_p50_ms = 0, query_p99_ms = 0;
  double ingest_p50_ms = 0, ingest_p99_ms = 0;
  double hit_rate = 0;
  CacheStats cache;
  uint64_t rows_ingested = 0;
  uint64_t mv_incremental_updates = 0;
  uint64_t mv_full_rebuilds = 0;
  uint64_t cache_invalidations = 0;
};

ChurnResult RunChurn(double sf, int rounds, int rows_per_request) {
  // The workload's External statement compares against the BUDGET cube, so
  // keep it; churn streams into SSB only.
  auto db = BuildScale({"SSB", sf});
  auto bound = db->FindMutable("SSB");
  if (!bound.ok()) {
    std::fprintf(stderr, "no SSB cube: %s\n",
                 bound.status().ToString().c_str());
    std::exit(1);
  }
  const CubeSchema& schema = (*bound)->schema();

  ExecutorOptions options;
  options.shared_cache = std::make_shared<CubeResultCache>(options.cache);
  AssessSession session(db.get(), options);

  // Two coarse materialized views, so every request pays view maintenance.
  StarQueryEngine engine(db.get(), /*use_views=*/false, /*threads=*/1);
  std::vector<std::string> view_levels;
  for (int h = 0; h < schema.hierarchy_count() && view_levels.size() < 2;
       ++h) {
    const Hierarchy& hier = schema.hierarchy(h);
    view_levels.push_back(hier.level_name(hier.level_count() - 1));
    auto built = engine.MaterializeView(db.get(), "SSB", view_levels,
                                        "churn_view_" + std::to_string(h));
    if (!built.ok()) {
      std::fprintf(stderr, "materialize failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(1);
    }
  }

  Ingestor ingestor(db.get(), options.shared_cache, IngestOptions{});

  const std::vector<WorkloadStatement> workload = SsbWorkload();
  std::vector<double> query_seconds;
  std::vector<double> ingest_seconds;
  ChurnResult result;
  for (int round = 0; round < rounds; ++round) {
    // Two passes per round: the first repopulates the cache at the current
    // epoch, the second gets to hit it.
    for (int pass = 0; pass < 2; ++pass) {
      for (const WorkloadStatement& stmt : workload) {
        Stopwatch watch;
        auto r = session.Query(stmt.text);
        if (!r.ok()) {
          std::fprintf(stderr, "%s failed: %s\n", stmt.name.c_str(),
                       r.status().ToString().c_str());
          std::exit(1);
        }
        query_seconds.push_back(watch.ElapsedSeconds());
      }
    }
    std::string request = ChurnRequest(**bound, rows_per_request, round);
    Stopwatch watch;
    auto stats = ingestor.IngestText("SSB", request);
    if (!stats.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    ingest_seconds.push_back(watch.ElapsedSeconds());
    result.rows_ingested += stats->rows_ingested;
    result.mv_incremental_updates += stats->mv_incremental_updates;
    result.mv_full_rebuilds += stats->mv_full_rebuilds;
    result.cache_invalidations += stats->cache_invalidations;
  }

  result.query_p50_ms = PercentileMs(query_seconds, 0.50);
  result.query_p99_ms = PercentileMs(query_seconds, 0.99);
  result.ingest_p50_ms = PercentileMs(ingest_seconds, 0.50);
  result.ingest_p99_ms = PercentileMs(ingest_seconds, 0.99);
  result.cache = options.shared_cache->stats();
  result.hit_rate =
      result.cache.lookups > 0
          ? static_cast<double>(result.cache.hits()) / result.cache.lookups
          : 0.0;
  return result;
}

void PrintMode(const char* name, const ChurnResult& r) {
  std::printf(
      "%-12s query p50 %7.3f ms  p99 %7.3f ms   ingest p50 %7.3f ms  "
      "p99 %7.3f ms\n"
      "             cache: hit rate %.1f%% (%llu lookups, %llu hits, "
      "%llu epoch-swept)\n"
      "             maintenance: %llu delta-merges, %llu full rebuilds, "
      "%llu rows\n",
      name, r.query_p50_ms, r.query_p99_ms, r.ingest_p50_ms, r.ingest_p99_ms,
      100.0 * r.hit_rate,
      static_cast<unsigned long long>(r.cache.lookups),
      static_cast<unsigned long long>(r.cache.hits()),
      static_cast<unsigned long long>(r.cache.epoch_invalidations),
      static_cast<unsigned long long>(r.mv_incremental_updates),
      static_cast<unsigned long long>(r.mv_full_rebuilds),
      static_cast<unsigned long long>(r.rows_ingested));
}

void WriteModeJson(std::FILE* json, const char* name, const ChurnResult& r) {
  std::fprintf(
      json,
      "  \"%s\": {\n"
      "    \"query_p50_ms\": %.4f,\n"
      "    \"query_p99_ms\": %.4f,\n"
      "    \"ingest_p50_ms\": %.4f,\n"
      "    \"ingest_p99_ms\": %.4f,\n"
      "    \"cache_hit_rate\": %.4f,\n"
      "    \"cache_lookups\": %llu,\n"
      "    \"cache_hits\": %llu,\n"
      "    \"cache_epoch_invalidations\": %llu,\n"
      "    \"cache_invalidations\": %llu,\n"
      "    \"rows_ingested\": %llu,\n"
      "    \"mv_incremental_updates\": %llu,\n"
      "    \"mv_full_rebuilds\": %llu\n"
      "  }\n",
      name, r.query_p50_ms, r.query_p99_ms, r.ingest_p50_ms, r.ingest_p99_ms,
      r.hit_rate, static_cast<unsigned long long>(r.cache.lookups),
      static_cast<unsigned long long>(r.cache.hits()),
      static_cast<unsigned long long>(r.cache.epoch_invalidations),
      static_cast<unsigned long long>(r.cache_invalidations),
      static_cast<unsigned long long>(r.rows_ingested),
      static_cast<unsigned long long>(r.mv_incremental_updates),
      static_cast<unsigned long long>(r.mv_full_rebuilds));
}

}  // namespace

int main() {
  const double sf = BaseScaleFactorFromEnv(0.01);
  const int rounds = RepsFromEnv(12);
  const int rows_per_request = 512;

  std::printf(
      "Ingest churn (SF %.3g, %d rounds, %d rows/request, SSB workload "
      "twice per round)\n\n",
      sf, rounds, rows_per_request);

  ChurnResult incremental = RunChurn(sf, rounds, rows_per_request);
  PrintMode("incremental", incremental);

  std::FILE* json = std::fopen("BENCH_ingest.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_ingest.json\n");
    return 1;
  }
  // "batch_rows" is the rows per request; the key keeps the file's shape.
  std::fprintf(json,
               "{\n"
               "  \"scale_factor\": %.6g,\n"
               "  \"rounds\": %d,\n"
               "  \"batch_rows\": %d,\n",
               sf, rounds, rows_per_request);
  WriteModeJson(json, "incremental", incremental);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("\nwrote BENCH_ingest.json\n");
  return 0;
}

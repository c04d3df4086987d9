// Micro/ablation benchmarks for the design choices called out in DESIGN.md:
//  - hash aggregation throughput of the engine (the cost of every `get`);
//  - property P3 as an ablation: sibling NP (two gets + client join) vs JOP
//    (fused join) vs POP (fused pivot) on identical statements;
//  - materialized views on/off for a coarse get;
//  - FlatMap64 vs std::unordered_map for the aggregation inner loop;
//  - labeling and forecasting primitive costs.

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>

#include "assess/session.h"
#include "bench_util.h"
#include "common/flat_map64.h"
#include "common/rng.h"
#include "forecast/forecast.h"
#include "labeling/distribution_labeling.h"
#include "labeling/kmeans_labeling.h"
#include "labeling/range_labeling.h"
#include "ssb/ssb_generator.h"
#include "ssb/workload.h"
#include "storage/star_query_engine.h"

namespace assess {
namespace {

// One shared database for the micro benches (SF 0.01: 60k lineorders).
const StarDatabase& SharedDb() {
  static StarDatabase* db = [] {
    SsbConfig config;
    config.scale_factor = 0.01;
    return BuildSsbDatabase(config)->release();
  }();
  return *db;
}

StarDatabase& SharedMutableDb() {
  return const_cast<StarDatabase&>(SharedDb());
}

void BM_EngineAggregateByPart(benchmark::State& state) {
  StarQueryEngine engine(&SharedDb(), /*use_views=*/false);
  const BoundCube* ssb = *SharedDb().Find("SSB");
  CubeQuery q = *CubeQuery::Make(ssb->schema(), "SSB", {"part"}, {},
                                 {"revenue"});
  for (auto _ : state) {
    auto cube = engine.Execute(q);
    benchmark::DoNotOptimize(cube->NumRows());
  }
  state.SetItemsProcessed(state.iterations() * ssb->facts().NumRows());
}
BENCHMARK(BM_EngineAggregateByPart);

void BM_EngineAggregateApex(benchmark::State& state) {
  StarQueryEngine engine(&SharedDb(), /*use_views=*/false);
  const BoundCube* ssb = *SharedDb().Find("SSB");
  CubeQuery q = *CubeQuery::Make(ssb->schema(), "SSB", {}, {}, {"revenue"});
  for (auto _ : state) {
    auto cube = engine.Execute(q);
    benchmark::DoNotOptimize(cube->NumRows());
  }
  state.SetItemsProcessed(state.iterations() * ssb->facts().NumRows());
}
BENCHMARK(BM_EngineAggregateApex);

void BM_EngineAggregateParallel(benchmark::State& state) {
  StarQueryEngine engine(&SharedDb(), /*use_views=*/false,
                         static_cast<int>(state.range(0)));
  const BoundCube* ssb = *SharedDb().Find("SSB");
  CubeQuery q = *CubeQuery::Make(ssb->schema(), "SSB", {"part"}, {},
                                 {"revenue"});
  for (auto _ : state) {
    auto cube = engine.Execute(q);
    benchmark::DoNotOptimize(cube->NumRows());
  }
  state.SetItemsProcessed(state.iterations() * ssb->facts().NumRows());
}
BENCHMARK(BM_EngineAggregateParallel)->Arg(1)->Arg(2)->Arg(4);

// --- P3 ablation: the same sibling statement under each plan --------------

void RunSiblingPlan(benchmark::State& state, PlanKind plan) {
  // No result cache: with one, every iteration after the first would time
  // a cache hit plus the client-side join or pivot, not the plan's gets.
  AssessSession session(&SharedDb(), bench::PlanBenchOptions());
  const std::string text = SsbWorkload()[2].text;
  for (auto _ : state) {
    auto result = session.Query(text, plan);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result->cube.NumRows());
  }
}
void BM_SiblingNP(benchmark::State& state) {
  RunSiblingPlan(state, PlanKind::kNP);
}
void BM_SiblingJOP(benchmark::State& state) {
  RunSiblingPlan(state, PlanKind::kJOP);
}
void BM_SiblingPOP(benchmark::State& state) {
  RunSiblingPlan(state, PlanKind::kPOP);
}
BENCHMARK(BM_SiblingNP);
BENCHMARK(BM_SiblingJOP);
BENCHMARK(BM_SiblingPOP);

// --- Materialized-view ablation ---------------------------------------------

void BM_GetByBrandNoView(benchmark::State& state) {
  StarQueryEngine engine(&SharedDb(), /*use_views=*/false);
  const BoundCube* ssb = *SharedDb().Find("SSB");
  CubeQuery q = *CubeQuery::Make(ssb->schema(), "SSB", {"brand"}, {},
                                 {"revenue"});
  for (auto _ : state) {
    auto cube = engine.Execute(q);
    benchmark::DoNotOptimize(cube->NumRows());
  }
}
BENCHMARK(BM_GetByBrandNoView);

void BM_GetByBrandWithView(benchmark::State& state) {
  static bool materialized = [] {
    StarQueryEngine engine(&SharedDb());
    return engine
        .MaterializeView(&SharedMutableDb(), "SSB", {"brand", "c_region"},
                         "mv_brand_region")
        .ok();
  }();
  if (!materialized) {
    state.SkipWithError("view materialization failed");
    return;
  }
  StarQueryEngine engine(&SharedDb(), /*use_views=*/true);
  const BoundCube* ssb = *SharedDb().Find("SSB");
  CubeQuery q = *CubeQuery::Make(ssb->schema(), "SSB", {"brand"}, {},
                                 {"revenue"});
  for (auto _ : state) {
    auto cube = engine.Execute(q);
    benchmark::DoNotOptimize(cube->NumRows());
  }
}
BENCHMARK(BM_GetByBrandWithView);

// --- FlatMap64 vs std::unordered_map -----------------------------------------

void BM_FlatMap64Aggregate(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.Uniform(n / 8) + 1;
  for (auto _ : state) {
    FlatMap64 map(1024);
    int32_t groups = 0;
    for (uint64_t k : keys) {
      bool inserted = false;
      int32_t g = map.FindOrInsert(k, groups, &inserted);
      if (inserted) ++groups;
      benchmark::DoNotOptimize(g);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatMap64Aggregate)->Arg(1 << 16)->Arg(1 << 20);

void BM_StdUnorderedMapAggregate(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.Uniform(n / 8) + 1;
  for (auto _ : state) {
    std::unordered_map<uint64_t, int32_t> map;
    int32_t groups = 0;
    for (uint64_t k : keys) {
      auto [it, inserted] = map.emplace(k, groups);
      if (inserted) ++groups;
      benchmark::DoNotOptimize(it->second);
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StdUnorderedMapAggregate)->Arg(1 << 16)->Arg(1 << 20);

// --- Labeling primitives -----------------------------------------------------

std::vector<double> RandomValues(int64_t n) {
  Rng rng(11);
  std::vector<double> values(n);
  for (double& v : values) v = rng.NextDouble() * 1000.0;
  return values;
}

void BM_RangeLabeling(benchmark::State& state) {
  auto fn = *RangeLabeling::Make(
      {{-1e300, 250, true, false, "low"},
       {250, 750, true, true, "mid"},
       {750, 1e300, false, true, "high"}});
  std::vector<double> values = RandomValues(state.range(0));
  std::vector<std::string> labels;
  for (auto _ : state) {
    Status st = fn.Apply(std::span<const double>(values), &labels);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RangeLabeling)->Arg(1 << 16);

void BM_QuartileLabeling(benchmark::State& state) {
  auto fn = *QuantileLabeling::Make(4);
  std::vector<double> values = RandomValues(state.range(0));
  std::vector<std::string> labels;
  for (auto _ : state) {
    Status st = fn.Apply(std::span<const double>(values), &labels);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuartileLabeling)->Arg(1 << 16);

void BM_KMeansLabeling(benchmark::State& state) {
  auto fn = *KMeansLabeling::Make(5);
  std::vector<double> values = RandomValues(state.range(0));
  std::vector<std::string> labels;
  for (auto _ : state) {
    Status st = fn.Apply(std::span<const double>(values), &labels);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KMeansLabeling)->Arg(1 << 14);

// --- Forecasting primitive ---------------------------------------------------

void BM_LinearRegressionForecast(benchmark::State& state) {
  std::vector<double> series = {10, 20, 30, 40};
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinearRegressionNext(series));
  }
}
BENCHMARK(BM_LinearRegressionForecast);

}  // namespace
}  // namespace assess

BENCHMARK_MAIN();

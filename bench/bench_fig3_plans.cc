// Reproduces Figure 3 of the paper: execution times of the NP, JOP and POP
// plans for each intention (Constant, External, Sibling, Past) across the
// SSB1/SSB10/SSB100 scale series. Times are averaged over repeated runs,
// as in Section 6.2. Output is one block per intention with one series per
// feasible plan — the data behind the four log-scale panels of Figure 3.

#include <cstdio>
#include <map>

#include "bench_util.h"

int main() {
  using namespace assess;
  using namespace assess::bench;

  double base = DefaultBaseSf();
  int reps = RepsFromEnv();
  auto scales = SsbScaleSeries(base);
  auto workload = SsbWorkload();

  // intention -> plan -> per-scale seconds.
  std::map<std::string, std::map<PlanKind, std::vector<double>>> series;

  for (const SsbScalePoint& point : scales) {
    auto db = BuildScale(point);
    AssessSession session(db.get(), PlanBenchOptions());
    for (const WorkloadStatement& stmt : workload) {
      auto analyzed = session.Prepare(stmt.text);
      if (!analyzed.ok()) {
        std::fprintf(stderr, "%s\n", analyzed.status().ToString().c_str());
        return 1;
      }
      std::vector<PlanKind> plans = FeasiblePlans(*analyzed);
      std::vector<RunStats> stats =
          RunStatementsInterleaved(session, stmt.text, plans, reps);
      for (size_t i = 0; i < plans.size(); ++i) {
        series[stmt.name][plans[i]].push_back(stats[i].total());
      }
    }
  }

  std::printf(
      "Figure 3: Execution times (seconds) for increasing cardinalities of\n"
      "the target cube (base SF %.3g, %d run(s) averaged)\n",
      base, reps);
  for (const WorkloadStatement& stmt : workload) {
    std::printf("\n%s:\n%-6s", stmt.name.c_str(), "");
    for (const auto& point : scales) std::printf(" %10s", point.name.c_str());
    std::printf("\n");
    for (const auto& [plan, times] : series[stmt.name]) {
      std::printf("%-6s", std::string(PlanKindToString(plan)).c_str());
      for (double t : times) std::printf(" %10.4f", t);
      std::printf("\n");
    }
  }
  std::printf(
      "\nPaper shape check: Constant is NP-only; JOP <= NP for External;\n"
      "POP <= JOP <= NP for Sibling and Past; every series grows roughly\n"
      "linearly across the 1:10:100 scales.\n");
  return 0;
}

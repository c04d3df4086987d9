// Reproduces Table 3 of the paper: minimum execution times across plans for
// each intention and scale, with the corresponding NP time in parentheses.
// The paper's conclusions: the best plan is NP for Constant, JOP for
// External, POP for Sibling and Past, and every intention scales linearly.

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

  struct Entry {
    double best = 0.0;
    double np = 0.0;
    PlanKind best_plan = PlanKind::kNP;
  };
  std::map<std::string, std::vector<Entry>> table;

  for (const SsbScalePoint& point : scales) {
    auto db = BuildScale(point);
    AssessSession session(db.get(), PlanBenchOptions());
    for (const WorkloadStatement& stmt : workload) {
      auto analyzed = session.Prepare(stmt.text);
      if (!analyzed.ok()) {
        std::fprintf(stderr, "%s\n", analyzed.status().ToString().c_str());
        return 1;
      }
      Entry entry;
      std::vector<PlanKind> plans = FeasiblePlans(*analyzed);
      std::vector<RunStats> stats =
          RunStatementsInterleaved(session, stmt.text, plans, reps);
      bool first = true;
      for (size_t i = 0; i < plans.size(); ++i) {
        double t = stats[i].total();
        if (plans[i] == PlanKind::kNP) entry.np = t;
        if (first || t < entry.best) {
          entry.best = t;
          entry.best_plan = plans[i];
          first = false;
        }
      }
      table[stmt.name].push_back(entry);
    }
  }

  std::printf(
      "Table 3: Minimum execution times in seconds for different intentions\n"
      "(in parentheses, the corresponding execution times for NP; base SF\n"
      "%.3g, %d run(s) averaged)\n\n",
      base, reps);
  std::printf("%-10s", "");
  for (const auto& point : scales) std::printf(" %22s", point.name.c_str());
  std::printf("\n");
  for (const WorkloadStatement& stmt : workload) {
    std::printf("%-10s", stmt.name.c_str());
    for (const Entry& e : table[stmt.name]) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.3f (%.3f) %s", e.best, e.np,
                    std::string(PlanKindToString(e.best_plan)).c_str());
      std::printf(" %22s", cell);
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape check: best == NP for Constant; best <= NP everywhere;\n"
      "the largest NP/best gaps are on Sibling and Past (POP wins); times\n"
      "scale roughly linearly across the 1:10:100 series.\n");
  return 0;
}

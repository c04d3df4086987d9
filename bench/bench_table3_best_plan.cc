// Reproduces Table 3 of the paper: minimum execution times across plans for
// each intention and scale, with the corresponding NP time in parentheses.
// The paper's conclusions: the best plan is NP for Constant, JOP for
// External, POP for Sibling and Past, and every intention scales linearly.
//
// Times are medians of the interleaved repetitions. A plan is named the
// winner only when its median beats the runner-up's by more than the two
// plans' interquartile ranges combined; otherwise the cell says tie(A/B).

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>

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
    std::string winner;
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
      std::vector<PlanKind> plans = FeasiblePlans(*analyzed);
      std::vector<RunStats> stats =
          RunStatementsInterleaved(session, stmt.text, plans, reps);
      std::vector<size_t> order(plans.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return stats[a].median() < stats[b].median();
      });
      Entry entry;
      for (size_t i = 0; i < plans.size(); ++i) {
        if (plans[i] == PlanKind::kNP) entry.np = stats[i].median();
      }
      const RunStats& first = stats[order[0]];
      entry.best = first.median();
      entry.winner = std::string(PlanKindToString(plans[order[0]]));
      if (order.size() > 1) {
        const RunStats& second = stats[order[1]];
        if (second.median() - first.median() <= first.iqr() + second.iqr()) {
          entry.winner = "tie(" + entry.winner + "/" +
                         std::string(PlanKindToString(plans[order[1]])) + ")";
        }
      }
      table[stmt.name].push_back(entry);
    }
  }

  std::printf(
      "Table 3: Minimum execution times in seconds for different intentions\n"
      "(in parentheses, the corresponding execution times for NP; base SF\n"
      "%.3g, medians of %d interleaved run(s); tie(A/B) when the best\n"
      "median does not beat the runner-up's by more than their combined\n"
      "interquartile ranges)\n\n",
      base, reps);
  std::printf("%-10s", "");
  for (const auto& point : scales) std::printf(" %28s", point.name.c_str());
  std::printf("\n");
  for (const WorkloadStatement& stmt : workload) {
    std::printf("%-10s", stmt.name.c_str());
    for (const Entry& e : table[stmt.name]) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.3f (%.3f) %s", e.best, e.np,
                    e.winner.c_str());
      std::printf(" %28s", cell);
    }
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape check: best == NP for Constant; best <= NP everywhere;\n"
      "the largest NP/best gaps are on Sibling and Past (POP wins); times\n"
      "scale roughly linearly across the 1:10:100 series.\n");
  return 0;
}

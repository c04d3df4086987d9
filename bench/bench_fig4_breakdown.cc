// Reproduces Figure 4 of the paper: the breakdown of the execution time of
// the Past intention — the most complex one, since forecasting requires a
// regression — into its steps (Get C, Get B, Get C+B, Trans., Join, Comp.,
// Label) for each plan and increasing cube cardinalities.

#include <cstdio>
#include <map>

#include "bench_util.h"

int main() {
  using namespace assess;
  using namespace assess::bench;

  double base = DefaultBaseSf();
  int reps = RepsFromEnv();
  auto scales = SsbScaleSeries(base);
  const WorkloadStatement past = SsbWorkload()[3];

  // plan -> per-scale timings.
  std::map<PlanKind, std::vector<StepTimings>> breakdown;

  for (const SsbScalePoint& point : scales) {
    auto db = BuildScale(point, /*include_budget=*/false);
    AssessSession session(db.get(), PlanBenchOptions());
    auto analyzed = session.Prepare(past.text);
    if (!analyzed.ok()) {
      std::fprintf(stderr, "%s\n", analyzed.status().ToString().c_str());
      return 1;
    }
    for (PlanKind plan : FeasiblePlans(*analyzed)) {
      breakdown[plan].push_back(
          RunStatement(session, past.text, plan, reps).mean);
    }
  }

  std::printf(
      "Figure 4: Breakdown of the execution time of the Past intention for\n"
      "increasing cardinalities of the target cube (seconds; base SF %.3g,\n"
      "%d run(s) averaged)\n",
      base, reps);
  for (const auto& [plan, timings] : breakdown) {
    std::printf("\n%s:\n%-8s %9s %9s %9s %9s %9s %9s %9s\n",
                std::string(PlanKindToString(plan)).c_str(), "",
                "Get C", "Get B", "Get C+B", "Trans.", "Join", "Comp.",
                "Label");
    for (size_t i = 0; i < timings.size(); ++i) {
      const StepTimings& t = timings[i];
      std::printf("%-8s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f\n",
                  scales[i].name.c_str(), t.get_c, t.get_b, t.get_cb,
                  t.transform, t.join, t.compare, t.label);
    }
  }
  std::printf(
      "\nPaper shape check: comparison and labeling are negligible (orders\n"
      "of magnitude below the get steps); the transformation (regression +\n"
      "pivot for NP) is a dominant client-side step; NP pays two gets plus\n"
      "a client join, JOP/POP a single fused get.\n");
  return 0;
}

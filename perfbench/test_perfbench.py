#!/usr/bin/env python3
"""Schedule determinism tests of the repository benchmark.

    python3 perfbench/test_perfbench.py            # all three workloads
    python3 perfbench/test_perfbench.py -k dashboard

For each workload it runs assess_perfbench twice with one seed and once with
another, at the run length BENCHMARK.json fixes, and compares the counts the
schedule fixes (the `schedule` line each run prints). Counts listed in
EXACT must repeat exactly for a seed. Counts in SPREAD depend on thread
scheduling: a dashboard miss round's four tiles are sent together, but a
server reader thread that runs late can miss the MQO window, which moves
the round's statements between exact hits, subsumption hits, solo misses
and shared scans. Only miss-round statements can move, so a
SPREAD count may differ by at most that share of the statements, and the
cache lookups (hits plus misses) must still repeat exactly. A different seed
must change the statements. Every run must also pass its own answer check
and layer-load predictions (exit code 0).
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (builds the benchmark)

SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
    "run_seconds"]

COMMON = ["digest", "statements", "result_rows", "ingest_batches",
          "ingest_rows", "wal_appends"]
EXACT = {
    "explore": COMMON + ["cache_exact_hits", "cache_subsumption_hits",
                         "cache_misses", "mqo_shared_scans"],
    "dashboard": COMMON,
    "live_ingest": COMMON + ["cache_exact_hits", "cache_subsumption_hits",
                             "cache_misses", "mqo_shared_scans",
                             "checkpoints"],
}
CACHE_OUTCOMES = ["cache_exact_hits", "cache_subsumption_hits",
                  "cache_misses"]
SPREAD = {
    "explore": [],
    "dashboard": CACHE_OUTCOMES + ["mqo_shared_scans"],
    "live_ingest": [],
}
MISS_ROUND_SHARE = 0.25  # dashboard: one round in four misses


def schedule_counts(binary, workload, seed):
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} failed:\n"
                             f"{proc.stderr[-3000:]}")
    for line in proc.stdout.splitlines():
        if line.startswith("schedule "):
            return json.loads(line[len("schedule "):])
    raise AssertionError("no schedule line")


class ScheduleDeterminism(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check(self, workload):
        first = schedule_counts(self.binary, workload, 7)
        second = schedule_counts(self.binary, workload, 7)
        other = schedule_counts(self.binary, workload, 8)
        for key in EXACT[workload]:
            self.assertEqual(first[key], second[key], key)
        for key in SPREAD[workload]:
            allowed = MISS_ROUND_SHARE * first["statements"]
            self.assertLessEqual(abs(first[key] - second[key]), allowed, key)
        self.assertEqual(sum(first[k] for k in CACHE_OUTCOMES),
                         sum(second[k] for k in CACHE_OUTCOMES))
        self.assertNotEqual(first["digest"], other["digest"])
        self.assertEqual(first["statements"], other["statements"])

    def test_explore(self):
        self.check("explore")

    def test_dashboard(self):
        self.check("dashboard")

    def test_live_ingest(self):
        self.check("live_ingest")


if __name__ == "__main__":
    os.chdir(run.ROOT)
    unittest.main()

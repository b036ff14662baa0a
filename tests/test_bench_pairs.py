"""The pair runner behind every benchmark claim, on the working tree against itself.

``tools/bench_pairs.py --smoke`` runs every workload at the benchmark's tiny
sizes, one pair, with the working tree as both the parent and the change:
every end-to-end metric of ``BENCHMARK.json`` gets a row, its ratio is
finite and its verdict passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_the_working_tree_against_itself_passes_every_verdict():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "bench_pairs.py"), "--parent", ROOT,
         "--pairs", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = json.loads(proc.stdout.strip().splitlines()[-1])["rows"]
    want = [(w["name"], m["name"]) for w in spec["workloads"] for m in spec["end_to_end"]]
    assert [(r["workload"], r["metric"]) for r in rows] == want
    for r in rows:
        assert r["verdict"] == "pass", r
        assert math.isfinite(r["ratio"]) and r["pairs"] == 1, r

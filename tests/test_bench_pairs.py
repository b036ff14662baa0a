"""The pair runner behind every benchmark claim: its self-run and its verdict rule.

``tools/bench_pairs.py --smoke`` runs every workload at the benchmark's tiny
sizes, one pair, with the working tree as both the parent and the change:
every end-to-end metric of ``BENCHMARK.json`` gets a row, every run is
correct and every ratio is finite.  One pair of 1-second runs on a shared
host cannot judge a timing metric (a ``tree`` ``setup_s`` of 1.48 ms read
1.87 ms in the other run of the same tree, against a bound of 0.25), so
the self-run asserts a passing verdict only for the deterministic metrics,
``iterations`` and ``peak_rss_mb``.  :func:`judge` itself is checked on
fixed samples.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = ("iterations", "peak_rss_mb")


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_working_tree_against_itself_reports_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "bench_pairs.py"), "--parent", ROOT,
         "--pairs", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr  # 1: a verdict failed
    rows = json.loads(proc.stdout.strip().splitlines()[-1])["rows"]
    want = [(w["name"], m["name"]) for w in spec["workloads"] for m in spec["end_to_end"]]
    assert [(r["workload"], r["metric"]) for r in rows] == want
    for r in rows:
        assert "ratio" in r, r  # a row without a ratio had a run that was not correct
        assert math.isfinite(r["ratio"]) and r["pairs"] == 1, r
        if r["metric"] in DETERMINISTIC:
            assert r["verdict"] == "pass", r


def _run(value, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "metrics": {"m": {"value": value}}}


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_judge_passes_equal_samples_and_fails_past_the_bound_either_way(better):
    judge = _bench_pairs().judge
    metric = {"name": "m", "better": better, "bound": 0.25}
    parent = [_run(v) for v in (1.0, 2.0, 3.0)]
    assert judge(metric, parent, [_run(v) for v in (1.0, 2.0, 3.0)])["verdict"] == "pass"
    worse, better_side = (1.3, 0.5) if better == "lower" else (0.7, 2.0)
    worse_row = judge(metric, parent, [_run(v * worse) for v in (1.0, 2.0, 3.0)])
    assert worse_row["verdict"] == "FAIL (worse than its bound)"
    assert worse_row["ratio"] == pytest.approx(worse)
    improved = judge(metric, parent, [_run(v * better_side) for v in (1.0, 2.0, 3.0)])
    assert improved["verdict"] == "pass"


UNSOUND = "FAIL (a run is not correct or failed operations)"


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        (1.0, [_run(1.0), _run(1.0, correct=False)], UNSOUND),
        (1.0, [_run(1.0), _run(1.0, failed=2)], UNSOUND),
        (1.0, [_run(math.nan), _run(math.nan)], "FAIL (worse than its bound)"),
        (0.0, [_run(1.0), _run(1.0)], "FAIL (worse than its bound)"),  # ratio inf
    ],
    ids=["not-correct", "failed-operations", "nan-ratio", "inf-ratio"],
)
def test_judge_fails_an_unsound_run_and_a_non_finite_ratio(parent, change, verdict):
    metric = {"name": "m", "better": "higher", "bound": 0.25}
    assert _bench_pairs().judge(metric, [_run(parent), _run(parent)], change)["verdict"] == verdict

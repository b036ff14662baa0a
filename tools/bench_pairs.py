"""Run the benchmark on a parent tree and on this one in alternating pairs, and judge the change.

Run from the repository root::

    python tools/bench_pairs.py --parent REV_OR_DIR [--pairs 10] [--seed 11] [--seconds 20]
                                [--workloads sweep,tree,dag] [--smoke]

The parent is a directory holding a checkout, or a git revision, which is
checked out with ``git worktree`` under a temporary directory and removed
afterwards (local git only).  The change is the working tree this script
sits in.  Pair i runs ``bench/run.py`` once in each tree, the parent first
in even pairs and the change first in odd ones, with the same seed,
``--seconds`` and workload, and reads each run's final JSON line.

For every workload and end-to-end metric of ``BENCHMARK.json`` it prints
the parent's and the change's median and quartiles over the pairs, the
pairs the change won, the median of the per-pair change/parent ratios and a
verdict: ``pass`` unless that ratio is worse than the metric's ``bound``
in the direction its ``better`` names, or a run of the workload was not
``correct`` or failed operations.  The last line of standard output is one
JSON object, ``{"rows": [...]}``, one row per workload and metric; the exit
status is 1 when any verdict fails.  ``--smoke`` runs the benchmark's tiny
sizes for 1 second a run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(tree: str, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One ``bench/run.py`` run in ``tree``: its final JSON line."""
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def _quartiles(a: np.ndarray) -> list[float]:
    """Median, first and third quartile by numpy's linear rule, without its warning on inf samples.

    ``np.percentile`` computes ``inf - inf`` at an inf sample and reports
    NaN with a ``RuntimeWarning``; here a quantile between two equal
    samples is that sample, and one between a finite and an infinite
    sample is infinite.
    """
    s = np.sort(a)
    pos = np.array([0.5, 0.25, 0.75]) * (len(s) - 1)
    lo, hi = s[np.floor(pos).astype(int)], s[np.ceil(pos).astype(int)]
    with np.errstate(invalid="ignore"):
        return np.where(lo == hi, lo, lo + (hi - lo) * (pos % 1.0)).tolist()


def judge(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    """One metric's row over the pairs of runs of one workload."""
    name, lower = metric["name"], metric["better"] == "lower"
    sound = all(r["correct"] and r["failed"] == 0 and name in r["metrics"] for r in parent + change)
    row = {"metric": name, "better": metric["better"], "bound": metric["bound"]}
    if not sound:
        return {**row, "verdict": "FAIL (a run is not correct or failed operations)"}
    a = np.array([r["metrics"][name]["value"] for r in parent], dtype=float)
    b = np.array([r["metrics"][name]["value"] for r in change], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(np.median(b / a))
    worse = ratio > 1.0 + metric["bound"] if lower else ratio < 1.0 - metric["bound"]
    return {
        **row,
        "parent": _quartiles(a),
        "change": _quartiles(b),
        "wins": int(np.sum(b < a if lower else b > a)),
        "pairs": len(a),
        "ratio": ratio,
        "verdict": "FAIL (worse than its bound)" if worse or not np.isfinite(ratio) else "pass",
    }


def pairs(parent: str, spec: dict, workloads: list[str], n: int, seed: int, seconds: float,
          smoke: bool) -> list[dict]:
    """Every workload's rows after ``n`` alternating pairs of runs."""
    rows = []
    for workload in workloads:
        runs: list[list[dict]] = [[], []]  # the parent's, the change's
        for i in range(n):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                tree = (parent, ROOT)[side]
                runs[side].append(run_bench(tree, workload, seed, seconds, smoke))
        for metric in spec["end_to_end"]:
            rows.append({"workload": workload, **judge(metric, *runs)})
    return rows


def _table(rows: list[dict]) -> str:
    out = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] | wins | ratio "
           "| verdict |", "| --- | --- | --- | --- | --- | --- | --- |"]
    for r in rows:
        if "ratio" not in r:
            out.append(f"| {r['workload']} | {r['metric']} | | | | | {r['verdict']} |")
            continue
        cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for m, q1, q3 in (r["parent"], r["change"])]
        out.append(f"| {r['workload']} | {r['metric']} | {cells[0]} | {cells[1]} | "
                   f"{r['wins']}/{r['pairs']} | {r['ratio']:.3f} | {r['verdict']} |")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="a directory or a git revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, 1 second a run")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else workloads
    seconds = 1.0 if args.smoke else args.seconds
    revision = not os.path.isdir(args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent = os.path.join(tmp, "parent") if revision else os.path.abspath(args.parent)
        if revision:
            subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", parent, args.parent],
                           check=True, capture_output=True)
        try:
            rows = pairs(parent, spec, workloads, args.pairs, args.seed, seconds, args.smoke)
        finally:
            if revision:
                subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", parent],
                               check=False, capture_output=True)
    print(f"# parent {args.parent}, {args.pairs} pairs, seed {args.seed}, --seconds {seconds:g}"
          + (", --smoke" if args.smoke else ""))
    print(_table(rows))
    print(json.dumps({"rows": rows}))
    return 1 if any(r["verdict"] != "pass" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark harness for distkaczmarz: one command for every workload.

    PYTHONPATH=src python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root (``src/`` is found next to this directory, so
``PYTHONPATH`` is optional).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics and the tracing overhead; ``--smoke``
runs tiny sizes in a few seconds.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every operation passed its correctness check.

Load is one closed-loop caller in one process: each operation starts when
the previous one returns.  BLAS is pinned to one thread through this
process's environment, before numpy is imported.

Times are reported at a reference machine speed.  A fixed calibration
kernel that uses no package code runs before and after every operation;
each operation's time is scaled by ``REFERENCE_KERNEL_S`` over the mean of
the two kernel times around it.  On a shared host whose speed swings by
tens of percent with other tenants' load, this keeps the figures of one
program version steady; the raw wall-clock figures are printed beside.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import math
import platform
import resource
import shutil
import statistics
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "tree", "dag")
TAIL_LADDER = (50, 75, 90, 95, 99)
HARD_LIMIT_S = 150.0  # stop extending the timed phase past --seconds here
# calibration kernel time on an uncontended core of the 2-vCPU x86_64 host the bounds were set on
REFERENCE_KERNEL_S = 3.1e-4


def _import_package():
    sys.path.insert(0, SRC)
    try:
        import distkaczmarz
    except ImportError as exc:
        sys.exit(f"bench: cannot import distkaczmarz from {SRC}: {exc}")
    if not os.path.abspath(distkaczmarz.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: distkaczmarz imported from {distkaczmarz.__file__}, not from {SRC}")


# seconds: at the reference speed; raw: wall clock
Sample = namedtuple("Sample", "kind cls seconds raw points passes")


class Calibration:
    """A fixed interpreter-and-small-numpy kernel that measures the machine's current speed."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.eye(8) * 0.5 + 0.01
        self._x = np.ones(8)
        self.samples: list[float] = []

    def __call__(self) -> float:
        np, a, x, s = self._np, self._a, self._x, 0.0
        t0 = perf_counter()
        for _ in range(150):
            x = a @ x
            s += float(np.vdot(x, x))
            x = x / math.sqrt(s)
        t = perf_counter() - t0
        self.samples.append(t)
        return t

    def timed(self, fn):
        """Run ``fn``; return its result, its reference-speed time and its wall time."""
        before = self()
        t0 = perf_counter()
        out = fn()
        raw = perf_counter() - t0
        after = self()
        return out, raw * REFERENCE_KERNEL_S * 2 / (before + after), raw


@dataclass
class Round:
    index: int
    traced: bool
    wall: float  # sum of the operations' reference-speed times
    raw_wall: float
    samples: list[Sample] = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed_ops: int = 0


def run_round(ops, index: int, calibration: Calibration, tracer=None) -> Round:
    """Run one round's operations back to back, then check their outputs."""
    done = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            def call(op=op):
                if tracer is None:
                    return op.run()
                with tracer.operation(op.kind, op.cls, index):
                    return op.run()

            try:
                out, seconds, raw = calibration.timed(call)
                err = None
            except Exception as exc:  # an operation that raises is a failed operation
                out, err, seconds, raw = None, exc, 0.0, 0.0
            done.append((op, seconds, raw, out, err))
    finally:
        if tracer is not None:
            tracer.uninstall()
    rnd = Round(index, tracer is not None, sum(d[1] for d in done), sum(d[2] for d in done))
    for op, seconds, raw, out, err in done:
        if err is not None:
            errs = [f"raised {type(err).__name__}: {err}"]
        else:
            try:
                errs = op.check(out)
            except Exception as exc:
                errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            rnd.failed_ops += 1
            rnd.failures.extend(f"round {index}, {op.label}: {e}" for e in errs)
        rnd.samples.append(Sample(op.kind, op.cls, seconds, raw, op.points, op.passes))
    return rnd


def tail_percentile(min_samples: int) -> int:
    """Highest ladder percentile with at least ten of ``min_samples`` beyond it."""
    fit = [p for p in TAIL_LADDER if min_samples * (1 - p / 100) >= 10]
    return max(fit) if fit else TAIL_LADDER[0]


def _geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    v = sorted(values)
    pos = (len(v) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def by_class(rounds, kind: str, raw: bool) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in rounds:
        for smp in r.samples:
            if smp.kind == kind:
                out.setdefault(smp.cls, []).append(smp.raw if raw else smp.seconds)
    return out


def class_counts(rounds) -> dict[tuple[str, str], int]:
    out: dict[tuple[str, str], int] = {}
    for r in rounds:
        for smp in r.samples:
            if smp.kind != "sweep":
                out[(smp.kind, smp.cls)] = out.get((smp.kind, smp.cls), 0) + 1
    return out


def end_to_end(rounds, setup_times, min_samples, raw=False) -> dict[str, float]:
    """End-to-end metrics from the untraced timed rounds, at reference speed or ``raw``."""
    samples = [smp for r in rounds for smp in r.samples]

    def t(smp):
        return smp.raw if raw else smp.seconds

    m = {}
    m["setup_s"] = statistics.median(x[1 if raw else 0] for x in setup_times)
    m["wall_s"] = statistics.median(r.raw_wall if raw else r.wall for r in rounds)
    for kind in ("leaf", "interior"):
        sweeps = [smp for smp in samples if smp.kind == "sweep" and smp.cls == kind]
        m[f"{kind}_points_per_s"] = sum(s.points for s in sweeps) / sum(t(s) for s in sweeps)
    q = tail_percentile(min_samples)
    for kind in ("analyze", "solve"):
        per = by_class(rounds, kind, raw)
        m[f"{kind}_p50_s"] = _geomean([_percentile(v, 50) for v in per.values()])
        m[f"{kind}_tail_s"] = _geomean([_percentile(v, q) for v in per.values()])
    solves = [smp for smp in samples if smp.kind == "solve"]
    m["passes_per_s"] = sum(s.passes for s in solves) / sum(t(s) for s in solves)
    m["iterations"] = sum(smp.passes for smp in rounds[0].samples if smp.kind == "solve")
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def end_to_end_notes(rounds, setup_times, min_samples) -> dict[str, str]:
    samples = [smp for r in rounds for smp in r.samples]
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups spread over the run",
        "wall_s": f"median over {len(rounds)} timed rounds of the operations' summed time",
        "passes_per_s": f"{sum(s.passes for s in samples if s.kind == 'solve')} passes in "
        f"{sum(1 for s in samples if s.kind == 'solve')} solves",
        "iterations": "passes used by all solves of one round",
        "peak_rss_mb": "peak resident set of this process",
    }
    for kind in ("leaf", "interior"):
        sweeps = [smp for smp in samples if smp.kind == "sweep" and smp.cls == kind]
        notes[f"{kind}_points_per_s"] = f"{len(sweeps)} CLI sweeps of {sweeps[0].points} points"
    q = tail_percentile(min_samples)
    for kind in ("analyze", "solve"):
        counts = ", ".join(f"{c} {len(v)}" for c, v in sorted(by_class(rounds, kind, False).items()))
        notes[f"{kind}_p50_s"] = f"median per class, geometric mean over classes; samples: {counts}"
        notes[f"{kind}_tail_s"] = f"p{q} per class (at least {min_samples} samples each), geometric mean"
    return notes


def blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    process_start = perf_counter()
    _import_package()
    import tracing
    import workloads as wl

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sizes = wl.SMOKE if args.smoke else wl.FULL
    build = os.path.join(ROOT, ".bench_build", "bench")
    work = os.path.join(build, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        calibration = Calibration()

        def timed_setup(traced: bool):
            def make():
                return wl.setup(args.workload, args.seed, sizes, work)

            if traced:
                tracer.install()
                try:
                    with tracer.operation("setup", "setup", -1):
                        made, seconds, raw = calibration.timed(make)
                finally:
                    tracer.uninstall()
            else:
                made, seconds, raw = calibration.timed(make)
            setup_times.append((seconds, raw))
            return made

        setup_times: list[tuple[float, float]] = []
        for _ in range(sizes.setups):
            inputs = timed_setup(tracer is not None)
        checks, failures = wl.references(args.workload, args.seed, inputs, sizes)
        attempted, failed = checks, len(failures)
        ops_per_round = len(wl.round_ops(inputs, sizes))

        warm = run_round(wl.round_ops(inputs, sizes), 0, calibration)  # discarded
        rounds = [warm]
        timed: list[Round] = []
        t_start = perf_counter()
        while not failures and not any(r.failures for r in rounds):
            traced = tracer is not None and len(timed) % 2 == 1
            rnd = run_round(wl.round_ops(inputs, sizes), len(rounds), calibration,
                            tracer if traced else None)
            rounds.append(rnd)
            timed.append(rnd)
            timed_setup(False)  # set-up repetitions spread over the run, inputs discarded
            if perf_counter() - process_start > HARD_LIMIT_S:
                break
            if perf_counter() - t_start < args.seconds:
                continue
            if tracer is not None:
                if len(timed) >= 2:
                    break
            elif min(class_counts(timed).values(), default=sizes.min_samples) >= sizes.min_samples:
                break
        passes = {tuple(smp.passes for smp in r.samples if smp.kind == "solve") for r in rounds}
        if len(passes) > 1:
            failures.append("solve pass counts differ between rounds of identical inputs")
            failed += 1
        for r in rounds:
            attempted += len(r.samples)
            failed += r.failed_ops
            failures.extend(r.failures)

        print("# env " + json.dumps(environment(), sort_keys=True))
        print(
            f"# workload={args.workload} seed={args.seed} mode={'smoke' if args.smoke else 'full'} "
            f"trace={args.trace} rounds={len(timed)} (+1 warm-up) ops/round={ops_per_round} "
            f"timed={perf_counter() - t_start:.1f}s"
        )
        speed = REFERENCE_KERNEL_S / statistics.fmean(calibration.samples)
        print(
            f"# machine speed: {speed:.3f} of the reference (calibration kernel mean "
            f"{statistics.fmean(calibration.samples) * 1e3:.4f} ms over {len(calibration.samples)} runs)"
        )
        fail_frac = failed / max(attempted, 1)
        print(f"{'fail_frac':34s} {fail_frac:<22.6g} {'ratio':12s} {failed} of {attempted} operations")
        if failures:
            for line in failures:
                print(f"FAILED {line}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
            return 1
        plain = [r for r in timed if not r.traced]
        if tracer is None:
            wanted = spec["end_to_end"]
            values = end_to_end(plain, setup_times, sizes.min_samples)
            raw = end_to_end(plain, setup_times, sizes.min_samples, raw=True)
            notes = {
                name: f"[raw {raw[name]:.6g}] {note}"
                for name, note in end_to_end_notes(plain, setup_times, sizes.min_samples).items()
            }
        else:
            wanted = spec["per_layer"]
            traced_rounds = [r for r in timed if r.traced]
            values = tracing.layer_metrics(
                tracer, len(traced_rounds), sizes.setups, ops_per_round,
                inputs.classes, inputs.growth_pair,
            )
            values["trace_overhead_s"] = statistics.median(r.wall for r in traced_rounds) - statistics.median(
                r.wall for r in plain
            )
            notes = {
                "trace_overhead_s": f"median traced round minus median untraced round "
                f"({len(traced_rounds)} and {len(plain)} rounds)",
                "topology.validate_per_op": f"base: {ops_per_round} operations per round",
                "numerics.as_vector_per_update": f"base: {values['solver.update_calls']:g} updates per round",
                "solver.residual_per_pass": f"base: {values['solver.passes']:g} passes per round",
            }
            if inputs.growth_pair:
                notes.update({
                    m: f"log-log slope {inputs.growth_pair[0]} -> {inputs.growth_pair[1]}"
                    for m in values if m.endswith("_growth")
                })
            tracer.save(os.path.join(build, f"trace-{args.workload}.npz"))
        for metric in wanted:
            name = metric["name"]
            print(f"{name:34s} {values[name]:<22.6g} {metric['unit']:12s} {notes.get(name, '')}")
        result = {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

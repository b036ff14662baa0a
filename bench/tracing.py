"""Span tracing of the package's layers from outside the package.

The tracer wraps public functions of each layer and rebinds the wrappers
in every package module that holds the function (``closedform`` imports
``path_weight`` from ``topology``, so both names are rebound).  Nothing
under ``src/`` changes.  Wrappers are installed only for traced rounds and
removed afterwards, so untraced rounds run the original code.

Each span records its name, start, end, parent span and operation; spans
live in flat in-memory arrays and are written out once, when the run ends.
High-frequency helpers whose metric is a count only get a counting wrapper
and no span.  A layer's self time is its span time minus the time its
child spans cover.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import distkaczmarz
from distkaczmarz import cli
from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import numerics as nm
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp

MODULES = (distkaczmarz, nm, tp, sv, cf, ex, cli)

# span name -> functions it times
SPANS = {
    "numerics.eigen": [nm.eigenvalues],
    "numerics.restrict": [nm.restrict_to_span],
    "numerics.basis": [nm.orthonormal_basis],
    "topology.validate": [tp.validate_tree, tp.validate_dag],
    "topology.path_weight": [tp.path_weight],
    "topology.paths": [tp.enumerate_dispersion_paths],
    "solver.pass": [sv.tree_iterate, sv.dag_iterate],
    "solver.residual": [sv.LinearSystem.residual_norm],
    "closedform.affine": [cf.tree_affine],
    "closedform.block": [cf.dag_block_structure],
    "closedform.fixed_point": [cf.fixed_point, cf.dag_fixed_point],
    "experiments.sweep": [ex.omega_sweep],
    "experiments.generate": [
        ex.generate_system, ex.random_tree, ex.random_tree_system, ex.random_dag, ex.random_dag_system,
    ],
    "cli.config": [cli.load_config],
    "cli.write": [ex.sweep_to_csv, ex._write_atomic],
}

# counter name -> functions it counts
COUNTS = {
    "numerics.as_vector": [nm.as_vector],
    "solver.update": [sv.kaczmarz_update],
    "closedform.sor": [cf.path_sor_factors],
    "topology.order": [tp.topological_order],
    "experiments.rho": [ex.restricted_rho],
}

OP = "op"  # root span of one harness operation


class Tracer:
    def __init__(self):
        self.names = [OP, *SPANS]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.ops: list[tuple[str, str, int]] = []  # (kind, class, round) per operation id
        self.counts: dict[str, int] = defaultdict(int)
        self.paths_count = 0
        self._stack = [-1]
        self._op = -1
        self._counting = False  # counts are taken inside round operations only
        self._wrappers = self._build_wrappers()
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.t0)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.t1.append(0.0)
        self._stack.append(i)
        self.t0.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.t1[i] = perf_counter()
        self._stack.pop()

    def _span(self, name_id: int, fn):
        def wrapped(*args, **kwargs):
            i = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapped

    def _counter(self, key: str, fn):
        def wrapped(*args, **kwargs):
            if self._counting:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _paths(self, name_id: int, fn):
        def wrapped(*args, **kwargs):
            i = self._open(name_id)
            try:
                paths, weights = fn(*args, **kwargs)
            finally:
                self._close(i)
            if self._counting:
                self.paths_count += len(paths)
            return paths, weights

        return wrapped

    def _build_wrappers(self) -> dict[int, tuple[object, object]]:
        out = {}
        for name_id, (name, fns) in enumerate(SPANS.items(), start=1):
            for fn in fns:
                make = self._paths if name == "topology.paths" else self._span
                out[id(fn)] = (fn, make(name_id, fn))
        for key, fns in COUNTS.items():
            for fn in fns:
                out[id(fn)] = (fn, self._counter(key, fn))
        return out

    @contextmanager
    def operation(self, kind: str, cls: str, round_index: int):
        self._op = len(self.ops)
        self.ops.append((kind, cls, round_index))
        self._counting = kind != "setup"
        i = self._open(0)
        try:
            yield
        finally:
            self._close(i)
            self._op = -1
            self._counting = False

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for attr in ("residual_norm",):
            val = getattr(sv.LinearSystem, attr)
            self._saved.append((sv.LinearSystem, attr, val))
            setattr(sv.LinearSystem, attr, self._wrappers[id(val)][1])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(self.t0, dtype=np.float64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "name": name,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.t0, dtype=np.float64),
            "end": np.frombuffer(self.t1, dtype=np.float64),
            "self": dur - child,
        }

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        a = self.arrays()
        kinds = np.array([k for k, _, _ in self.ops] or [""])
        classes = np.array([c for _, c, _ in self.ops] or [""])
        rounds = np.array([r for _, _, r in self.ops] or [-1])
        np.savez_compressed(
            path, names=np.array(self.names), op_kind=kinds, op_class=classes, op_round=rounds, **a
        )


def layer_metrics(
    tracer: Tracer,
    traced_rounds: int,
    setups: int,
    ops_per_round: int,
    classes: dict[str, dict],
    growth_pair: tuple[str, str] | None,
) -> dict[str, float]:
    """Per-layer metrics: per traced round, except ``experiments.generate_s`` per set-up."""
    a = tracer.arrays()
    op = a["op"]
    traced = op >= 0
    safe = np.where(traced, op, 0)
    op_kind = np.array([k for k, _, _ in tracer.ops] or [""])[safe]
    op_cls = np.array([c for _, c, _ in tracer.ops] or [""])[safe]
    in_setup = traced & (op_kind == "setup")
    in_round = traced & ~in_setup

    def ids(name):
        return a["name"] == tracer.names.index(name)

    def self_s(name, where=in_round):
        return float(a["self"][ids(name) & where].sum())

    def calls(name):
        return int(np.count_nonzero(ids(name) & in_round))

    r = max(traced_rounds, 1)
    m: dict[str, float] = {}
    for key in ("numerics.eigen", "numerics.restrict", "topology.validate", "topology.path_weight",
                "closedform.affine"):
        m[f"{key}_s"] = self_s(key) / r
        m[f"{key}_calls"] = calls(key) / r
    for key in ("numerics.basis", "topology.paths", "solver.residual", "closedform.block",
                "closedform.fixed_point", "experiments.sweep", "cli.config", "cli.write"):
        m[f"{key}_s"] = self_s(key) / r
    m["solver.pass_s"] = self_s("solver.pass") / r
    m["solver.passes"] = calls("solver.pass") / r
    m["solver.residual_calls"] = calls("solver.residual") / r
    m["topology.paths_count"] = tracer.paths_count / r
    c = tracer.counts
    m["numerics.as_vector_calls"] = c["numerics.as_vector"] / r
    m["solver.update_calls"] = c["solver.update"] / r
    m["closedform.sor_calls"] = c["closedform.sor"] / r
    m["topology.order_calls"] = c["topology.order"] / r
    m["experiments.rho_calls"] = c["experiments.rho"] / r
    m["experiments.generate_s"] = self_s("experiments.generate", in_setup) / max(setups, 1)
    m["topology.validate_per_op"] = _ratio(m["topology.validate_calls"], ops_per_round)
    m["numerics.as_vector_per_update"] = _ratio(m["numerics.as_vector_calls"], m["solver.update_calls"])
    m["solver.residual_per_pass"] = _ratio(m["solver.residual_calls"], m["solver.passes"])

    def per_call(name, cls):
        where = ids(name) & in_round & (op_cls == cls)
        n = int(np.count_nonzero(where))
        return float(a["self"][where].sum()) / n if n else 0.0

    for metric, name, size in (
        ("closedform.affine_growth", "closedform.affine", "nodes"),
        ("solver.pass_growth", "solver.pass", "nodes"),
        ("topology.validate_growth", "topology.validate", "nodes"),
        ("closedform.block_growth", "closedform.block", "paths"),
    ):
        m[metric] = 0.0
        if growth_pair is not None:
            small, large = growth_pair
            t_small, t_large = per_call(name, small), per_call(name, large)
            ratio = classes[large][size] / classes[small][size]
            if t_small > 0.0 and t_large > 0.0 and ratio > 1.0:
                m[metric] = math.log(t_large / t_small) / math.log(ratio)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

"""Inputs, operations and correctness gates of the benchmark workloads.

Every workload runs the same three operation kinds on its own inputs, so
every end-to-end metric is measured on every workload:

- ``sweep``: an in-process CLI ``sweep`` command over a 2-axis grid;
- ``analyze``: a closed-form analysis (iteration map, restricted spectral
  radius on the row space, fixed point);
- ``solve``: a ``solve`` call.

The workloads differ in which kind dominates and on which inputs it runs.
``sweep`` runs the paper's desk-scale parameter study (two CLI sweeps on
the default-step grid, then the best grid points analysed and iterated);
``tree`` and ``dag`` run analyses and solves on seeded families of large
networks, plus one small probe sweep per axis kind so that the sweep
metrics exist there too.

All package calls go through module attributes (``cf.tree_affine``, not a
name imported here), so the tracer can rebind them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from distkaczmarz import cli
from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import numerics as nm
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp

SOLVE_TOLERANCE = 1e-10
SOLVE_BUDGET = 20_000
DIMENSION_TREE = 8
DAG_DIMENSIONS = (6, 7, 8)
SWEEP_BASELINE = 1.5  # the CLI default


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark mode (full or smoke)."""

    sweep_grid: str  # per-axis grid of the two ``sweep``-workload CLI sweeps
    probe_grid: str  # per-axis grid of the probe sweeps on ``tree`` and ``dag``
    probes_per_round: int  # probe sweeps per axis kind, spread through a round
    top_k: int  # best grid points analysed and iterated after each sweep
    candidate_passes: int  # fixed pass budget of a candidate solve (paper's table protocol)
    tree_nodes: tuple[int, int]
    tree_per_class: int
    dag_width: int
    dag_layers: tuple[int, int]
    dag_per_class: int
    min_samples: int  # latency samples per class a timed run collects at least
    setups: int  # set-up repetitions whose median is ``setup_s``
    spot_checks: int  # grid points per sweep checked against the engine


FULL = Sizes(
    sweep_grid="0.2:8:0.2",
    probe_grid="1:8:1",
    probes_per_round=4,
    top_k=5,
    candidate_passes=100,
    tree_nodes=(31, 121),
    tree_per_class=16,
    dag_width=4,
    dag_layers=(5, 7),
    dag_per_class=24,
    min_samples=40,
    setups=3,
    spot_checks=12,
)

SMOKE = Sizes(
    sweep_grid="0.5:3.5:1",
    probe_grid="2:8:6",
    probes_per_round=1,
    top_k=2,
    candidate_passes=5,
    tree_nodes=(7, 15),
    tree_per_class=1,
    dag_width=2,
    dag_layers=(3, 4),
    dag_per_class=1,
    min_samples=1,
    setups=2,
    spot_checks=2,
)


def sub_seed(seed: int, *tags: int) -> int:
    """Independent 31-bit seed derived from the workload seed and tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0] >> 1)


# ---------------------------------------------------------------------------
# Inputs


@dataclass
class Instance:
    """One network with its system; ``cls`` names its size/shape class."""

    cls: str
    system: sv.LinearSystem
    net: object
    relax: sv.RelaxationAssignment
    reference: np.ndarray | None = None  # minimal-norm solution, set by references()
    swept_rho: float | None = None  # a sweep candidate's reference rho, set by references()


@dataclass
class Desk:
    """A desk-scale sweep target: network, axes, system and CLI config."""

    kind: str  # "leaf" or "interior"
    net: tp.TreeNetwork
    axes: list[tuple[int, ...]]
    system: sv.LinearSystem
    config_path: str
    grid_spec: str  # the CLI --grid argument
    grid: list[tuple[float, ...]] = field(default_factory=list)
    reference_rho: np.ndarray | None = None
    candidates: list[Instance] = field(default_factory=list)


@dataclass
class Inputs:
    desks: list[Desk]
    instances: list[Instance]
    classes: dict[str, dict]  # class -> {"nodes": int, "paths": int}
    growth_pair: tuple[str, str] | None  # small and large class of one shape
    out_dir: str


def _desk(kind: str, net, axes, k: int, seed: int, grid_spec: str, work: str) -> Desk:
    spec = ex.GeneratorSpec(kind="uniform", k=k, d=k, seed=seed)
    system = ex.generate_system(spec).system
    config = {
        "system": {"generator": {"kind": "uniform", "k": k, "d": k, "seed": seed}},
        "network": {
            "type": "tree",
            "nodes": net.node_count,
            "root": net.root,
            "edges": [
                {"parent": u, "child": v, "w": w} for (u, v), w in sorted(net.edge_weight.items())
            ],
        },
        "sweep": {"axes": [list(a) for a in axes]},
    }
    path = os.path.join(work, f"sweep-{kind}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    spec_all = ",".join([grid_spec] * len(axes))
    grid = ex.grid_from_spec(spec_all, len(axes))
    return Desk(kind, net, list(axes), system, path, spec_all, grid)


def desks(seed: int, grid_spec: str, work: str) -> list[Desk]:
    """Network I with leaf axes and the 7-node tree with interior axes."""
    net_one, _, axes_one = ex.network_one()
    seven = ex.binary7_network()
    axes_seven = sorted(tuple(sorted(g)) for g in ex.binary7_extended_partition().groups)
    return [
        _desk("leaf", net_one, axes_one, 5, sub_seed(seed, 1), grid_spec, work),
        _desk("interior", seven, axes_seven, 7, sub_seed(seed, 2), grid_spec, work),
    ]


def leaf_weighted_tree(n: int, parent: dict[int, int]) -> tp.TreeNetwork:
    """Tree whose child weights give every leaf the same pooling weight."""
    kids: dict[int, list[int]] = {v: [] for v in range(n)}
    for v, u in parent.items():
        kids[u].append(v)
    below = [0] * n
    for v in range(n - 1, -1, -1):  # parents have smaller ids than children
        below[v] = sum(below[c] for c in kids[v]) or 1
    return tp.TreeNetwork.from_edges(n, 0, [(u, v, below[v] / below[u]) for v, u in parent.items()])


def caterpillar(n: int) -> tp.TreeNetwork:
    """Spine of about n/2 nodes, each carrying one leaf (depth about n/2)."""
    parent, spine = {}, 0
    for v in range(1, n):
        parent[v] = spine
        if v % 2 == 0 and v < n - 1:
            spine = v
    return leaf_weighted_tree(n, parent)


def recursive_tree(n: int, rng: np.random.Generator) -> tp.TreeNetwork:
    """Random recursive tree: node v hangs under a uniform earlier node (depth about log n)."""
    return leaf_weighted_tree(n, {v: int(rng.integers(0, v)) for v in range(1, n)})


def layered_dag(width: int, layers: int, rng: np.random.Generator) -> tp.DagNetwork:
    """Each node feeds its own column and its right neighbour (cyclically) in the next layer.

    That gives ``width * 2**(layers - 1)`` dispersion paths; weights are
    seeded and normalised per node.
    """
    succ = {
        l * width + i: [(l + 1) * width + i, (l + 1) * width + (i + 1) % width]
        for l in range(layers - 1)
        for i in range(width)
    }
    pred: dict[int, list[int]] = {}
    for u, vs in succ.items():
        for v in vs:
            pred.setdefault(v, []).append(u)
    wp = {}
    for u, vs in succ.items():
        raw = rng.uniform(0.5, 1.0, size=len(vs))
        wp.update({(u, v): float(w) for v, w in zip(vs, raw / raw.sum())})
    wd = {}
    for v, us in pred.items():
        raw = rng.uniform(0.5, 1.0, size=len(us))
        wd.update({(u, v): float(w) for u, w in zip(us, raw / raw.sum())})
    edges = [(u, v, wd[(u, v)], wp[(u, v)]) for (u, v) in sorted(wd)]
    return tp.DagNetwork.from_cover_edges(width * layers, edges)


def setup(workload: str, seed: int, sizes: Sizes, work: str) -> Inputs:
    """Generate the seeded systems and build the networks (the timed set-up)."""
    grid_spec = sizes.sweep_grid if workload == "sweep" else sizes.probe_grid
    desk_list = desks(seed, grid_spec, work)
    instances: list[Instance] = []
    classes: dict[str, dict] = {}
    growth_pair = None
    if workload == "tree":
        small, large = sizes.tree_nodes
        shapes = [("caterpillar", lambda n, rng: caterpillar(n)), ("recursive", recursive_tree)]
        for i in range(sizes.tree_per_class):
            for s, (shape, make) in enumerate(shapes):
                for n in (small, large):
                    rng = np.random.default_rng(sub_seed(seed, 3, i, s, n))
                    net = make(n, rng)
                    system = ex.random_tree_system(
                        sub_seed(seed, 4, i, s, n), net, DIMENSION_TREE,
                        consistent=True, well_conditioned=True,
                    )
                    cls = f"{shape}-{n}"
                    classes[cls] = {"nodes": n, "paths": len(net.leaves())}
                    instances.append(
                        Instance(cls, system, net, sv.RelaxationAssignment.uniform(n, 1.0))
                    )
        growth_pair = (f"caterpillar-{small}", f"caterpillar-{large}")
    elif workload == "dag":
        w = sizes.dag_width
        for i in range(sizes.dag_per_class):
            for layers in sizes.dag_layers:
                rng = np.random.default_rng(sub_seed(seed, 5, i, layers))
                net = layered_dag(w, layers, rng)
                d = DAG_DIMENSIONS[i % len(DAG_DIMENSIONS)]
                system = ex.random_dag_system(
                    sub_seed(seed, 6, i, layers), net, d, consistent=True, well_conditioned=True
                )
                paths = w * 2 ** (layers - 1)
                cls = f"layered-{paths}"
                classes[cls] = {"nodes": net.node_count, "paths": paths}
                instances.append(
                    Instance(cls, system, net, sv.RelaxationAssignment.uniform(net.node_count, 1.0))
                )
        small, large = sizes.dag_layers
        growth_pair = (f"layered-{w * 2 ** (small - 1)}", f"layered-{w * 2 ** (large - 1)}")
    elif workload != "sweep":
        raise ValueError(f"unknown workload {workload!r}")
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    return Inputs(desk_list, instances, classes, growth_pair, out_dir)


# ---------------------------------------------------------------------------
# Correctness references (computed once, outside set-up and the timed phase)


def reference_rho_grid(desk: Desk) -> np.ndarray:
    """Restricted spectral radius at every grid point, vectorised over the grid.

    An implementation independent of ``closedform``: the pass matrix is the
    leaf-weighted sum of root-to-leaf products of relaxed projections
    ``I - omega a a* / |a|^2``, restricted to an SVD basis of the rows.
    """
    rows = desk.system.rows
    n, d = rows.shape
    grid = np.asarray(desk.grid, dtype=float)
    omega = np.full((grid.shape[0], n), SWEEP_BASELINE)
    for k, nodes in enumerate(desk.axes):
        omega[:, list(nodes)] = grid[:, k : k + 1]
    proj = np.einsum("vi,vj->vij", rows, rows.conj()) / np.sum(np.abs(rows) ** 2, axis=1)[:, None, None]
    eye = np.eye(d, dtype=np.complex128)
    net = desk.net
    chain = {net.root: eye - omega[:, net.root, None, None] * proj[net.root]}
    weight = {net.root: 1.0}
    b = np.zeros((grid.shape[0], d, d), dtype=np.complex128)
    stack = [net.root]
    while stack:
        u = stack.pop()
        kids = net.children.get(u, ())
        if not kids:
            b += weight[u] * chain[u]
        for v in kids:
            chain[v] = (eye - omega[:, v, None, None] * proj[v]) @ chain[u]
            weight[v] = weight[u] * net.edge_weight[(u, v)]
            stack.append(v)
        chain.pop(u)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    q = vh[s > 1e-10 * s[0]].T  # orthonormal basis of span{a_v}
    restricted = q.conj().T @ b @ q
    return np.max(np.abs(np.linalg.eigvals(restricted)), axis=-1)


def point_relaxation(desk: Desk, point) -> sv.RelaxationAssignment:
    """Axis values on the axis nodes, the CLI's baseline elsewhere."""
    omega = np.full(desk.net.node_count, SWEEP_BASELINE)
    for nodes, value in zip(desk.axes, point):
        omega[list(nodes)] = value
    return sv.RelaxationAssignment(omega)


def engine_rho(desk: Desk, point) -> float:
    """Restricted spectral radius of the matrix found by probing ``tree_iterate``."""
    sys_, net = desk.system, desk.net
    relax = point_relaxation(desk, point)
    d = sys_.ambient_dim
    c = sv.tree_iterate(sys_, net, relax, np.zeros(d), validated=True)
    cols = [sv.tree_iterate(sys_, net, relax, e, validated=True) - c for e in np.eye(d)]
    b = np.column_stack(cols)
    _, s, vh = np.linalg.svd(sys_.rows, full_matrices=False)
    q = vh[s > 1e-10 * s[0]].T
    return float(np.max(np.abs(np.linalg.eigvals(q.conj().T @ b @ q))))


def references(workload: str, seed: int, inputs: Inputs, sizes: Sizes) -> tuple[int, list[str]]:
    """Build the correctness references; returns the engine spot-checks made and their failures."""
    checks, failures = 0, []
    for desk in inputs.desks:
        desk.reference_rho = reference_rho_grid(desk)
        rng = np.random.default_rng(sub_seed(seed, 7, len(desk.axes), desk.net.node_count))
        sample = rng.choice(len(desk.grid), size=min(sizes.spot_checks, len(desk.grid)), replace=False)
        for idx in [int(np.argmin(desk.reference_rho)), *map(int, sample)]:
            checks += 1
            got = engine_rho(desk, desk.grid[idx])
            if abs(got - desk.reference_rho[idx]) > 1e-8:
                failures.append(
                    f"reference {desk.kind} sweep at {desk.grid[idx]}: engine rho {got!r} "
                    f"!= closed-form reference {desk.reference_rho[idx]!r}"
                )
        if workload == "sweep":
            best = np.argsort(desk.reference_rho, kind="stable")[: sizes.top_k]
            desk.candidates = [
                Instance(desk.kind, desk.system, desk.net, point_relaxation(desk, desk.grid[i]),
                         swept_rho=float(desk.reference_rho[i]))
                for i in best
            ]
    for inst in inputs.instances:
        inst.reference = nm.min_norm_solution(inst.system.system_matrix(), inst.system.rhs)
    return checks, failures


# ---------------------------------------------------------------------------
# Operations and their checks


@dataclass
class Op:
    """One timed operation and the check run on its output after the round."""

    kind: str  # "sweep", "analyze" or "solve"
    cls: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    points: int = 0  # grid points of a sweep
    passes: int = 0  # passes of a solve, filled from its output


def _close(a, b, tol: float) -> bool:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) <= tol * (1.0 + float(np.linalg.norm(b)))


def sweep_op(desk: Desk, out_root: str, n: int) -> Op:
    out = os.path.join(out_root, f"{desk.kind}-{n}")
    argv = ["sweep", "--config", desk.config_path, "--grid", desk.grid_spec, "--out", out]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        with open(os.path.join(out, "sweep.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        got = np.array([[float(x) for x in r] for r in rows])
        ref = desk.reference_rho
        if got.shape != (len(desk.grid), len(desk.axes) + 1):
            return [f"sweep.csv has shape {got.shape}"]
        errs = []
        if np.max(np.abs(got[:, :-1] - np.asarray(desk.grid))) > 1e-9:
            errs.append("sweep.csv grid points differ from the requested grid")
        worst = float(np.max(np.abs(got[:, -1] - ref)))
        if worst > 1e-9:
            errs.append(f"rho differs from the reference by {worst:.3e}")
        arg = int(np.argmin(got[:, -1]))
        best, low = float(got[arg, -1]), float(ref.min())
        if abs(ref[arg] - low) > 1e-9 or abs(best - low) > 1e-9:
            errs.append(f"argmin {desk.grid[arg]} (rho {best!r}) is not the reference minimum {low!r}")
        return errs

    return Op("sweep", desk.kind, f"{desk.kind} CLI sweep {n}", run, check, points=len(desk.grid))


def tree_analysis(inst: Instance):
    it = cf.tree_affine(inst.system, inst.net, inst.relax)
    basis = cf.row_space_basis(inst.system)
    rho = cf.spectral_radius_on_span(it.B, basis)
    return it, rho, cf.fixed_point(it, basis)


def dag_analysis(inst: Instance):
    bs = cf.dag_block_structure(inst.system, inst.net, inst.relax)
    basis = cf.row_space_basis(inst.system)
    rho = cf.dag_restricted_rho(bs, basis)
    blocks, _ = cf.dag_fixed_point(bs, basis)
    return None, rho, blocks


def analyze_op(inst: Instance, label: str, results: dict) -> Op:
    dag = isinstance(inst.net, tp.DagNetwork)

    def run():
        out = (dag_analysis if dag else tree_analysis)(inst)
        results[label] = out
        return out

    def check(out) -> list[str]:
        it, rho, x = out
        errs = [] if rho < 1.0 else [f"restricted rho {rho} >= 1"]
        if inst.swept_rho is not None:  # sweep candidate: a square uniform system
            if abs(rho - inst.swept_rho) > 1e-9:
                errs.append(f"rho {rho!r} != swept rho {inst.swept_rho!r}")
            a, b = inst.system.system_matrix(), inst.system.rhs
            scale = np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(b)
            if np.linalg.norm(a @ x - b) > 1e-8 * scale:
                errs.append("fixed point does not solve the system")
        else:
            for blk in (x if dag else [x]):
                if not _close(blk, inst.reference, 1e-8):
                    errs.append("fixed point differs from the minimal-norm solution")
                    break
        return errs

    return Op("analyze", inst.cls, f"analyze {label}", run, check)


def solve_op(inst: Instance, label: str, results: dict, passes: int | None = None) -> Op:
    """Solve to the step tolerance, or run a fixed number of passes when ``passes`` is set."""
    config = (
        sv.SolverConfig(max_iterations=passes, step_tolerance=1e-300)
        if passes
        else sv.SolverConfig(max_iterations=SOLVE_BUDGET, step_tolerance=SOLVE_TOLERANCE)
    )
    op = Op("solve", inst.cls, f"solve {label}", None, None)

    def run():
        report = sv.solve(inst.system, inst.net, inst.relax, config)
        op.passes = report.iterations_used
        return report

    def check(report) -> list[str]:
        if passes:  # compare with the closed-form map iterated as often
            it = results[label][0]
            x = np.zeros(it.B.shape[0], dtype=np.complex128)
            for _ in range(passes):
                x = it.B @ x + it.c
            ok = _close(report.final_estimates, x, 1e-9) and report.iterations_used == passes
            return [] if ok else ["engine iterate differs from the closed-form iterate"]
        if not report.converged:
            return [f"not converged in {report.iterations_used} passes"]
        _, _, fp = results[label]
        est = report.final_estimates
        pairs = zip(est, fp) if isinstance(est, list) else [(est, fp)]
        for got, want in pairs:
            if not _close(got, want, 1e-7):
                return ["estimate differs from the fixed point"]
            if not _close(got, inst.reference, 1e-7):
                return ["estimate differs from the minimal-norm solution"]
        return []

    op.run, op.check = run, check
    return op


def round_ops(inputs: Inputs, sizes: Sizes) -> list[Op]:
    """The fixed operation family of one round, in execution order.

    ``tree`` and ``dag`` spread their probe sweeps through the round, so
    that the sweep samples see the machine in the same states as the rest.
    """
    results: dict = {}
    ops = []

    def sweeps(n: int) -> None:
        for desk in inputs.desks:
            ops.append(sweep_op(desk, inputs.out_dir, n))
            for j, inst in enumerate(desk.candidates):
                label = f"{desk.kind} candidate {j}"
                ops.append(analyze_op(inst, label, results))
                ops.append(solve_op(inst, label, results, passes=sizes.candidate_passes))

    if not inputs.instances:
        sweeps(0)
    every = max(1, -(-len(inputs.instances) // sizes.probes_per_round))
    for j, inst in enumerate(inputs.instances):
        if j % every == 0:
            sweeps(j)
        label = f"{inst.cls} #{j}"
        ops.append(analyze_op(inst, label, results))
        ops.append(solve_op(inst, label, results))
    return ops

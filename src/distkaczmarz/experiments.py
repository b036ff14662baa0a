"""Seeded generators, spectral-radius sweeps and reproducible studies.

Every random object is drawn from ``numpy.random.default_rng`` seeded
explicitly, and reports embed the seed and generator name, so re-running a
study reproduces its outputs byte for byte.  A sweep on a tree or a DAG runs
its grid as one stack of relaxation columns through
:func:`distkaczmarz.closedform.restricted_rho`, which builds the pass kernel
once and pushes a small tensor grid of relaxation values, or one chunk of
grid points at a time; results are always ordered by grid index.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import closedform as cf
from .closedform import restricted_rho
from .errors import NonContractionError
from .solver import LinearSystem, RelaxationAssignment, SolverConfig, _iterate, _kernel, solve
from .topology import DagNetwork, SubnetworkPartition, TreeNetwork, hasse_reduce

RNG_NAME = "numpy.random.default_rng(PCG64)"
GENERATOR_VERSION = "1"
# Residuals below this count as fully converged: two of them tie.
CONVERGED_RESIDUAL = 1e-12
# Most points a grid spec may name.  The grid is a list of tuples at about 100
# bytes a point, so this caps it near 100 MB; the CLI default grid has 25,600.
GRID_POINT_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# System generators


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a seeded random system.

    ``uniform`` draws every entry of the k x d matrix and the right-hand
    side from [0, 1).  ``near-orthogonal`` perturbs the identity,
    ``I + epsilon * E`` with E uniform over [-1, 1], and is always square.
    Every spec draws from ``RNG_NAME`` seeded with ``seed``.
    """

    kind: str
    k: int
    d: int
    seed: int
    epsilon: float = 0.1

    def __post_init__(self):
        if self.kind not in ("uniform", "near-orthogonal"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.k < 1 or self.d < 1:
            raise ValueError("k and d must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if self.kind == "near-orthogonal":
            if self.k != self.d:
                raise ValueError("near-orthogonal systems are square")
            if self.epsilon < 0.0:
                raise ValueError("epsilon must be nonnegative")


class GeneratedSystem(NamedTuple):
    system: LinearSystem
    regenerated_rows: int


def generate_system(spec: GeneratorSpec) -> GeneratedSystem:
    """Deterministic system for a spec; zero rows are redrawn (and counted)."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform":
        matrix = rng.uniform(0.0, 1.0, size=(spec.k, spec.d))
    else:
        matrix = np.eye(spec.d) + spec.epsilon * rng.uniform(-1.0, 1.0, size=(spec.d, spec.d))
    rhs = rng.uniform(0.0, 1.0, size=spec.k)
    regenerated = 0
    for i in np.flatnonzero(np.linalg.norm(matrix, axis=1) == 0.0).tolist():  # in row order
        while not np.linalg.norm(matrix[i]):
            matrix[i] = rng.uniform(0.0, 1.0, size=spec.d)
            regenerated += 1
    return GeneratedSystem(LinearSystem(rows=matrix, rhs=rhs), regenerated)


def random_tree(seed: int, min_nodes: int = 2, max_nodes: int = 10) -> TreeNetwork:
    """Random recursive tree with positive child weights normalized per parent."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_nodes, max_nodes + 1))
    edges = []
    raw: dict[int, list[tuple[int, float]]] = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        raw.setdefault(u, []).append((v, float(rng.uniform(0.2, 1.0))))
    for u, kids in raw.items():
        total = sum(w for _, w in kids)
        for v, w in kids:
            edges.append((u, v, w / total))
    return TreeNetwork.from_edges(n, 0, edges)


def _draw_rows(rng, k: int, dim: int, complex_entries: bool, well_conditioned: bool):
    def draw(shape):
        x = rng.standard_normal(shape)
        if complex_entries:
            x = x + 1j * rng.standard_normal(shape)
        return x

    rows = draw((k, dim))
    if well_conditioned:
        # perturbed partial isometry: keeps the rows' mutual angles healthy,
        # so the iteration's restricted spectral radius stays well below 1
        u, _, vh = np.linalg.svd(rows, full_matrices=False)
        rows = u @ vh + 0.15 * draw((k, dim))
    return rows


def random_tree_system(
    seed: int,
    net: TreeNetwork | DagNetwork,
    dim: int,
    consistent: bool = True,
    rank_deficient: bool = False,
    complex_entries: bool = False,
    well_conditioned: bool = False,
) -> LinearSystem:
    """Random system on a tree's or DAG's nodes; consistent ones hide an exact solution."""
    rng = np.random.default_rng(seed)
    k = net.node_count
    rows = _draw_rows(rng, k, dim, complex_entries, well_conditioned)
    if rank_deficient and k >= 2:
        # duplicate a scaled row so the row span loses a dimension
        i, j = sorted(rng.choice(k, size=2, replace=False))
        rows[j] = float(rng.uniform(0.5, 2.0)) * rows[i]
    if consistent:
        target = rng.standard_normal(dim) + (
            1j * rng.standard_normal(dim) if complex_entries else 0.0
        )
        rhs = rows.conj() @ target
    else:
        rhs = rng.standard_normal(k) + (
            1j * rng.standard_normal(k) if complex_entries else 0.0
        )
    return LinearSystem(rows=rows, rhs=rhs)


def random_dag(
    seed: int,
    min_nodes: int = 3,
    max_nodes: int = 8,
    max_minimal: int = 3,
    single_sink: bool = False,
) -> DagNetwork:
    """Random weakly connected cover-edge DAG with normalized random weights.

    ``single_sink`` funnels every former maximal node into one extra sink,
    which forces consensus pooling (every minimal node pools the same
    maximal estimate).
    """
    attempt = 0
    while True:
        rng = np.random.default_rng((seed, attempt))
        n = int(rng.integers(min_nodes, max_nodes + 1 - (1 if single_sink else 0)))
        s = int(rng.integers(1, min(max_minimal, n - 1) + 1))
        edges = set()
        for v in range(s, n):
            preds = rng.choice(v, size=min(v, int(rng.integers(1, 3))), replace=False)
            for u in preds:
                edges.add((int(u), v))
        edges = hasse_reduce(edges)  # keep cover pairs only
        if single_sink:
            edges |= {(v, n) for v in set(range(n)) - {u for u, _ in edges}}
            n += 1
        net = DagNetwork.from_cover_edges(n, edges)
        wd, wp = {}, {}
        for v in range(n):  # dispersion weights over in-edges, then pooling over out-edges
            for table, keys in (
                (wd, [(u, v) for u in net.predecessors[v]]),
                (wp, [(v, u) for u in net.successors[v]]),
            ):
                if keys:
                    raw = rng.uniform(0.2, 1.0, size=len(keys))
                    table.update(zip(keys, (raw / raw.sum()).tolist()))
        weighted = [(u, v, wd[(u, v)], wp[(u, v)]) for u, v in net.edges]
        net = DagNetwork.from_cover_edges(n, weighted)
        if not net.violations:
            return net
        attempt += 1


random_dag_system = random_tree_system  # the same draws on a DAG's nodes


def iteration_budget(rho: float, target: float = 1e-9, cap: int = 20_000) -> int:
    """Iterations needed for a contraction factor ``rho`` to shrink below target."""
    if not (0.0 < rho < 1.0):
        return cap if rho >= 1.0 else 1
    return min(cap, max(1, math.ceil(math.log(target) / math.log(rho))))


# ---------------------------------------------------------------------------
# Sweeps


@dataclass
class SweepResult:
    """Spectral radii over a grid of relaxation parameters."""

    grid: list[tuple[float, ...]]
    rho: list[float]
    argmin_index: int
    min_rho: float
    baseline_rho: float
    axes: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def argmin(self) -> tuple[float, ...]:
        return self.grid[self.argmin_index]


def grid_from_spec(spec: str, axis_count: int | None = None) -> list[tuple[float, ...]]:
    """Cartesian grid from comma-separated ``start:stop:step`` axis specs.

    Every axis count and their product are checked against
    ``GRID_POINT_LIMIT`` before any list is built.
    """
    spans = []
    for part in spec.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"malformed grid axis {part!r}; expected start:stop:step")
        start, stop, step = (float(x) for x in pieces)
        # a finite span over a tiny step can still hold infinitely many points
        if not (0.0 < step < math.inf and start <= stop and math.isfinite((stop - start) / step)):
            raise ValueError(f"malformed grid axis {part!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count > GRID_POINT_LIMIT:
            raise ValueError(f"grid axis {part!r} has {count} points, over {GRID_POINT_LIMIT}")
        spans.append((start, step, count))
    if axis_count is not None and len(spans) != axis_count:
        raise ValueError(f"expected {axis_count} grid axes, got {len(spans)}")
    total = math.prod(count for _, _, count in spans)
    if total > GRID_POINT_LIMIT:
        raise ValueError(f"grid has {total} points, over {GRID_POINT_LIMIT}")
    out = [()]
    for axis in [[start + i * step for i in range(count)] for start, step, count in spans]:
        out = [pt + (val,) for pt in out for val in axis]
    return out


def check_sweep_axes(axes: Sequence[Sequence[int]], node_count: int) -> None:
    """Raise ValueError unless every axis drives at least one node id and no node is on two axes."""
    owner: dict[int, int] = {}
    for k, nodes in enumerate(axes):
        if not len(nodes):
            raise ValueError(f"sweep axis {k} drives no node")
        for v in nodes:
            if not (isinstance(v, numbers.Integral) and not isinstance(v, bool)):
                raise ValueError(f"sweep axis {k}: node {v!r} is not an integer node id")
            if not 0 <= v < node_count:
                raise ValueError(f"sweep axis {k}: node {v} is not in 0..{node_count - 1}")
            if owner.setdefault(int(v), k) != k:
                raise ValueError(f"sweep axis {k}: node {v} is already on axis {owner[int(v)]}")


def _omega_stack(node_count: int, axes: Sequence, grid: Sequence, baseline: float) -> np.ndarray:
    """``(V, G + 1)`` stack: each grid point on its axis nodes, the baseline elsewhere and last."""
    omega = np.full((node_count, len(grid) + 1), baseline, dtype=float)
    for k, nodes in enumerate(axes):
        omega[list(nodes), :-1] = [pt[k] for pt in grid]
    return omega


def omega_sweep(
    sys: LinearSystem,
    net: TreeNetwork | DagNetwork,
    grid: Sequence[tuple[float, ...]],
    axes: Sequence[Sequence[int]],
    baseline: float = 1.5,
) -> SweepResult:
    """Evaluate the restricted spectral radius over a grid of parameters.

    Each grid axis drives one nonempty set of node ids, and no node is on
    two axes (otherwise ValueError names the axis and the node); all
    remaining nodes sit at the uniform baseline.  The whole grid, plus the
    baseline as one extra column, runs as one stack through
    :func:`restricted_rho`; results are stored in grid order.
    """
    grid = [tuple(pt) for pt in grid]
    if not grid:
        raise ValueError("empty sweep grid")
    if any(len(pt) != len(axes) for pt in grid):
        raise ValueError("grid tuples must match the number of axes")
    check_sweep_axes(axes, net.node_count)
    rho = restricted_rho(sys, net, _omega_stack(net.node_count, axes, grid, baseline)).tolist()
    baseline_rho = rho.pop()
    argmin = int(np.argmin(rho))
    return SweepResult(
        grid=grid,
        rho=rho,
        argmin_index=argmin,
        min_rho=rho[argmin],
        baseline_rho=baseline_rho,
        axes=[tuple(a) for a in axes],
    )


def compare_structures(
    sys: LinearSystem,
    net: TreeNetwork,
    structure_a: SubnetworkPartition,
    structure_b: SubnetworkPartition,
    grid: Sequence[tuple[float, ...]],
    baseline: float = 1.5,
) -> tuple[SweepResult, SweepResult]:
    """Side-by-side 1-d sweeps with one shared parameter over each structure."""
    return tuple(
        omega_sweep(sys, net, grid, [tuple(sorted(set().union(*part.groups)))], baseline=baseline)
        for part in (structure_a, structure_b)
    )


# ---------------------------------------------------------------------------
# Scale-limit study


@dataclass(frozen=True)
class LimitRow:
    scale: float
    distance: float
    iterations: int
    contractive: bool


def lsq_limit_study(
    sys: LinearSystem,
    net: TreeNetwork,
    relax: RelaxationAssignment,
    s_values: Sequence[float],
) -> list[LimitRow]:
    """Distance of the down-scaled fixed point to the weighted LS minimizer.

    Also records how many iterations ``solve`` needs at each scale, showing
    the accuracy/speed trade-off as the scale shrinks; the solve iterates
    the scale's map as assembled for its fixed point, so each scale
    assembles its map once.  Neither the pass kernel nor the row-space
    basis depends on the relaxation: the system keeps both, so one kernel
    serves every scale and one SVD of the rows the target and every fixed
    point.  The target is
    :func:`~distkaczmarz.closedform.weighted_ls_minimizer`, whose path
    masses the network's schedule holds.  Scales at which the iteration
    does not contract are recorded and skipped.
    """
    target = cf.weighted_ls_minimizer(sys, net, relax)  # validates the tree and the assignment
    basis, kernel = cf.row_space_basis(sys), _kernel(sys, net)
    rows = []
    for s in s_values:
        scaled = relax.scaled(s)
        it = cf.tree_affine(sys, net, scaled)
        try:
            fp = cf.fixed_point(it, basis)
        except NonContractionError:
            rows.append(LimitRow(scale=s, distance=float("nan"), iterations=0, contractive=False))
            continue
        budget = iteration_budget(it.restriction(basis).rho, target=1e-12)
        config = SolverConfig(max_iterations=budget, step_tolerance=1e-12)
        pass_map = np.column_stack((it.B, it.c))  # the [B | c] that solve would assemble
        report = _iterate(sys, kernel, scaled.effective(), True, config, pass_map=pass_map)
        rows.append(
            LimitRow(
                scale=s,
                distance=float(np.linalg.norm(fp - target)),
                iterations=report.iterations_used,
                contractive=True,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Canonical networks of the desk-scale studies


def binary7_network() -> TreeNetwork:
    """Balanced binary tree on 7 nodes with uniform half weights."""
    return TreeNetwork.from_edges(
        7, 0, [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (1, 4, 0.5), (2, 5, 0.5), (2, 6, 0.5)]
    )


def binary7_leaf_partition() -> SubnetworkPartition:
    return SubnetworkPartition.of([{3, 4}, {5, 6}])


def binary7_extended_partition() -> SubnetworkPartition:
    return SubnetworkPartition.of([{1, 3, 4}, {2, 5, 6}])


def network_one() -> tuple[TreeNetwork, SubnetworkPartition, list[tuple[int, ...]]]:
    """Five-node network with one leaf pair group and one free leaf.

    Axis one drives the free leaf (node 2, the root's leaf child), axis two
    the leaf group {3, 4} under node 1; the remaining nodes stay at the
    uniform baseline.
    """
    net = TreeNetwork.from_edges(5, 0, [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (1, 4, 0.5)])
    part = SubnetworkPartition.of([{3, 4}])
    axes = [(2,), (3, 4)]
    return net, part, axes


def network_two() -> tuple[TreeNetwork, SubnetworkPartition, list[tuple[int, ...]]]:
    """Five-node network with two singleton leaf groups (axes: node 4, node 3)."""
    net = TreeNetwork.from_edges(5, 0, [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 1.0), (2, 4, 1.0)])
    part = SubnetworkPartition.of([{3}, {4}])
    axes = [(4,), (3,)]
    return net, part, axes


def figure_dag() -> DagNetwork:
    """Six-node example DAG with two minimal nodes and uniform weights."""
    return DagNetwork.from_cover_edges(6, [(0, 2), (0, 3), (1, 3), (2, 4), (2, 5), (3, 5)])


# ---------------------------------------------------------------------------
# Report bundles


EXPERIMENT_IDS = ("table1", "table2", "figure-sweep-7node", "dag-demo")


def _write_atomic(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
        if not data.endswith("\n"):
            fh.write("\n")
    os.replace(tmp, path)


def _write_files(out_dir: str, files: dict[str, str]) -> None:
    """Write each ``name: text`` of ``files``, in order, into ``out_dir`` ("" is the current dir)."""
    os.makedirs(out_dir or ".", exist_ok=True)
    for name, text in files.items():
        _write_atomic(os.path.join(out_dir, name), text)


def sweep_to_csv(result: SweepResult) -> str:
    """RFC-4180-style CSV with a '.' decimal separator regardless of locale.

    No field holds a comma, quote or line break, so the whole body is one
    ``%`` of the row template repeated once per point (``%.10g`` formats
    exactly as ``{:.10g}``).
    """
    naxes = len(result.grid[0])
    header = ",".join([f"omega_{i + 1}" for i in range(naxes)] + ["rho"])
    row = ",".join(["%.10g"] * naxes + ["%.12g"])
    values = tuple([v for pt, rho in zip(result.grid, result.rho) for v in (*pt, rho)])
    return "\n".join([header, *[row] * len(result.grid), ""]) % values


def _residual_after(
    sys: LinearSystem,
    net: TreeNetwork,
    relax: RelaxationAssignment,
    iterations: int,
) -> float:
    config = SolverConfig(max_iterations=iterations, step_tolerance=1e-300)
    return sys.residual_norm(solve(sys, net, relax, config).final_estimates)


def _network_report(
    name: str,
    net: TreeNetwork,
    axes: list[tuple[int, ...]],
    spec: GeneratorSpec,
    grid: list[tuple[float, ...]],
    iterations: int,
    baseline: float = 1.5,
) -> dict:
    system = generate_system(spec).system
    sweep = omega_sweep(system, net, grid, axes, baseline=baseline)
    best = sweep.argmin
    omega = _omega_stack(net.node_count, axes, [best], baseline)
    relax_best, relax_base = RelaxationAssignment(omega[:, 0]), RelaxationAssignment(omega[:, 1])
    err_best = _residual_after(system, net, relax_best, iterations)
    err_base = _residual_after(system, net, relax_base, iterations)
    tie = max(err_best, err_base) < CONVERGED_RESIDUAL
    return {
        "network": name,
        "optimal_omega": list(best),
        "rho_optimal": sweep.min_rho,
        "rho_baseline": sweep.baseline_rho,
        "error_optimal": err_best,
        "error_baseline": err_base,
        "iterations": iterations,
        "sweep": sweep,
        "assertions": [
            {
                "name": f"{name}: optimal rho beats the uniform baseline",
                "passed": bool(sweep.min_rho < sweep.baseline_rho),
            },
            {
                "name": f"{name}: some optimal component exceeds 2",
                "passed": bool(any(x > 2.0 for x in best)),
            },
            {
                "name": f"{name}: error at the optimum beats the baseline",
                "passed": bool(err_best < err_base or tie),
            },
        ],
    }


def reproduce(experiment_id: str, seed: int, out_dir: str | None = None) -> dict:
    """Run one of the canonical seeded studies and (optionally) write its bundle.

    Emits one CSV per sweep plus a ``results.json`` carrying the resolved
    parameters, the assertion outcomes and the reference values quoted from
    the original tables (annotated as illustrative; the underlying random
    systems were never seeded, so the exact numbers are not reproducible).
    """
    if experiment_id not in EXPERIMENT_IDS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; valid ids: {', '.join(EXPERIMENT_IDS)}"
        )
    bundle: dict = {
        "experiment": experiment_id,
        "seed": seed,
        "rng_name": RNG_NAME,
        "generator_version": GENERATOR_VERSION,
        "assertions": [],
        "csv": {},
    }
    if experiment_id in ("table1", "table2"):
        kind = "near-orthogonal" if experiment_id == "table1" else "uniform"
        iterations = 10 if experiment_id == "table1" else 1500
        top = 4.0 if experiment_id == "table1" else 8.0
        grid = grid_from_spec(f"0.1:{top}:0.1,0.1:{top}:0.1")
        reference = {
            "table1": {
                "I": {"opt": (2.27, 3.93), "rho": 0.36532, "rho_uniform": 0.66617},
                "II": {"opt": (1.49, 2.52), "rho": 0.37492, "rho_uniform": 0.47598},
                "note": "illustrative only: source systems were unseeded",
            },
            "table2": {
                "I": {"opt": (7.92, 8.06), "rho": 0.98844, "rho_uniform": 0.99626},
                "II": {"opt": (4.57, 3.90), "rho": 0.99512, "rho_uniform": 0.99619},
                "note": "illustrative only: source systems were unseeded",
            },
        }[experiment_id]
        bundle["reference"] = reference
        rows = []
        for name, maker in (("I", network_one), ("II", network_two)):
            net, _, axes = maker()
            spec = GeneratorSpec(kind=kind, k=5, d=5, seed=seed)
            report = _network_report(name, net, axes, spec, grid, iterations)
            sweep = report.pop("sweep")
            bundle["csv"][f"sweep_network_{name}.csv"] = sweep_to_csv(sweep)
            bundle["assertions"].extend(report.pop("assertions"))
            rows.append(report)
        bundle["rows"] = rows
    elif experiment_id == "figure-sweep-7node":
        net = binary7_network()
        spec = GeneratorSpec(kind="uniform", k=7, d=7, seed=seed)
        system = generate_system(spec).system
        grid = grid_from_spec("0.1:4:0.05")
        leaf, extended = compare_structures(
            system, net, binary7_leaf_partition(), binary7_extended_partition(), grid
        )
        bundle["csv"]["sweep_leaf.csv"] = sweep_to_csv(leaf)
        bundle["csv"]["sweep_extended.csv"] = sweep_to_csv(extended)
        bundle["rows"] = [
            {"structure": name, "min_rho": result.min_rho, "baseline_rho": result.baseline_rho}
            for name, result in (("leaf", leaf), ("extended", extended))
        ]
        bundle["assertions"] = [
            {
                "name": "leaf-structure minimum does not exceed the extended one",
                "passed": bool(leaf.min_rho <= extended.min_rho),
            },
            {
                "name": "leaf-structure minimum beats the uniform baseline",
                "passed": bool(leaf.min_rho < leaf.baseline_rho),
            },
        ]
    else:  # dag-demo
        net = figure_dag()
        system = random_dag_system(seed, net, dim=4, consistent=True)
        from .numerics import min_norm_solution

        target = min_norm_solution(system.system_matrix(), system.rhs)
        report = solve(
            system,
            net,
            RelaxationAssignment.uniform(net.node_count, 1.0),
            SolverConfig(max_iterations=20_000, step_tolerance=1e-13),
        )
        errors = [float(np.linalg.norm(b - target)) for b in report.final_estimates]
        bundle["rows"] = [
            {"minimal_node": int(m), "error": err}
            for m, err in zip(net.minimal_nodes, errors)
        ]
        bundle["assertions"] = [
            {
                "name": "every minimal node reaches the minimal-norm solution",
                "passed": bool(max(errors) <= 1e-8),
            }
        ]
    if out_dir is not None:
        payload = {k: v for k, v in bundle.items() if k != "csv"}
        files = {**bundle["csv"], "results.json": json.dumps(payload, indent=2)}
        _write_files(os.path.join(out_dir, experiment_id), files)
    return bundle

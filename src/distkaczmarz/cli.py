"""Command line front end.

Commands
--------
``solve``        run the iteration and write a solve report (exit 0 on
                 convergence, 2 when the iteration budget runs out, 3 on
                 divergence).
``analyze``      admissibility verdicts and the eigenvalue split of the
                 iteration matrix, for tree and DAG networks; subnetwork
                 groups and their per-leaf relaxation bounds apply to trees
                 only (exit 3 when a map overflows).
``sweep``        spectral radius over a parameter grid, written as CSV, for
                 tree and DAG networks (exit 3 when the pass map overflows).
``reproduce``    run one of the canonical seeded studies.
``config-dump``  print the resolved configuration (defaults applied).

Configs are JSON; complex numbers are two-element ``[re, im]`` arrays and
plain reals are accepted wherever the imaginary part is zero.  Node ids are
dense integers ``0 .. nodes-1``.  Every field is read through one reader per
JSON type, so each schema rule holds wherever its type appears:

- booleans are neither numbers nor node ids;
- numbers are finite (``NaN`` and ``Infinity`` are rejected);
- ``k`` and ``d`` are at least 1 and ``seed`` is at least 0;
- ``output.dir`` is a string;
- ``network.nodes`` equals the number of equations;
- ``relaxation.omega`` keys are node ids in canonical decimal form;
- no node is on two ``sweep.axes``.

Schema violations exit with code 1 and name the JSON path of the offending
field.  Report files are written to a temporary name and renamed, so no
partial files appear, and every output ends with a newline.  Output is plain
text (no color), so ``NO_COLOR`` is honored trivially.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys as _sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import closedform as cf
from . import experiments as ex
from .errors import DivergenceError, NumericalFailureError, PartitionError
from .numerics import _is_int, _is_real
from .solver import LinearSystem, RelaxationAssignment, SolverConfig, _checked_omega, solve
from .topology import DagNetwork, SubnetworkPartition, TreeNetwork, validate_subnetworks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITERATIONS = 2
EXIT_DIVERGED = 3

_REQUIRED = object()


class ConfigError(Exception):
    """Invalid configuration; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _get(obj: dict, key: str, path: str, read, *args, default=_REQUIRED, **kwargs):
    """Field ``key`` of ``obj`` checked by ``read``; a field without a default is required.

    An absent field reads as ``default``, and so does ``null`` where the
    default is None.
    """
    if key not in obj or (obj[key] is None and default is None):
        _expect(default is not _REQUIRED, f"{path}.{key}", "missing required field")
        return default
    return read(obj[key], f"{path}.{key}", *args, **kwargs)


def _built(path: str, make, *args):
    """``make(*args)``, with the library's ValueError reported at ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


# One reader per JSON type: each checks a value at ``path`` and returns it.  Numbers and
# integers read the package's scalar rule (``numerics._is_real`` and ``numerics._is_int``).


def _number(value, path: str, message: str = "expected a finite number") -> float:
    """A finite real number; an integer too large for a float counts as infinite."""
    _expect(_is_real(value) and abs(value) <= _sys.float_info.max, path, message)
    return float(value)


def _integer(value, path: str, low: int) -> int:
    if not _is_int(value, low, math.inf):
        raise ConfigError(path, f"expected a {'positive' if low else 'nonnegative'} integer")
    return value


def _node(value, path: str, nodes: int) -> int:
    _expect(_is_int(value, 0, nodes), path, "expected a node id in range")
    return value


def _nodes(value, path: str, nodes: int) -> list[int]:
    ids = _list(value, path, low=1, message="expected a non-empty list of node ids")
    return [_node(v, f"{path}[{i}]", nodes) for i, v in enumerate(ids)]


def _complex(value, path: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    return complex(*[_number(x, path, "expected a real number or an [re, im] pair") for x in parts])


def _string(value, path: str, choices: tuple = ()) -> str:
    """A string, one of ``choices`` when they are given."""
    if not (value in choices if choices else isinstance(value, str)):
        raise ConfigError(path, "expected " + (" or ".join(map(repr, choices)) or "a string"))
    return value


def _object(value, path: str) -> dict:
    _expect(isinstance(value, dict), path, "expected an object")
    return value


def _list(value, path: str, low=0, high=math.inf, message="expected a list") -> list:
    _expect(isinstance(value, list) and low <= len(value) <= high, path, message)
    return value


def _complex_out(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


@dataclass
class RunConfig:
    """Fully resolved run configuration."""

    system: LinearSystem
    network: TreeNetwork | DagNetwork
    partition: SubnetworkPartition | None
    relaxation: RelaxationAssignment
    solver: SolverConfig
    sweep_axes: list[tuple[int, ...]] | None
    output_dir: str
    output_format: str
    resolved: dict = field(default_factory=dict)


def _parse_system(raw: dict, path: str) -> tuple[LinearSystem, dict]:
    has_gen = "generator" in raw
    _expect(
        has_gen != ("matrix" in raw), path, "exactly one of 'matrix' or 'generator' is required"
    )
    if has_gen:
        return _parse_generator(_get(raw, "generator", path, _object), f"{path}.generator")
    matrix = _get(raw, "matrix", path, _list, low=1, message="expected a nonempty list of rows")
    width = len(_list(matrix[0], f"{path}.matrix[0]", low=1, message="expected a nonempty row"))
    rows = []
    for i, r in enumerate(matrix):
        rpath = f"{path}.matrix[{i}]"
        r = _list(r, rpath, width, width, "ragged matrix rows")
        rows.append([_complex(x, f"{rpath}[{j}]") for j, x in enumerate(r)])
    k = len(rows)
    rhs_raw = _get(raw, "rhs", path, _list, k, k, "expected one entry per matrix row")
    rhs = [_complex(x, f"{path}.rhs[{i}]") for i, x in enumerate(rhs_raw)]
    # the config carries the system matrix A with rows a_v*; stored rows are a_v
    a_rows = np.conj(np.array(rows, dtype=np.complex128))
    system = _built(path, LinearSystem, a_rows, np.array(rhs, dtype=np.complex128))
    resolved = {
        "matrix": [[_complex_out(z) for z in r] for r in rows],
        "rhs": [_complex_out(z) for z in rhs],
    }
    return system, resolved


def _parse_generator(raw: dict, path: str) -> tuple[LinearSystem, dict]:
    spec = {
        "kind": _get(raw, "kind", path, _string, ("uniform", "near-orthogonal")),
        "k": _get(raw, "k", path, _integer, 1),
        "d": _get(raw, "d", path, _integer, 1),
        "seed": _get(raw, "seed", path, _integer, 0),
        "epsilon": _get(raw, "epsilon", path, _number, default=0.1),
    }
    system = _built(path, lambda: ex.generate_system(ex.GeneratorSpec(**spec)).system)
    return system, {"generator": {**spec, "rng_name": ex.RNG_NAME}}


# Per network type: the node-id fields of an edge, then its weight fields,
# each with the network table that holds the resolved weight.
_EDGE_FIELDS = {
    "tree": (("parent", "child"), {"w": "edge_weight"}),
    "dag": (("from", "to"), {"wd": "w_d", "wp": "w_p"}),
}


def _parse_network(raw: dict, path: str, equations: int):
    kind = _get(raw, "type", path, _string, tuple(_EDGE_FIELDS))
    nodes = _get(raw, "nodes", path, _integer, 1)
    if nodes != equations:
        message = f"system has {equations} equations but the network {nodes} nodes"
        raise ConfigError(f"{path}.nodes", message)
    single = [] if nodes == 1 else _REQUIRED  # one node needs no edges
    edges_raw = _get(raw, "edges", path, _list, default=single, message="expected a list of edges")
    tree = kind == "tree"
    head = {"type": kind, "nodes": nodes}
    if tree:
        head["root"] = _get(raw, "root", path, _node, nodes)
    ends, weights = _EDGE_FIELDS[kind]
    edges = []
    for i, e in enumerate(edges_raw):
        epath = f"{path}.edges[{i}]"
        e = _object(e, epath)
        ids = [_get(e, name, epath, _node, nodes) for name in ends]
        edges.append((*ids, *(_get(e, name, epath, _number, default=None) for name in weights)))
    if tree:
        net = _built(f"{path}.edges", TreeNetwork.from_edges, nodes, head["root"], edges)
    else:
        net = _built(f"{path}.edges", DagNetwork.from_cover_edges, nodes, edges)
    if net.violations:
        raise ConfigError(path, "; ".join(v.detail for v in net.violations))
    tables = [getattr(net, name) for name in weights.values()]
    resolved_edges = [
        dict(zip((*ends, *weights), (*e, *(t[e] for t in tables)))) for e in sorted(tables[0])
    ]
    return net, {**head, "edges": resolved_edges}


def _parse_relaxation(raw: dict, node_count: int, path: str) -> tuple[RelaxationAssignment, dict]:
    default = _get(raw, "default", path, _number, default=1.0)
    omega = np.full(node_count, default)
    for key, val in _get(raw, "omega", path, _object, default={}).items():
        kpath = f"{path}.omega.{key}"
        try:
            canonical = key == str(int(key))
        except ValueError:
            canonical = False
        _expect(canonical, kpath, "keys must be node ids in canonical decimal form")
        omega[_node(int(key), kpath, node_count)] = _number(val, kpath)
    for i, g in enumerate(_get(raw, "groups", path, _list, default=[])):
        gpath = f"{path}.groups[{i}]"
        g = _object(g, gpath)
        nodes = _get(g, "nodes", gpath, _nodes, node_count)
        omega[nodes] = _get(g, "omega", gpath, _number)
    scale = _get(raw, "scale", path, _number, default=1.0)
    relax = _built(path, RelaxationAssignment, omega, scale)
    resolved = {
        "default": default,
        "omega": {str(i): float(w) for i, w in enumerate(omega)},
        "scale": scale,
    }
    return relax, resolved


def _check_axes(axes: list, path: str, node_count: int) -> None:
    """Check the sweep ``axes`` one prefix at a time; a bad axis i is reported at ``path[i]``."""
    for i in range(len(axes)):
        _built(f"{path}[{i}]", ex.check_sweep_axes, axes[: i + 1], node_count)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # undecodable text, bad or too deeply nested JSON
        raise ConfigError("config", f"not valid JSON: {exc}") from exc
    raw = _object(raw, "config")
    system, sys_resolved = _parse_system(_get(raw, "system", "config", _object), "config.system")
    network, net_resolved = _parse_network(
        _get(raw, "network", "config", _object), "config.network", system.node_count
    )
    n = network.node_count
    partition = None
    part_resolved = None
    sub = _get(raw, "subnetworks", "config", _object, default=None)
    if sub is not None:
        groups = _get(sub, "groups", "config.subnetworks", _list)
        groups = [_nodes(g, f"config.subnetworks.groups[{i}]", n) for i, g in enumerate(groups)]
        _expect(
            net_resolved["type"] == "tree",
            "config.subnetworks",
            "subnetworks apply to tree networks only",
        )
        partition = SubnetworkPartition.of([set(g) for g in groups])
        part_resolved = {"groups": [sorted(g) for g in partition.groups]}
    relax_raw = _get(raw, "relaxation", "config", _object, default=None) or {}
    relax, relax_resolved = _parse_relaxation(relax_raw, n, "config.relaxation")
    solver_raw = _get(raw, "solver", "config", _object, default={})
    max_iter = _get(solver_raw, "max_iterations", "config.solver", _integer, 1, default=10_000)
    tol = _get(solver_raw, "step_tolerance", "config.solver", _number, default=1e-10)
    _expect(tol > 0, "config.solver.step_tolerance", "expected a positive number")
    d = system.ambient_dim
    initial = _get(
        solver_raw, "initial", "config.solver", _list, d, d, f"expected {d} entries", default=None
    )
    init_vec = None
    if initial is not None:
        init_vec = np.array(
            [_complex(x, f"config.solver.initial[{i}]") for i, x in enumerate(initial)]
        )
    config = SolverConfig(max_iterations=max_iter, step_tolerance=tol, initial_estimate=init_vec)
    sweep_axes = None
    sweep = _get(raw, "sweep", "config", _object, default=None)
    if sweep is not None:
        axes = _get(sweep, "axes", "config.sweep", _list, 1, 2, "expected one or two axes")
        path = "config.sweep.axes"
        sweep_axes = [tuple(sorted(_nodes(a, f"{path}[{i}]", n))) for i, a in enumerate(axes)]
        _check_axes(sweep_axes, path, n)
    output_raw = _get(raw, "output", "config", _object, default={})
    out_dir = _get(output_raw, "dir", "config.output", _string, default=".")
    out_format = _get(
        output_raw, "format", "config.output", _string, ("json", "csv"), default="json"
    )
    resolved = {
        "system": sys_resolved,
        "network": net_resolved,
        "relaxation": relax_resolved,
        "solver": {"max_iterations": max_iter, "step_tolerance": tol},
        "output": {"dir": out_dir, "format": out_format},
    }
    if part_resolved is not None:
        resolved["subnetworks"] = part_resolved
    if sweep_axes is not None:
        resolved["sweep"] = {"axes": [list(a) for a in sweep_axes]}
    if init_vec is not None:
        resolved["solver"]["initial"] = [_complex_out(z) for z in init_vec]
    return RunConfig(
        system=system,
        network=network,
        partition=partition,
        relaxation=relax,
        solver=config,
        sweep_axes=sweep_axes,
        output_dir=out_dir,
        output_format=out_format,
        resolved=resolved,
    )


def _write_report(args, cfg: RunConfig, name: str, payload: dict, table=None) -> None:
    """Write ``payload`` as the JSON report ``name`` in the output dir, and ``table`` if asked.

    The output dir is ``--out`` or else the config's.  ``table`` is
    ``(file name, header, rows)``, with ``rows`` an iterable of CSV lines
    that is read only when ``--format`` or else the config asks for csv.
    """
    files = {name: json.dumps(payload, indent=2)}
    if table is not None and (args.format or cfg.output_format) == "csv":
        csv_name, header, rows = table
        files[csv_name] = "\n".join([header, *rows])
    ex._write_files(args.out or cfg.output_dir, files)


def _estimate_out(state) -> Any:
    if isinstance(state, np.ndarray):
        return [_complex_out(complex(z)) for z in state]
    return [[_complex_out(complex(z)) for z in block] for block in state]


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    try:
        report = solve(cfg.system, cfg.network, cfg.relaxation, cfg.solver)
    except DivergenceError as exc:
        payload = {
            "outcome": "diverged",
            "route": exc.route,
            "iteration": exc.iteration,
            "last_iterate": _estimate_out(exc.last_iterate),
            "config": cfg.resolved,
        }
        _write_report(args, cfg, "solve_report.json", payload)
        print(f"diverged at iteration {exc.iteration}; report written")
        return EXIT_DIVERGED
    payload = {
        "outcome": "converged" if report.converged else "max-iterations",
        "converged": report.converged,
        "route": report.route,
        "iterations_used": report.iterations_used,
        "final_estimates": _estimate_out(report.final_estimates),
        "step_norms": report.step_norms,
        "residual_norms": report.residual_norms,
        "observed_rate": report.observed_rate,
        "config": cfg.resolved,
    }
    norms = enumerate(zip(report.step_norms, report.residual_norms), 1)
    rows = (f"{i},{s:.12g},{r:.12g}" for i, (s, r) in norms)
    trace = ("solve_trace.csv", "iteration,step_norm,residual_norm", rows)
    _write_report(args, cfg, "solve_report.json", payload, trace)
    last_step = report.step_norms[-1] if report.step_norms else 0.0
    last_res = report.residual_norms[-1] if report.residual_norms else max(
        map(cfg.system.residual_norm, np.atleast_2d(report.final_estimates))
    )
    print(
        f"{payload['outcome']}: iterations={report.iterations_used} "
        f"step={last_step:.3e} residual={last_res:.3e}"
    )
    return EXIT_OK if report.converged else EXIT_MAX_ITERATIONS


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    part = cfg.partition or SubnetworkPartition(())
    sys_, net, relax = cfg.system, cfg.network, cfg.relaxation
    payload: dict = {"config": cfg.resolved}
    if cfg.partition is not None:
        violations = validate_subnetworks(net, part)
        payload["partition_violations"] = [
            {"kind": v.kind, "detail": v.detail} for v in violations
        ]
    try:
        admissibility = cf.check_admissibility(sys_, net, part, relax)
        dichotomy = cf.eigen_dichotomy_check(cf.dag_block_structure(sys_, net, relax).aggregate, sys_)
    except PartitionError as exc:
        print(f"config.subnetworks: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:  # such as a pass map that overflows
        print(f"analyze: {exc}", file=_sys.stderr)
        return EXIT_DIVERGED
    payload["admissible"] = admissibility.admissible
    payload["condition1"] = {
        str(v): {"omega": om, "pass": ok}
        for v, (om, ok) in sorted(admissibility.node_verdicts.items())
    }
    payload["groups"] = []
    for verdict in admissibility.groups:
        entry = {
            "nodes": list(verdict.nodes),
            "alpha": verdict.alpha,
            "pass": verdict.passed,
        }
        if verdict.leaf_bounds is not None:
            entry["leaf_bounds"] = {str(leaf): b for leaf, b in verdict.leaf_bounds.items()}
        payload["groups"].append(entry)
    if admissibility.unit_scale_admissible is not None:
        payload["unit_scale_admissible"] = admissibility.unit_scale_admissible
    payload["rho_restricted"] = dichotomy.rho_restricted
    payload["eigenvalues"] = [[z.real, z.imag] for z in dichotomy.eigenvalues]
    payload["unit_eigenvalue_count"] = dichotomy.unit_count
    payload["nullity"] = dichotomy.nullity
    payload["dichotomy_holds"] = dichotomy.holds
    rows = (f"{z.real:.12g},{z.imag:.12g},{abs(z):.12g}" for z in dichotomy.eigenvalues)
    eigen = ("eigenvalues.csv", "re,im,modulus", rows)
    _write_report(args, cfg, "spectral_report.json", payload, eigen)
    print(
        f"admissible={admissibility.admissible} rho_restricted={dichotomy.rho_restricted:.6f}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    axes = cfg.sweep_axes
    if axes is None:  # derived from the subnetworks, checked here: analyze reports their overlaps
        missing = "missing (no subnetworks to derive axes from)"
        _expect(cfg.partition is not None, "config.sweep.axes", missing)
        axes = [tuple(sorted(g)) for g in cfg.partition.groups]
        path = "config.subnetworks.groups"
        _expect(1 <= len(axes) <= 2, path, "expected one or two groups to derive sweep axes from")
        _check_axes(axes, path, cfg.network.node_count)
    try:
        _checked_omega(args.baseline)
    except ValueError as exc:
        print(f"--baseline: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    try:  # restricted_rho checks the grid's omega values with the baseline's rule
        grid = ex.grid_from_spec(args.grid or ",".join(["0.05:8:0.05"] * len(axes)), len(axes))
        result = ex.omega_sweep(cfg.system, cfg.network, grid, axes, baseline=args.baseline)
    except ValueError as exc:
        print(f"--grid: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:  # such as a pass map that overflows
        print(f"sweep: {exc}", file=_sys.stderr)
        return EXIT_DIVERGED
    ex._write_files(args.out or cfg.output_dir, {"sweep.csv": ex.sweep_to_csv(result)})
    best = ", ".join(f"omega_{i + 1}={v:g}" for i, v in enumerate(result.argmin))
    print(f"argmin: {best} rho={result.min_rho:.6f} baseline={result.baseline_rho:.6f}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    try:
        bundle = ex.reproduce(args.experiment, args.seed, args.out)
    except ValueError as exc:
        print(str(exc), file=_sys.stderr)
        return EXIT_CONFIG
    for assertion in bundle["assertions"]:
        status = "pass" if assertion["passed"] else "FAIL"
        print(f"[{status}] {assertion['name']}")
    return EXIT_OK


def cmd_config_dump(args) -> int:
    cfg = load_config(args.config)
    print(json.dumps(cfg.resolved, indent=2))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every later one.

    Parsing leaves no state in it: no action appends or counts, and each
    subcommand's ``func`` default is constant.
    """
    parser = argparse.ArgumentParser(
        prog="distkaczmarz",
        description="Distributed Kaczmarz solvers on trees and DAGs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, what, csv_adds in (
        ("solve", cmd_solve, "run the iteration and write a report", "a per-iteration trace table"),
        ("analyze", cmd_analyze, "admissibility and spectral analysis", "the eigenvalue table"),
    ):
        p_report = sub.add_parser(name, help=what)
        p_report.add_argument("--config", required=True)
        p_report.add_argument("--out", default=None)
        p_report.add_argument("--format", choices=("json", "csv"), default=None,
                              help=f"csv adds {csv_adds}")
        p_report.set_defaults(func=func)

    p_sw = sub.add_parser("sweep", help="spectral radius over a parameter grid")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument(
        "--grid",
        default=None,
        help="start:stop:step[,start:stop:step]; default 0.05:8:0.05 per axis",
    )
    p_sw.add_argument("--baseline", type=float, default=1.5)
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="run a canonical seeded study")
    p_rep.add_argument("experiment")
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--out", default="reports")
    p_rep.set_defaults(func=cmd_reproduce)

    p_dump = sub.add_parser("config-dump", help="print the resolved configuration")
    p_dump.add_argument("--config", required=True)
    p_dump.set_defaults(func=cmd_config_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=_sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

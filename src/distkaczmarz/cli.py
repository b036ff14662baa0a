"""Command line front end.

Commands
--------
``solve``        run the iteration and write a solve report (exit 0 on
                 convergence, 2 when the iteration budget runs out, 3 on
                 divergence).
``analyze``      admissibility verdicts, per-leaf relaxation bounds and the
                 eigenvalue split of the iteration matrix.
``sweep``        spectral radius over a parameter grid, written as CSV, for
                 tree and DAG networks.
``reproduce``    run one of the canonical seeded studies.
``config-dump``  print the resolved configuration (defaults applied).

Configs are JSON; complex numbers are two-element ``[re, im]`` arrays and
plain reals are accepted wherever the imaginary part is zero.  Node ids are
dense integers ``0 .. nodes-1``.  Schema violations exit with code 1 and
name the JSON path of the offending field.  Report files are written to a
temporary name and renamed, so no partial files appear, and every output
ends with a newline.  Output is plain text (no color), so ``NO_COLOR`` is
honored trivially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import closedform as cf
from . import experiments as ex
from .errors import CycleError, DivergenceError, InvalidNetworkError, PartitionError
from .solver import LinearSystem, RelaxationAssignment, SolverConfig, _checked_omega, solve
from .topology import (
    DagNetwork,
    SubnetworkPartition,
    TreeNetwork,
    resolve_groups,
    validate_dag,
    validate_subnetworks,
    validate_tree,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITERATIONS = 2
EXIT_DIVERGED = 3


class ConfigError(Exception):
    """Invalid configuration; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _get(obj: dict, key: str, path: str, required: bool = True, default=None):
    if key not in obj:
        _expect(not required, f"{path}.{key}", "missing required field")
        return default
    return obj[key]


def _as_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(
        isinstance(x, (int, float)) for x in value
    ):
        return complex(value[0], value[1])
    raise ConfigError(path, "expected a real number or an [re, im] pair")


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
    _expect(isinstance(raw, dict), path, "expected an object")
    has_inline = "matrix" in raw
    has_gen = "generator" in raw
    _expect(
        has_inline != has_gen, path, "exactly one of 'matrix' or 'generator' is required"
    )
    if has_inline:
        matrix = raw["matrix"]
        _expect(
            isinstance(matrix, list) and matrix and all(isinstance(r, list) for r in matrix),
            f"{path}.matrix",
            "expected a nonempty list of rows",
        )
        width = len(matrix[0])
        rows = []
        for i, r in enumerate(matrix):
            _expect(len(r) == width, f"{path}.matrix[{i}]", "ragged matrix rows")
            rows.append([_as_complex(x, f"{path}.matrix[{i}][{j}]") for j, x in enumerate(r)])
        rhs_raw = _get(raw, "rhs", path)
        _expect(
            isinstance(rhs_raw, list) and len(rhs_raw) == len(matrix),
            f"{path}.rhs",
            "expected one entry per matrix row",
        )
        rhs = [_as_complex(x, f"{path}.rhs[{i}]") for i, x in enumerate(rhs_raw)]
        # the config carries the system matrix A with rows a_v*; stored rows are a_v
        system = LinearSystem(
            rows=np.conj(np.array(rows, dtype=np.complex128)),
            rhs=np.array(rhs, dtype=np.complex128),
        )
        resolved = {
            "matrix": [[_complex_out(z) for z in r] for r in rows],
            "rhs": [_complex_out(z) for z in rhs],
        }
        return system, resolved
    gen = raw["generator"]
    _expect(isinstance(gen, dict), f"{path}.generator", "expected an object")
    kind = _get(gen, "kind", f"{path}.generator")
    _expect(
        kind in ("uniform", "near-orthogonal"),
        f"{path}.generator.kind",
        "expected 'uniform' or 'near-orthogonal'",
    )
    k = _get(gen, "k", f"{path}.generator")
    d = _get(gen, "d", f"{path}.generator")
    seed = _get(gen, "seed", f"{path}.generator")
    epsilon = _get(gen, "epsilon", f"{path}.generator", required=False, default=0.1)
    for name, val in (("k", k), ("d", d), ("seed", seed)):
        _expect(isinstance(val, int), f"{path}.generator.{name}", "expected an integer")
    try:
        spec = ex.GeneratorSpec(kind=kind, k=k, d=d, seed=seed, epsilon=float(epsilon))
    except ValueError as exc:
        raise ConfigError(f"{path}.generator", str(exc)) from exc
    system = ex.generate_system(spec).system
    resolved = {
        "generator": {
            "kind": kind,
            "k": k,
            "d": d,
            "seed": seed,
            "epsilon": float(epsilon),
            "rng_name": spec.rng_name,
        }
    }
    return system, resolved


def _parse_network(raw: dict, path: str):
    _expect(isinstance(raw, dict), path, "expected an object")
    kind = _get(raw, "type", path)
    _expect(kind in ("tree", "dag"), f"{path}.type", "expected 'tree' or 'dag'")
    nodes = _get(raw, "nodes", path)
    _expect(isinstance(nodes, int) and nodes >= 1, f"{path}.nodes", "expected a positive integer")
    edges_raw = _get(raw, "edges", path, required=(nodes > 1), default=[])
    _expect(isinstance(edges_raw, list), f"{path}.edges", "expected a list of edges")
    if kind == "tree":
        root = _get(raw, "root", path)
        _expect(
            isinstance(root, int) and 0 <= root < nodes,
            f"{path}.root",
            "expected a node id in range",
        )
        edges = []
        resolved_edges = []
        for i, e in enumerate(edges_raw):
            epath = f"{path}.edges[{i}]"
            _expect(isinstance(e, dict), epath, "expected an object")
            u = _get(e, "parent", epath)
            v = _get(e, "child", epath)
            w = e.get("w")
            for name, val in (("parent", u), ("child", v)):
                _expect(
                    isinstance(val, int) and 0 <= val < nodes,
                    f"{epath}.{name}",
                    "expected a node id in range",
                )
            edges.append((u, v, None if w is None else float(w)))
        try:
            net = TreeNetwork.from_edges(nodes, root, edges)
        except InvalidNetworkError as exc:
            raise ConfigError(f"{path}.edges", str(exc)) from exc
        violations = validate_tree(net)
        if violations:
            raise ConfigError(path, "; ".join(v.detail for v in violations))
        for (u, v), w in sorted(net.edge_weight.items()):
            resolved_edges.append({"parent": u, "child": v, "w": w})
        return net, {"type": "tree", "nodes": nodes, "root": root, "edges": resolved_edges}
    edges = []
    for i, e in enumerate(edges_raw):
        epath = f"{path}.edges[{i}]"
        _expect(isinstance(e, dict), epath, "expected an object")
        u = _get(e, "from", epath)
        v = _get(e, "to", epath)
        for name, val in (("from", u), ("to", v)):
            _expect(
                isinstance(val, int) and 0 <= val < nodes,
                f"{epath}.{name}",
                "expected a node id in range",
            )
        wd, wp = e.get("wd"), e.get("wp")
        edges.append((u, v, None if wd is None else float(wd), None if wp is None else float(wp)))
    try:
        net = DagNetwork.from_cover_edges(nodes, edges)
    except (InvalidNetworkError, CycleError) as exc:
        raise ConfigError(f"{path}.edges", str(exc)) from exc
    violations = validate_dag(net)
    if violations:
        raise ConfigError(path, "; ".join(v.detail for v in violations))
    resolved_edges = [
        {"from": u, "to": v, "wd": net.w_d[(u, v)], "wp": net.w_p[(u, v)]}
        for u, v in net.edges
    ]
    return net, {"type": "dag", "nodes": nodes, "edges": resolved_edges}


def _parse_relaxation(raw, node_count: int, path: str) -> tuple[RelaxationAssignment, dict]:
    if raw is None:
        raw = {}
    _expect(isinstance(raw, dict), path, "expected an object")
    default = raw.get("default", 1.0)
    _expect(isinstance(default, (int, float)), f"{path}.default", "expected a number")
    omega = np.full(node_count, float(default))
    per_node = raw.get("omega", {})
    _expect(isinstance(per_node, dict), f"{path}.omega", "expected an object keyed by node id")
    for key, val in per_node.items():
        try:
            v = int(key)
        except ValueError:
            raise ConfigError(f"{path}.omega.{key}", "keys must be node ids")
        _expect(0 <= v < node_count, f"{path}.omega.{key}", "node id out of range")
        _expect(isinstance(val, (int, float)), f"{path}.omega.{key}", "expected a number")
        omega[v] = float(val)
    groups = raw.get("groups", [])
    _expect(isinstance(groups, list), f"{path}.groups", "expected a list")
    for i, g in enumerate(groups):
        gpath = f"{path}.groups[{i}]"
        _expect(isinstance(g, dict), gpath, "expected an object")
        nodes = _get(g, "nodes", gpath)
        value = _get(g, "omega", gpath)
        _expect(isinstance(nodes, list) and nodes, f"{gpath}.nodes", "expected node ids")
        _expect(isinstance(value, (int, float)), f"{gpath}.omega", "expected a number")
        for v in nodes:
            _expect(
                isinstance(v, int) and 0 <= v < node_count,
                f"{gpath}.nodes",
                "node id out of range",
            )
            omega[v] = float(value)
    scale = raw.get("scale", 1.0)
    _expect(isinstance(scale, (int, float)), f"{path}.scale", "expected a number")
    try:
        relax = RelaxationAssignment(omega, float(scale))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    resolved = {
        "default": float(default),
        "omega": {str(i): float(w) for i, w in enumerate(omega)},
        "scale": float(scale),
    }
    return relax, resolved


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"not valid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "config", "expected a JSON object")
    system, sys_resolved = _parse_system(_get(raw, "system", "config"), "config.system")
    network, net_resolved = _parse_network(_get(raw, "network", "config"), "config.network")
    _expect(
        system.node_count == (network.node_count),
        "config.network.nodes",
        f"system has {system.node_count} equations but the network {network.node_count} nodes",
    )
    partition = None
    part_resolved = None
    if raw.get("subnetworks") is not None:
        sub = raw["subnetworks"]
        _expect(isinstance(sub, dict), "config.subnetworks", "expected an object")
        groups = _get(sub, "groups", "config.subnetworks")
        _expect(isinstance(groups, list), "config.subnetworks.groups", "expected a list")
        for i, g in enumerate(groups):
            _expect(
                isinstance(g, list)
                and g
                and all(isinstance(v, int) and 0 <= v < network.node_count for v in g),
                f"config.subnetworks.groups[{i}]",
                "expected node ids in range",
            )
        _expect(
            isinstance(network, TreeNetwork),
            "config.subnetworks",
            "subnetworks apply to tree networks only",
        )
        partition = SubnetworkPartition.of([set(g) for g in groups])
        part_resolved = {"groups": [sorted(g) for g in partition.groups]}
    relax, relax_resolved = _parse_relaxation(
        raw.get("relaxation"), network.node_count, "config.relaxation"
    )
    solver_raw = raw.get("solver", {})
    _expect(isinstance(solver_raw, dict), "config.solver", "expected an object")
    max_iter = solver_raw.get("max_iterations", 10_000)
    tol = solver_raw.get("step_tolerance", 1e-10)
    _expect(
        isinstance(max_iter, int) and max_iter >= 1,
        "config.solver.max_iterations",
        "expected a positive integer",
    )
    _expect(
        isinstance(tol, (int, float)) and tol > 0,
        "config.solver.step_tolerance",
        "expected a positive number",
    )
    initial = solver_raw.get("initial")
    init_vec = None
    if initial is not None:
        _expect(isinstance(initial, list), "config.solver.initial", "expected a list")
        init_vec = np.array(
            [_as_complex(x, f"config.solver.initial[{i}]") for i, x in enumerate(initial)]
        )
        _expect(
            init_vec.shape[0] == system.ambient_dim,
            "config.solver.initial",
            f"expected {system.ambient_dim} entries",
        )
    config = SolverConfig(
        max_iterations=max_iter, step_tolerance=float(tol), initial_estimate=init_vec
    )
    sweep_axes = None
    if raw.get("sweep") is not None:
        sweep = raw["sweep"]
        _expect(isinstance(sweep, dict), "config.sweep", "expected an object")
        axes = _get(sweep, "axes", "config.sweep")
        _expect(
            isinstance(axes, list) and 1 <= len(axes) <= 2,
            "config.sweep.axes",
            "expected one or two axes",
        )
        parsed = []
        for i, axis in enumerate(axes):
            _expect(
                isinstance(axis, list)
                and axis
                and all(isinstance(v, int) and 0 <= v < network.node_count for v in axis),
                f"config.sweep.axes[{i}]",
                "expected node ids in range",
            )
            parsed.append(tuple(sorted(axis)))
        sweep_axes = parsed
    output_raw = raw.get("output", {})
    _expect(isinstance(output_raw, dict), "config.output", "expected an object")
    out_dir = output_raw.get("dir", ".")
    out_format = output_raw.get("format", "json")
    _expect(out_format in ("json", "csv"), "config.output.format", "expected 'json' or 'csv'")
    resolved = {
        "system": sys_resolved,
        "network": net_resolved,
        "relaxation": relax_resolved,
        "solver": {"max_iterations": max_iter, "step_tolerance": float(tol)},
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


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    ex._write_atomic(path, json.dumps(payload, indent=2))


def _estimate_out(state) -> Any:
    if isinstance(state, np.ndarray):
        return [_complex_out(complex(z)) for z in state]
    return [[_complex_out(complex(z)) for z in block] for block in state]


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or cfg.output_dir
    try:
        report = solve(cfg.system, cfg.network, cfg.relaxation, cfg.solver)
    except DivergenceError as exc:
        payload = {
            "outcome": "diverged",
            "iteration": exc.iteration,
            "last_iterate": _estimate_out(exc.last_iterate),
            "config": cfg.resolved,
        }
        _write_json(os.path.join(out_dir, "solve_report.json"), payload)
        print(f"diverged at iteration {exc.iteration}; report written")
        return EXIT_DIVERGED
    payload = {
        "outcome": "converged" if report.converged else "max-iterations",
        "converged": report.converged,
        "iterations_used": report.iterations_used,
        "final_estimates": _estimate_out(report.final_estimates),
        "step_norms": report.step_norms,
        "residual_norms": report.residual_norms,
        "config": cfg.resolved,
    }
    _write_json(os.path.join(out_dir, "solve_report.json"), payload)
    if (args.format or cfg.output_format) == "csv":
        lines = ["iteration,step_norm,residual_norm"]
        for i, (s, r) in enumerate(zip(report.step_norms, report.residual_norms), 1):
            lines.append(f"{i},{s:.12g},{r:.12g}")
        ex._write_atomic(os.path.join(out_dir, "solve_trace.csv"), "\n".join(lines))
    last_step = report.step_norms[-1] if report.step_norms else 0.0
    last_res = report.residual_norms[-1] if report.residual_norms else (
        cfg.system.residual_norm(report.final_estimates)
        if isinstance(report.final_estimates, np.ndarray)
        else max(cfg.system.residual_norm(b) for b in report.final_estimates)
    )
    print(
        f"{payload['outcome']}: iterations={report.iterations_used} "
        f"step={last_step:.3e} residual={last_res:.3e}"
    )
    return EXIT_OK if report.converged else EXIT_MAX_ITERATIONS


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    if not isinstance(cfg.network, TreeNetwork):
        print("analyze currently applies to tree networks", file=_sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or cfg.output_dir
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
    except PartitionError as exc:
        print(f"config.subnetworks: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    payload["admissible"] = admissibility.admissible
    payload["condition1"] = {
        str(v): {"omega": om, "pass": ok}
        for v, (om, ok) in sorted(admissibility.node_verdicts.items())
    }
    payload["groups"] = []
    for verdict, group in zip(admissibility.groups, resolve_groups(net, part)):
        entry = {
            "nodes": list(verdict.nodes),
            "alpha": verdict.alpha,
            "pass": verdict.passed,
        }
        if group.is_leaf_group:
            entry["leaf_bounds"] = {
                str(leaf): cf.admissible_upper_bound(sys_, net, group, leaf)
                for leaf in group.leaves
            }
        payload["groups"].append(entry)
    if admissibility.unit_scale_admissible is not None:
        payload["unit_scale_admissible"] = admissibility.unit_scale_admissible
    it = cf.tree_affine(sys_, net, relax)
    dichotomy = cf.eigen_dichotomy_check(it, sys_)
    spectrum = cf.eigenvalues(it.B)
    payload["rho_restricted"] = dichotomy.rho_restricted
    payload["eigenvalues"] = [[z.real, z.imag] for z in spectrum.eigenvalues]
    payload["unit_eigenvalue_count"] = dichotomy.unit_count
    payload["nullity"] = dichotomy.nullity
    payload["dichotomy_holds"] = dichotomy.holds
    _write_json(os.path.join(out_dir, "spectral_report.json"), payload)
    if (args.format or cfg.output_format) == "csv":
        lines = ["re,im,modulus"]
        for z in spectrum.eigenvalues:
            lines.append(f"{z.real:.12g},{z.imag:.12g},{abs(z):.12g}")
        ex._write_atomic(os.path.join(out_dir, "eigenvalues.csv"), "\n".join(lines))
    print(
        f"admissible={admissibility.admissible} rho_restricted={dichotomy.rho_restricted:.6f}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    axes = cfg.sweep_axes
    if axes is None:
        if cfg.partition is None:
            print(
                "config.sweep.axes: missing (no subnetworks to derive axes from)",
                file=_sys.stderr,
            )
            return EXIT_CONFIG
        axes = [tuple(sorted(g)) for g in cfg.partition.groups]
    if not 1 <= len(axes) <= 2:
        print("config.sweep.axes: expected one or two axes", file=_sys.stderr)
        return EXIT_CONFIG
    grid_spec = args.grid or ",".join(["0.05:8:0.05"] * len(axes))
    try:
        grid = ex.grid_from_spec(grid_spec, len(axes))
    except ValueError as exc:
        print(f"--grid: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    for flag, values in (("--grid", grid), ("--baseline", args.baseline)):
        try:
            _checked_omega(values)
        except ValueError as exc:
            print(f"{flag}: {exc}", file=_sys.stderr)
            return EXIT_CONFIG
    result = ex.omega_sweep(
        cfg.system, cfg.network, cfg.partition, grid, axes=axes, baseline=args.baseline
    )
    out_dir = args.out or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    ex._write_atomic(os.path.join(out_dir, "sweep.csv"), ex.sweep_to_csv(result))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distkaczmarz",
        description="Distributed Kaczmarz solvers on trees and DAGs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the iteration and write a report")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--format", choices=("json", "csv"), default=None,
                         help="csv adds a per-iteration trace table")
    p_solve.set_defaults(func=cmd_solve)

    p_an = sub.add_parser("analyze", help="admissibility and spectral analysis")
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--out", default=None)
    p_an.add_argument("--format", choices=("json", "csv"), default=None,
                      help="csv adds the eigenvalue table")
    p_an.set_defaults(func=cmd_analyze)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=_sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

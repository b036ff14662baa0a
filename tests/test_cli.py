import json
import os

import numpy as np
import pytest

from distkaczmarz import cli
from distkaczmarz import closedform as cf
from distkaczmarz import solver as sv


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def identity_config(tmp_path, **overrides):
    payload = {
        "system": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "rhs": [1.0, 2.0]},
        "network": {
            "type": "tree",
            "nodes": 2,
            "root": 0,
            "edges": [{"parent": 0, "child": 1, "w": 1.0}],
        },
        "relaxation": {"default": 1.0},
        "solver": {"max_iterations": 50, "step_tolerance": 1e-12},
        "output": {"dir": str(tmp_path / "out"), "format": "json"},
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


class TestSolveCommand:
    def test_identity_system_converges(self, tmp_path, capsys):
        cfg = identity_config(tmp_path)
        code = cli.main(["solve", "--config", cfg])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["converged"] is True
        assert report["iterations_used"] <= 2
        assert report["final_estimates"] == [1.0, 2.0]
        assert report["route"] == "affine"
        assert report["observed_rate"] == 0.0  # the first pass lands on the solution
        assert "config" in report

    def test_report_carries_the_observed_rate(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"matrix": [[1.0, 0.0]], "rhs": [1.0]},
                "network": {"type": "tree", "nodes": 1, "root": 0, "edges": []},
                "relaxation": {"default": 0.5},
                "solver": {"max_iterations": 20},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["solve", "--config", cfg]) == 2
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["observed_rate"] == pytest.approx(0.5, rel=1e-12)  # |1 - omega| on one node

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"matrix": [[1.0, 0.0]], "rhs": [1.0]},
                "network": {"type": "tree", "nodes": 1, "root": 0, "edges": []},
                "relaxation": {"default": 5.0},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["solve", "--config", cfg]) == 3
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        assert report["outcome"] == "diverged"
        assert report["route"] == "affine"
        assert "observed_rate" not in report

    def test_max_iterations_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"generator": {"kind": "uniform", "k": 4, "d": 4, "seed": 3}},
                "network": {
                    "type": "tree",
                    "nodes": 4,
                    "root": 0,
                    "edges": [
                        {"parent": 0, "child": 1},
                        {"parent": 1, "child": 2},
                        {"parent": 2, "child": 3},
                    ],
                },
                "relaxation": {"default": 1.0},
                "solver": {"max_iterations": 2, "step_tolerance": 1e-14},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["solve", "--config", cfg]) == 2

    def test_missing_root_named_in_diagnostics(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "system": {"matrix": [[1.0]], "rhs": [1.0]},
                "network": {"type": "tree", "nodes": 1, "edges": []},
            },
        )
        assert cli.main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config.network.root" in err

    def test_csv_format_adds_trace(self, tmp_path):
        cfg = identity_config(tmp_path)
        assert cli.main(["solve", "--config", cfg, "--format", "csv"]) == 0
        body = (tmp_path / "out" / "solve_trace.csv").read_text()
        lines = body.strip().splitlines()
        assert lines[0] == "iteration,step_norm,residual_norm"
        assert body.endswith("\n")

    def test_dag_solve(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"matrix": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "rhs": [1.0, 1.0, 2.0]},
                "network": {
                    "type": "dag",
                    "nodes": 3,
                    "edges": [{"from": 0, "to": 2}, {"from": 1, "to": 2}],
                },
                "relaxation": {"default": 1.0},
                "solver": {"max_iterations": 500, "step_tolerance": 1e-12},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["solve", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
        for block in report["final_estimates"]:
            assert np.allclose(block, [1.0, 1.0], atol=1e-8)


class TestAnalyzeCommand:
    def test_admissible_unit_relaxation(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "system": {"generator": {"kind": "near-orthogonal", "k": 5, "d": 5, "seed": 2}},
                "network": {
                    "type": "tree",
                    "nodes": 5,
                    "root": 0,
                    "edges": [
                        {"parent": 0, "child": 1},
                        {"parent": 0, "child": 2},
                        {"parent": 1, "child": 3},
                        {"parent": 1, "child": 4},
                    ],
                },
                "subnetworks": {"groups": [[3, 4]]},
                "relaxation": {"default": 1.0},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["analyze", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "spectral_report.json").read_text())
        assert report["admissible"] is True
        assert report["groups"][0]["pass"] is True
        assert "leaf_bounds" in report["groups"][0]
        assert report["dichotomy_holds"] is True
        assert len(report["eigenvalues"]) == 5

    def test_orthonormal_leaf_pair_bound_is_four(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {
                    "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "rhs": [0.0, 0.0, 0.0],
                },
                "network": {
                    "type": "tree",
                    "nodes": 3,
                    "root": 0,
                    "edges": [{"parent": 0, "child": 1}, {"parent": 0, "child": 2}],
                },
                "subnetworks": {"groups": [[1, 2]]},
                "relaxation": {"default": 1.0},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["analyze", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "spectral_report.json").read_text())
        bounds = report["groups"][0]["leaf_bounds"]
        assert bounds["1"] == pytest.approx(4.0)
        assert bounds["2"] == pytest.approx(4.0)

    def test_interior_over_relaxation_fails_condition_one(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"generator": {"kind": "uniform", "k": 3, "d": 3, "seed": 4}},
                "network": {
                    "type": "tree",
                    "nodes": 3,
                    "root": 0,
                    "edges": [{"parent": 0, "child": 1}, {"parent": 1, "child": 2}],
                },
                "relaxation": {"default": 1.0, "omega": {"1": 2.5}},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["analyze", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "spectral_report.json").read_text())
        assert report["admissible"] is False
        assert report["condition1"]["1"]["pass"] is False


class TestSweepCommand:
    def test_single_point_grid(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "system": {"matrix": [[1.0, 2.0]], "rhs": [1.0]},
                "network": {"type": "tree", "nodes": 1, "root": 0, "edges": []},
                "sweep": {"axes": [[0]]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["sweep", "--config", cfg, "--grid", "1.0:1.0:1.0"]) == 0
        body = (tmp_path / "out" / "sweep.csv").read_text()
        lines = body.strip().splitlines()
        assert lines[0] == "omega_1,rho"
        assert len(lines) == 2

    def test_single_node_curve(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"matrix": [[1.0, 2.0]], "rhs": [1.0]},
                "network": {"type": "tree", "nodes": 1, "root": 0, "edges": []},
                "sweep": {"axes": [[0]]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["sweep", "--config", cfg, "--grid", "0:2:0.5"]) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            omega, rho = (float(x) for x in row.split(","))
            assert rho == pytest.approx(abs(1.0 - omega), abs=1e-10)

    def test_two_axis_row_count(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"generator": {"kind": "uniform", "k": 5, "d": 5, "seed": 1}},
                "network": {
                    "type": "tree",
                    "nodes": 5,
                    "root": 0,
                    "edges": [
                        {"parent": 0, "child": 1},
                        {"parent": 0, "child": 2},
                        {"parent": 1, "child": 3},
                        {"parent": 1, "child": 4},
                    ],
                },
                "sweep": {"axes": [[2], [3, 4]]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["sweep", "--config", cfg, "--grid", "0.5:1.5:0.5,1:2:0.5"]) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "omega_1,omega_2,rho"
        assert len(rows) - 1 == 3 * 3

    def test_overlapping_axes_exit_one_naming_the_axis_and_node(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "system": {"generator": {"kind": "uniform", "k": 5, "d": 5, "seed": 1}},
                "network": {
                    "type": "tree",
                    "nodes": 5,
                    "root": 0,
                    "edges": [
                        {"parent": 0, "child": 1},
                        {"parent": 0, "child": 2},
                        {"parent": 1, "child": 3},
                        {"parent": 1, "child": 4},
                    ],
                },
                "sweep": {"axes": [[2], [2, 3]]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["sweep", "--config", cfg, "--grid", "0.5:1.5:0.5,1:2:0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config.sweep.axes[1]: ")
        assert "node 2" in err
        assert not (tmp_path / "out").exists()

    def test_malformed_grid(self, tmp_path, capsys):
        cfg = identity_config(tmp_path, sweep={"axes": [[1]]})
        assert cli.main(["sweep", "--config", cfg, "--grid", "nope"]) == 1

    @pytest.mark.parametrize(
        "flags, prefix",
        [
            (["--grid=-1:1:0.5"], "--grid: "),
            (["--grid", "0:inf:1"], "--grid: "),
            (["--baseline", "-1"], "--baseline: "),
            (["--baseline", "nan"], "--baseline: "),
        ],
    )
    def test_negative_or_non_finite_omega_named(self, tmp_path, capsys, flags, prefix):
        cfg = identity_config(tmp_path, sweep={"axes": [[1]]})
        assert cli.main(["sweep", "--config", cfg, *flags]) == 1
        assert capsys.readouterr().err.startswith(prefix)
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_dag_sweep_matches_block_map(self, tmp_path, capsys):
        edges = [(0, 2), (0, 3), (1, 3), (2, 4), (2, 5), (3, 5)]
        cfg = write_config(
            tmp_path,
            {
                "system": {"generator": {"kind": "uniform", "k": 6, "d": 4, "seed": 3}},
                "network": {
                    "type": "dag",
                    "nodes": 6,
                    "edges": [{"from": u, "to": v} for u, v in edges],
                },
                "sweep": {"axes": [[4], [3, 5]]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        argv = ["sweep", "--config", cfg, "--grid", "0.5:2:0.5,0.5:2:0.5", "--baseline", "1.2"]
        assert cli.main(argv) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "omega_1,omega_2,rho"
        assert len(rows) - 1 == 4 * 4
        run = cli.load_config(cfg)
        basis = cf.row_space_basis(run.system)
        for row in rows[1:]:
            w1, w2, rho = (float(x) for x in row.split(","))
            omega = np.array([1.2, 1.2, 1.2, w2, w1, w2])
            bs = cf.dag_block_structure(run.system, run.network, sv.RelaxationAssignment(omega))
            assert rho == pytest.approx(cf.dag_restricted_rho(bs, basis), abs=1e-11)


class TestReproduceCommand:
    def test_unknown_id_lists_valid(self, tmp_path, capsys):
        assert cli.main(["reproduce", "tableX", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "table1" in err

    def test_dag_demo_bundle(self, tmp_path, capsys):
        assert (
            cli.main(["reproduce", "dag-demo", "--seed", "1", "--out", str(tmp_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert (tmp_path / "dag-demo" / "results.json").exists()


class TestConfigRoundTrip:
    def test_dump_reparses_identically(self, tmp_path, capsys):
        cfg = identity_config(tmp_path)
        assert cli.main(["config-dump", "--config", cfg]) == 0
        dumped = capsys.readouterr().out
        resolved = json.loads(dumped)
        second = write_config(tmp_path, resolved, name="resolved.json")
        assert cli.main(["config-dump", "--config", second]) == 0
        assert json.loads(capsys.readouterr().out) == resolved

    def test_complex_entries_roundtrip(self, tmp_path, capsys):
        payload = {
            "system": {"matrix": [[[0.0, 1.0], 1.0]], "rhs": [[1.0, -1.0]]},
            "network": {"type": "tree", "nodes": 1, "root": 0, "edges": []},
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["config-dump", "--config", cfg]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["system"]["matrix"][0][0] == [0.0, 1.0]
        assert resolved["system"]["rhs"][0] == [1.0, -1.0]

    def test_relaxation_groups_shared_omega(self, tmp_path, capsys):
        payload = {
            "system": {"generator": {"kind": "uniform", "k": 3, "d": 3, "seed": 9}},
            "network": {
                "type": "tree",
                "nodes": 3,
                "root": 0,
                "edges": [{"parent": 0, "child": 1}, {"parent": 0, "child": 2}],
            },
            "relaxation": {"default": 1.0, "groups": [{"nodes": [1, 2], "omega": 2.5}]},
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["config-dump", "--config", cfg]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["relaxation"]["omega"] == {"0": 1.0, "1": 2.5, "2": 2.5}

    def test_weights_resolved_to_uniform(self, tmp_path, capsys):
        payload = {
            "system": {"generator": {"kind": "uniform", "k": 3, "d": 2, "seed": 0}},
            "network": {
                "type": "tree",
                "nodes": 3,
                "root": 0,
                "edges": [{"parent": 0, "child": 1}, {"parent": 0, "child": 2}],
            },
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["config-dump", "--config", cfg]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert [e["w"] for e in resolved["network"]["edges"]] == [0.5, 0.5]


class TestSchemaErrors:
    def test_both_matrix_and_generator(self, tmp_path, capsys):
        payload = {
            "system": {
                "matrix": [[1.0]],
                "rhs": [1.0],
                "generator": {"kind": "uniform", "k": 1, "d": 1, "seed": 0},
            },
            "network": {"type": "tree", "nodes": 1, "root": 0, "edges": []},
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["solve", "--config", cfg]) == 1
        assert "config.system" in capsys.readouterr().err

    def test_node_count_mismatch(self, tmp_path, capsys):
        payload = {
            "system": {"matrix": [[1.0], [1.0]], "rhs": [1.0, 2.0]},
            "network": {"type": "tree", "nodes": 1, "root": 0, "edges": []},
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["solve", "--config", cfg]) == 1
        assert "config.network.nodes" in capsys.readouterr().err

    def test_bad_weight_sums_rejected(self, tmp_path, capsys):
        payload = {
            "system": {"matrix": [[1.0], [1.0], [1.0]], "rhs": [0.0, 0.0, 0.0]},
            "network": {
                "type": "tree",
                "nodes": 3,
                "root": 0,
                "edges": [
                    {"parent": 0, "child": 1, "w": 0.3},
                    {"parent": 0, "child": 2, "w": 0.6},
                ],
            },
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["solve", "--config", cfg]) == 1
        assert "config.network" in capsys.readouterr().err

    def test_ragged_matrix_named(self, tmp_path, capsys):
        payload = {
            "system": {"matrix": [[1.0, 2.0], [1.0]], "rhs": [0.0, 0.0]},
            "network": {"type": "tree", "nodes": 2, "root": 0, "edges": [{"parent": 0, "child": 1}]},
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["solve", "--config", cfg]) == 1
        assert "config.system.matrix[1]" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert cli.main(["solve", "--config", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize(
        "body", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf-8", "too-deeply-nested"]
    )
    def test_undecodable_config_named(self, tmp_path, capsys, body):
        path = tmp_path / "config.json"
        path.write_bytes(body)
        assert cli.main(["config-dump", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config: not valid JSON: ")

    def test_no_partial_report_on_divergence_path(self, tmp_path):
        # reports only ever appear under their final names
        cfg = identity_config(tmp_path)
        cli.main(["solve", "--config", cfg])
        names = os.listdir(tmp_path / "out")
        assert names == ["solve_report.json"]


def _tree_config():
    return {
        "system": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "rhs": [1.0, 2.0]},
        "network": {
            "type": "tree",
            "nodes": 2,
            "root": 0,
            "edges": [{"parent": 0, "child": 1, "w": 1.0}],
        },
        "relaxation": {"default": 1.0},
        "solver": {"max_iterations": 50, "step_tolerance": 1e-12},
    }


def _dag_config():
    return {
        "system": {"matrix": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "rhs": [1.0, 1.0, 2.0]},
        "network": {
            "type": "dag",
            "nodes": 3,
            "edges": [{"from": 0, "to": 2}, {"from": 1, "to": 2}],
        },
    }


def _generator(**fields):
    return {"generator": {"kind": "uniform", "k": 2, "d": 2, "seed": 0, **fields}}


def _set(*keys, value):
    """An edit that sets the field at ``keys`` of a config."""

    def edit(config):
        target = config
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return edit


MALFORMED = [
    # (id, base config, edit, command, path of the offending field)
    ("string-weight", _tree_config, _set("network", "edges", 0, "w", value="heavy"), "solve",
     "config.network.edges[0].w"),
    ("list-dag-weight", _dag_config, _set("network", "edges", 0, "wd", value=[1]), "solve",
     "config.network.edges[0].wd"),
    ("zero-row", _tree_config, _set("system", value={"matrix": [[0, 0]], "rhs": [1.0]}),
     "config-dump", "config.system"),
    ("empty-row", _tree_config, _set("system", value={"matrix": [[]], "rhs": [1.0]}),
     "config-dump", "config.system.matrix[0]"),
    ("nan-rhs", _tree_config, _set("system", "rhs", 0, value=float("nan")), "config-dump",
     "config.system.rhs[0]"),
    ("nan-near-orthogonal-epsilon", _tree_config,
     _set("system", value=_generator(kind="near-orthogonal", epsilon=float("nan"))),
     "config-dump", "config.system.generator.epsilon"),
    ("negative-k", _tree_config, _set("system", value=_generator(k=-1)), "config-dump",
     "config.system.generator.k"),
    ("negative-seed", _tree_config, _set("system", value=_generator(seed=-1)), "config-dump",
     "config.system.generator.seed"),
    ("boolean-k", _tree_config, _set("system", value=_generator(k=True)), "config-dump",
     "config.system.generator.k"),
    ("number-output-dir", _tree_config, _set("output", value={"dir": 5}), "solve",
     "config.output.dir"),
    ("boolean-root", _tree_config, _set("network", "root", value=False), "config-dump",
     "config.network.root"),
    ("boolean-edge-ends", _tree_config,
     _set("network", "edges", 0, value={"parent": False, "child": True}), "config-dump",
     "config.network.edges[0].parent"),
    ("boolean-default", _tree_config, _set("relaxation", "default", value=True), "config-dump",
     "config.relaxation.default"),
    ("boolean-scale", _tree_config, _set("relaxation", "scale", value=True), "config-dump",
     "config.relaxation.scale"),
    ("boolean-omega", _tree_config, _set("relaxation", "omega", value={"1": True}), "config-dump",
     "config.relaxation.omega.1"),
    *[
        (f"non-canonical-omega-key-{key!r}", _tree_config,
         _set("relaxation", "omega", value={key: 1.5}), "config-dump",
         f"config.relaxation.omega.{key}")
        for key in ("0_1", " 1", "1 ", "01", "+1", "-0", "1.0", "\u0661", "one")
    ],
    ("colliding-omega-keys", _tree_config,
     _set("relaxation", "omega", value={"1": 0.9, " 1": 0.3}), "config-dump",
     "config.relaxation.omega. 1"),
    ("boolean-max-iterations", _tree_config, _set("solver", "max_iterations", value=True),
     "config-dump", "config.solver.max_iterations"),
    ("nan-uniform-epsilon", _tree_config, _set("system", value=_generator(epsilon=float("nan"))),
     "config-dump", "config.system.generator.epsilon"),
    ("infinite-step-tolerance", _tree_config,
     _set("solver", "step_tolerance", value=float("inf")), "config-dump",
     "config.solver.step_tolerance"),
    ("overlapping-sweep-axes", _tree_config, _set("sweep", value={"axes": [[1], [0, 1]]}),
     "sweep", "config.sweep.axes[1]"),
    # rejected before the network builds any per-node table
    ("huge-node-count", _tree_config, _set("network", "nodes", value=10**9), "config-dump",
     "config.network.nodes"),
]


@pytest.mark.parametrize(
    "base, edit, command, field_path", [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_malformed_config_exits_one_naming_its_field(
    tmp_path, capsys, base, edit, command, field_path
):
    config = base()
    config["output"] = {"dir": str(tmp_path / "out")}
    edit(config)
    assert cli.main([command, "--config", write_config(tmp_path, config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{field_path}: ")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()

import json
import os

import numpy as np
import pytest

from distkaczmarz import cli
from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp


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
    @pytest.mark.parametrize(
        "initial, dtype", [([0.5, [2.0, 0.0]], np.float64), ([0.5, [2.0, 1.0]], np.complex128)]
    )
    def test_a_real_config_loads_as_a_real_system(self, tmp_path, initial, dtype):
        """Config numbers read as complex narrow when no imaginary part is nonzero."""
        solver = {"max_iterations": 50, "step_tolerance": 1e-12, "initial": initial}
        run = cli.load_config(identity_config(tmp_path, solver=solver))
        assert run.system.rows.dtype == run.system.rhs.dtype == np.float64
        assert run.solver.initial_estimate.dtype == dtype

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

    def test_leaf_bounds_come_from_the_admissibility_report(self, tmp_path, monkeypatch):
        # 40 leaves of one parent in one leaf group: the command resolves the
        # group once, inside check_admissibility, and takes no bound itself
        n = 42
        cfg = write_config(
            tmp_path,
            {
                "system": {"generator": {"kind": "uniform", "k": n, "d": 3, "seed": 5}},
                "network": {
                    "type": "tree",
                    "nodes": n,
                    "root": 0,
                    "edges": [{"parent": 0, "child": 1}]
                    + [{"parent": 1, "child": v} for v in range(2, n)],
                },
                "subnetworks": {"groups": [list(range(2, n))]},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        loaded, leaves = cli.load_config(cfg), range(2, n)
        group = set(leaves)
        bounds = {
            str(v): cf.admissible_upper_bound(loaded.system, loaded.network, group, v)
            for v in leaves
        }
        resolved = []
        resolve = cf.resolve_groups

        def counted(net, part):
            resolved.append(part)
            return resolve(net, part)

        def refused(*args):
            raise AssertionError("analyze took a per-leaf bound of its own")

        monkeypatch.setattr(cf, "resolve_groups", counted)
        monkeypatch.setattr(cli, "resolve_groups", counted, raising=False)
        monkeypatch.setattr(cf, "admissible_upper_bound", refused)
        assert cli.main(["analyze", "--config", cfg]) == 0
        assert len(resolved) == 1
        report = json.loads((tmp_path / "out" / "spectral_report.json").read_text())
        assert report["groups"][0]["leaf_bounds"] == bounds


    _COMPLEX_ROWS = np.random.default_rng(3).standard_normal((6, 3, 2)).round(3).tolist()

    @pytest.mark.parametrize(
        "system, relaxation, d",
        [
            ({"generator": {"kind": "uniform", "k": 6, "d": 4, "seed": 7}}, {}, 4),
            (
                {"matrix": _COMPLEX_ROWS, "rhs": [[1.0, -0.5]] * 6},
                {"default": 1.5, "omega": {"4": 0.5}},
                3,
            ),
        ],
        ids=["dag6", "complex"],
    )
    def test_a_dag_config_gets_the_report_of_a_tree_without_groups(
        self, tmp_path, system, relaxation, d
    ):
        """The figure DAG's report: every node under condition 1, no groups, the block map's split."""
        edges = [(0, 2), (0, 3), (1, 3), (2, 4), (2, 5), (3, 5)]
        cfg = write_config(
            tmp_path,
            {
                "system": system,
                "network": {
                    "type": "dag",
                    "nodes": 6,
                    "edges": [{"from": u, "to": v} for u, v in edges],
                },
                "relaxation": relaxation,
            },
        )
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
        report = json.loads((out / "spectral_report.json").read_text())
        assert list(report) == [
            "config", "admissible", "condition1", "groups", "rho_restricted", "eigenvalues",
            "unit_eigenvalue_count", "nullity", "dichotomy_holds",
        ]
        assert sorted(report["condition1"], key=int) == [str(v) for v in range(6)]
        assert report["groups"] == [] and report["dichotomy_holds"] is True
        loaded = cli.load_config(cfg)
        bs = cf.dag_block_structure(loaded.system, loaded.network, loaded.relaxation)
        rho = cf.dag_restricted_rho(bs, cf.row_space_basis(loaded.system))
        assert report["rho_restricted"] == rho < 1.0
        rows = (out / "eigenvalues.csv").read_text().splitlines()
        assert rows[0] == "re,im,modulus"
        assert len(rows) == 1 + len(report["eigenvalues"]) == 1 + 2 * d  # two minimal nodes

    @staticmethod
    def _network_one(tmp_path, groups, scale=1.0):
        return write_config(
            tmp_path,
            {
                "system": {"generator": {"kind": "uniform", "k": 5, "d": 5, "seed": 7}},
                "network": {
                    "type": "tree",
                    "nodes": 5,
                    "root": 0,
                    "edges": [
                        {"parent": u, "child": v} for u, v in [(0, 1), (0, 2), (1, 3), (1, 4)]
                    ],
                },
                "subnetworks": {"groups": groups},
                "relaxation": {"groups": [{"nodes": [3, 4], "omega": 3.0}], "scale": scale},
                "output": {"dir": str(tmp_path / "out")},
            },
        )

    def test_a_group_without_a_unique_gateway_exits_one(self, tmp_path, capsys):
        # leaf 2 hangs off the root and leaf 3 off node 1
        cfg = self._network_one(tmp_path, [[2, 3]])
        assert cli.main(["analyze", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "config.subnetworks: group 0 has no unique gateway"
        assert not (tmp_path / "out" / "spectral_report.json").exists()

    def test_a_scaled_assignment_is_also_judged_at_scale_one(self, tmp_path):
        cfg = self._network_one(tmp_path, [[3, 4]], scale=0.5)
        assert cli.main(["analyze", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "spectral_report.json").read_text())
        assert isinstance(report["unit_scale_admissible"], bool)
        assert "leaf_bounds" in report["groups"][0]
        assert report["partition_violations"] == [
            {"kind": "coverage", "detail": "leaf 2 is in no group"}
        ]

    def test_a_single_node_tree_has_no_partition_violation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "system": {"matrix": [[1.0, 2.0]], "rhs": [1.0]},
                "network": {"type": "tree", "nodes": 1, "root": 0, "edges": []},
                "subnetworks": {"groups": []},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["analyze", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "spectral_report.json").read_text())
        assert report["partition_violations"] == []
        assert report["admissible"] is True


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

    @pytest.mark.parametrize(
        "groups, path, message",
        [
            ([[3, 4], [4, 5]], "config.subnetworks.groups[1]", "node 4 is already on axis 0"),
            ([[3, 4], [5, 6], [1]], "config.subnetworks.groups", "expected one or two groups"),
        ],
        ids=["overlapping", "three-groups"],
    )
    def test_axes_derived_from_subnetworks_are_checked(self, tmp_path, capsys, groups, path, message):
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        cfg = write_config(
            tmp_path,
            {
                "system": {"generator": {"kind": "uniform", "k": 7, "d": 3, "seed": 1}},
                "network": {
                    "type": "tree",
                    "nodes": 7,
                    "root": 0,
                    "edges": [{"parent": u, "child": v} for u, v in edges],
                },
                "subnetworks": {"groups": groups},
                "output": {"dir": str(tmp_path / "out")},
            },
        )
        assert cli.main(["sweep", "--config", cfg, "--grid", "0.5:1.5:0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: ") and message in err
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
            (["--grid", "0:1e308:1e-308"], "--grid: "),
            (["--grid=-1:1:0.5", "--baseline", "-1"], "--baseline: "),
        ],
    )
    def test_negative_or_non_finite_omega_named(self, tmp_path, capsys, flags, prefix):
        cfg = identity_config(tmp_path, sweep={"axes": [[1]]})
        assert cli.main(["sweep", "--config", cfg, *flags]) == 1
        assert capsys.readouterr().err.startswith(prefix)
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_oversized_grid_named(self, tmp_path, capsys):
        cfg = identity_config(tmp_path, sweep={"axes": [[1]]})
        assert cli.main(["sweep", "--config", cfg, "--grid", "0:1e12:1"]) == 1
        assert capsys.readouterr().err.startswith("--grid: grid axis '0:1e12:1' has 1000000000001")
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


def test_a_loaded_network_is_validated_once(tmp_path, monkeypatch):
    """``load_config``, ``solve`` and ``tree_affine`` on one network share one ``validate_tree``."""
    calls = []

    def counting(net):
        calls.append(net)
        return validate(net)

    validate = tp.validate_tree
    for module in (tp, sv, cf, cli):  # every binding a route could call
        monkeypatch.setattr(module, "validate_tree", counting, raising=False)
    run = cli.load_config(identity_config(tmp_path))
    sv.solve(run.system, run.network, run.relaxation, run.solver)
    cf.tree_affine(run.system, run.network, run.relaxation)
    assert len(calls) == 1 and calls[0] is run.network


@pytest.mark.parametrize(
    "argv, name",
    [
        (["solve"], "solve_report.json"),
        (["analyze"], "spectral_report.json"),
        (["sweep", "--grid", "0.5:1.5:0.5"], "sweep.csv"),
    ],
)
def test_an_empty_output_dir_is_the_current_dir(tmp_path, monkeypatch, capsys, argv, name):
    """Every command writes into the current directory when ``output.dir`` is ``""``."""
    cfg = identity_config(tmp_path, sweep={"axes": [[1]]}, output={"dir": ""})
    monkeypatch.chdir(tmp_path)
    assert cli.main([argv[0], "--config", cfg, *argv[1:]]) == 0
    assert (tmp_path / name).is_file()
    assert capsys.readouterr().err == ""


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


def test_main_builds_the_parser_once_and_repeats_its_output(tmp_path, capsys):
    """Two in-process runs share one argument tree and write the same bundle and stdout."""
    cli.build_parser.cache_clear()
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(["reproduce", "table1", "--seed", "7", "--out", str(out)]) == 0
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1] and runs[0][1]
    assert cli.build_parser.cache_info().misses == 1


def test_analyze_reports_an_overflowing_map_with_exit_3(tmp_path, capsys):
    """A 1,500-deep chain at ω = 8 overflows its map: a message and exit 3, no traceback.

    ``analyze`` at ω = 8 and ``sweep`` over ω in {7, 8} on every node below
    the root each print one stderr line and write no report.
    """
    n = 1500
    cfg = write_config(
        tmp_path,
        {
            "system": {"generator": {"kind": "uniform", "k": n, "d": 3, "seed": 0}},
            "network": {
                "type": "tree",
                "nodes": n,
                "root": 0,
                "edges": [{"parent": v - 1, "child": v} for v in range(1, n)],
            },
            "relaxation": {"default": 8.0},
            "sweep": {"axes": [list(range(1, n))]},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    for argv, report in (
        (["analyze"], "spectral_report.json"),
        (["sweep", "--grid", "7:8:1"], "sweep.csv"),
    ):
        assert cli.main([*argv, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: the assembled pass map overflowed")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out" / report).exists()
    assert cli.main(["solve", "--config", cfg]) == 3


def test_analyze_reports_an_overflowing_group_with_exit_3(tmp_path, capsys):
    """A 40-node chain at ω = 1e8 with one group below the root: its group map overflows.

    The group norm of condition 2 is the first map formed, so the command
    names the overflow on one stderr line, exits 3 and writes no report.
    """
    n = 40
    cfg = write_config(
        tmp_path,
        {
            "system": {"generator": {"kind": "uniform", "k": n, "d": 1, "seed": 0}},
            "network": {
                "type": "tree",
                "nodes": n,
                "root": 0,
                "edges": [{"parent": v - 1, "child": v} for v in range(1, n)],
            },
            "subnetworks": {"groups": [list(range(1, n))]},
            "relaxation": {"default": 1e8},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert cli.main(["analyze", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("analyze: the group map at gateway 0 overflowed")
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "out" / "spectral_report.json").exists()


def _generated_networks():
    """The family's networks: a config ``network`` section, subnetworks and sweep axes each."""
    def tree(net):
        edges = [{"parent": u, "child": v} for (u, v) in sorted(net.edge_weight)]
        groups = [sorted(g) for g in tp.root_subtree_partition(net).groups]
        section = {"type": "tree", "nodes": net.node_count, "root": net.root, "edges": edges}
        return section, {"subnetworks": {"groups": groups}}, max(len(groups), 1)

    def dag(net):
        edges = [{"from": u, "to": v} for (u, v) in net.edges]
        section = {"type": "dag", "nodes": net.node_count, "edges": edges}
        return section, {"sweep": {"axes": [[net.node_count - 1]]}}, 1

    star = tp.TreeNetwork.from_edges(6, 0, [(0, v) for v in range(1, 6)])
    chain = tp.TreeNetwork.from_edges(40, 0, [(v - 1, v) for v in range(1, 40)])
    return {
        "binary7": tree(ex.binary7_network()),
        "chain40": tree(chain),
        "star6": tree(star),
        "one-node": tree(tp.TreeNetwork.from_edges(1, 0, [])),
        "figure-dag": dag(ex.figure_dag()),
        "random-dag": dag(ex.random_dag(5)),
    }


@pytest.mark.parametrize("network", list(_generated_networks()))
def test_every_command_on_generated_configs_exits_with_a_code(tmp_path, capsys, network):
    """solve, analyze, sweep and config-dump on 48 configs of one network end in exit 0 to 3.

    d in {1, 3}, real or ``[re, im]`` rows, default ω in {1e-300, 0.5,
    1.999, 2, 3.5, 1e8} and scale 1 or 0.5.  Warnings are errors here, so a
    leaked warning fails the run as a traceback would.
    """
    section, extra, axes = _generated_networks()[network]
    n = section["nodes"]
    grid = ",".join(["0.5:1.5:0.5"] * axes)
    failures = []
    for d in (1, 3):
        for complex_rows in (False, True):
            rng = np.random.default_rng(d)
            rows = rng.standard_normal((n, d, 2 if complex_rows else 1)).round(6)
            matrix = rows.tolist() if complex_rows else rows[..., 0].tolist()
            for omega in (1e-300, 0.5, 1.999, 2.0, 3.5, 1e8):
                for scale in (1.0, 0.5):
                    out = tmp_path / "out"
                    cfg = write_config(
                        tmp_path,
                        {
                            "system": {"matrix": matrix, "rhs": rng.standard_normal(n).tolist()},
                            "network": section,
                            "relaxation": {"default": omega, "scale": scale},
                            "solver": {"max_iterations": 20},
                            "output": {"dir": str(out)},
                            **extra,
                        },
                    )
                    for argv in (
                        ["solve", "--config", cfg],
                        ["analyze", "--config", cfg],
                        ["sweep", "--config", cfg, "--grid", grid],
                        ["config-dump", "--config", cfg],
                    ):
                        label = (argv[0], d, complex_rows, omega, scale)
                        try:
                            code = cli.main(argv)
                        except Exception as exc:  # a traceback, or a warning made an error
                            failures.append((label, repr(exc)))
                            continue
                        if code not in (0, 1, 2, 3):
                            failures.append((label, code))
    capsys.readouterr()
    assert failures == []

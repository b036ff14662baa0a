import json
import os

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import numerics as nm
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import DimensionError, DivergenceError


class TestGenerateSystem:
    def test_same_seed_identical(self):
        spec = ex.GeneratorSpec(kind="uniform", k=5, d=4, seed=77)
        a = ex.generate_system(spec)
        b = ex.generate_system(spec)
        assert np.array_equal(a.system.rows, b.system.rows)
        assert np.array_equal(a.system.rhs, b.system.rhs)
        assert a.regenerated_rows == 0

    def test_near_orthogonal_zero_epsilon_is_identity(self):
        spec = ex.GeneratorSpec(kind="near-orthogonal", k=4, d=4, seed=1, epsilon=0.0)
        system = ex.generate_system(spec).system
        assert np.allclose(system.rows.real, np.eye(4))

    def test_uniform_entries_in_range(self):
        for seed in range(1000):
            spec = ex.GeneratorSpec(kind="uniform", k=5, d=5, seed=seed)
            system = ex.generate_system(spec).system
            assert np.all(system.rows.real >= 0.0) and np.all(system.rows.real < 1.0)
            assert np.all(system.rhs.real >= 0.0) and np.all(system.rhs.real < 1.0)

    def test_near_orthogonal_requires_square(self):
        with pytest.raises(ValueError):
            ex.GeneratorSpec(kind="near-orthogonal", k=3, d=4, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ex.GeneratorSpec(kind="gaussian", k=3, d=3, seed=0)

    @pytest.mark.parametrize("kind", ["uniform", "near-orthogonal"])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"k": 0}, "k and d must be at least 1"),
            ({"d": 0}, "k and d must be at least 1"),
            ({"k": -1, "d": -1}, "k and d must be at least 1"),
            ({"seed": -1}, "seed must be nonnegative"),
            ({"epsilon": float("nan")}, "epsilon must be finite"),
            ({"epsilon": float("inf")}, "epsilon must be finite"),
        ],
    )
    def test_sizes_seed_and_epsilon_checked(self, kind, fields, message):
        # construction only: without the check, generate_system on d = 0 never returns
        with pytest.raises(ValueError, match=message):
            ex.GeneratorSpec(**{"kind": kind, "k": 3, "d": 3, "seed": 0, **fields})

    def test_spec_has_no_rng_name_field(self):
        with pytest.raises(TypeError):
            ex.GeneratorSpec(kind="uniform", k=1, d=1, seed=0, rng_name="other")


class TestRandomNetworks:
    def test_random_trees_are_valid(self):
        for seed in range(25):
            net = ex.random_tree(seed)
            assert tp.validate_tree(net) == []
            assert 2 <= net.node_count <= 10

    def test_random_dags_are_valid(self):
        for seed in range(25):
            net = ex.random_dag(seed)
            assert tp.validate_dag(net) == []
            assert len(net.minimal_nodes) <= 3

    def test_single_sink_dags_have_one_maximal_node(self):
        for seed in range(15):
            net = ex.random_dag(seed, single_sink=True)
            assert tp.validate_dag(net) == []
            assert len(net.maximal_nodes) == 1

    def test_rank_deficient_system(self):
        net = ex.random_tree(5, min_nodes=4)
        system = ex.random_tree_system(5, net, dim=3, rank_deficient=True)
        rank = np.linalg.matrix_rank(system.rows)
        assert rank < min(net.node_count, 3) or net.node_count > 3


class TestGrid:
    def test_single_point(self):
        assert ex.grid_from_spec("1.0:1.0:1.0") == [(1.0,)]

    def test_inclusive_endpoints(self):
        assert ex.grid_from_spec("0:2:0.5") == [(0.0,), (0.5,), (1.0,), (1.5,), (2.0,)]

    def test_two_axes_product_count(self):
        grid = ex.grid_from_spec("0:1:0.5,0:2:1")
        assert len(grid) == 3 * 3
        assert grid[0] == (0.0, 0.0)
        assert grid[-1] == (1.0, 2.0)

    def test_malformed(self):
        with pytest.raises(ValueError):
            ex.grid_from_spec("0:1")
        with pytest.raises(ValueError):
            ex.grid_from_spec("1:0:0.5")
        with pytest.raises(ValueError):
            ex.grid_from_spec("0:1:0.5", 2)

    @pytest.mark.parametrize("spec", ["0:inf:1", "-inf:0:1", "nan:1:1", "0:1:nan", "0:1:inf"])
    def test_non_finite_axis_malformed(self, spec):
        with pytest.raises(ValueError, match="malformed grid axis"):
            ex.grid_from_spec(spec)


class TestOmegaSweep:
    def test_single_node_curve_is_abs_one_minus_omega(self):
        system = sv.LinearSystem(rows=np.array([[1.0, 2.0]]), rhs=np.array([1.0]))
        net = tp.TreeNetwork.from_edges(1, 0, [])
        grid = [(w,) for w in np.arange(0.0, 2.01, 0.25)]
        result = ex.omega_sweep(system, net, grid, axes=[(0,)])
        for (w,), rho in zip(result.grid, result.rho):
            assert rho == pytest.approx(abs(1.0 - w), abs=1e-12)

    def test_zero_point_gives_unit_radius(self):
        net, _, axes = ex.network_one()
        system = ex.generate_system(ex.GeneratorSpec("uniform", 5, 5, seed=3)).system
        result = ex.omega_sweep(system, net, [(0.0, 0.0)], axes=axes)
        assert result.rho[0] == pytest.approx(1.0, abs=1e-10)

    def test_argmin_consistent(self):
        net, part, axes = ex.network_one()
        system = ex.generate_system(
            ex.GeneratorSpec("near-orthogonal", 5, 5, seed=11)
        ).system
        grid = ex.grid_from_spec("0.5:3.5:0.5,0.5:3.5:0.5")
        result = ex.omega_sweep(system, net, grid, axes=axes)
        assert result.min_rho == min(result.rho)
        assert result.grid[result.argmin_index] == result.argmin

    def test_identical_structures_identical_curves(self):
        net = ex.binary7_network()
        system = ex.generate_system(ex.GeneratorSpec("uniform", 7, 7, seed=5)).system
        grid = ex.grid_from_spec("0.5:2.5:0.5")
        a, b = ex.compare_structures(
            system, net, ex.binary7_leaf_partition(), ex.binary7_leaf_partition(), grid
        )
        assert a.rho == b.rho

    def test_grid_of_only_baseline_matches_baseline(self):
        net = ex.binary7_network()
        system = ex.generate_system(ex.GeneratorSpec("uniform", 7, 7, seed=6)).system
        a, b = ex.compare_structures(
            system, net, ex.binary7_leaf_partition(), ex.binary7_extended_partition(),
            [(1.5,)],
        )
        assert a.rho[0] == pytest.approx(a.baseline_rho, abs=1e-12)
        assert b.rho[0] == pytest.approx(b.baseline_rho, abs=1e-12)


    def test_dag_sweep_matches_block_map(self):
        net = ex.figure_dag()
        system = ex.random_dag_system(5, net, dim=4)
        grid = ex.grid_from_spec("0.5:2.5:0.5,0.5:2.5:0.5")
        result = ex.omega_sweep(system, net, grid, axes=[(4,), (5,)], baseline=1.2)
        basis = cf.row_space_basis(system)
        for (w4, w5), rho in zip(grid + [(1.2, 1.2)], result.rho + [result.baseline_rho]):
            omega = np.array([1.2, 1.2, 1.2, 1.2, w4, w5])
            bs = cf.dag_block_structure(system, net, sv.RelaxationAssignment(omega))
            assert rho == pytest.approx(cf.dag_restricted_rho(bs, basis), abs=1e-12)

    @pytest.mark.parametrize("kind", ["tree", "dag"])
    def test_validates_and_checks_the_basis_once(self, kind, monkeypatch):
        if kind == "tree":
            net, _, axes = ex.network_one()
            system = ex.generate_system(ex.GeneratorSpec("uniform", 5, 5, seed=2)).system
        else:
            net, axes = ex.figure_dag(), [(4,), (5,)]
            system = ex.random_dag_system(3, net, dim=4)
        calls = {"validate": 0, "basis": 0, "kernel": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(sv, "validate_tree", counting("validate", sv.validate_tree))
        monkeypatch.setattr(sv, "validate_dag", counting("validate", sv.validate_dag))
        checked = counting("basis", nm._checked_columns)
        for module in (nm, cf):
            monkeypatch.setattr(module, "_checked_columns", checked)
        monkeypatch.setattr(cf, "_Pass", counting("kernel", sv._Pass))
        grid = ex.grid_from_spec("0.1:4:0.1,0.1:4:0.1")
        assert len(grid) == 1600
        result = ex.omega_sweep(system, net, grid, axes=axes)
        assert len(result.rho) == 1600
        assert calls == {"validate": 1, "basis": 1, "kernel": 1}


class TestRestrictedRho:
    def test_negative_or_non_finite_omega_is_the_relaxation_error(self):
        net, _, _ = ex.network_one()
        system = ex.generate_system(ex.GeneratorSpec("uniform", 5, 5, seed=4)).system
        for bad in (-0.5, np.nan, np.inf):
            omega = np.full((5, 3), 1.0)
            omega[2, 1] = bad
            with pytest.raises(ValueError) as want:
                sv.RelaxationAssignment(omega[:, 1])
            with pytest.raises(ValueError) as got:
                ex.restricted_rho(system, net, omega)
            assert str(got.value) == str(want.value)

    def test_stack_shape_checked(self):
        net, _, _ = ex.network_one()
        system = ex.generate_system(ex.GeneratorSpec("uniform", 5, 5, seed=4)).system
        for shape in ((5,), (4, 3), (6, 3), (5, 0)):
            with pytest.raises(DimensionError):
                ex.restricted_rho(system, net, np.ones(shape))


class TestLimitStudy:
    def test_consistent_distances_vanish(self):
        net = ex.random_tree(201, max_nodes=6)
        system = ex.random_tree_system(202, net, dim=3, consistent=True)
        relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
        rows = ex.lsq_limit_study(system, net, relax, [0.5, 0.25])
        for row in rows:
            assert row.contractive
            assert row.distance <= 1e-9

    def test_scalar_two_equation_pattern(self):
        net = tp.TreeNetwork.from_edges(2, 0, [(0, 1, 1.0)])
        system = sv.LinearSystem(rows=np.array([[1.0], [1.0]]), rhs=np.array([0.0, 1.0]))
        relax = sv.RelaxationAssignment(np.array([1.0, 3.0]))
        rows = ex.lsq_limit_study(system, net, relax, [0.2, 0.1, 0.05])
        # the fixed points drift toward 0.75 as the scale shrinks
        assert rows[0].distance > rows[1].distance > rows[2].distance

    def test_monotone_on_random_inconsistent_trees(self):
        good = 0
        for seed in range(20):
            # more equations than unknowns keeps the instances inconsistent
            net = ex.random_tree(seed + 300, min_nodes=4, max_nodes=6)
            system = ex.random_tree_system(seed + 301, net, dim=3, consistent=False)
            relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
            rows = ex.lsq_limit_study(system, net, relax, [0.2, 0.1, 0.05])
            if all(r.contractive for r in rows):
                if rows[0].distance > rows[1].distance > rows[2].distance:
                    good += 1
        assert good >= 19


class TestReproduce:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            ex.reproduce("tableX", seed=0)

    def test_dag_demo_converges(self, tmp_path):
        bundle = ex.reproduce("dag-demo", seed=1, out_dir=str(tmp_path))
        assert all(a["passed"] for a in bundle["assertions"])
        path = tmp_path / "dag-demo" / "results.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["seed"] == 1
        assert payload["rng_name"] == ex.RNG_NAME

    def test_table1_structure_and_determinism(self, tmp_path):
        bundle = ex.reproduce("table1", seed=7, out_dir=str(tmp_path))
        again = ex.reproduce("table1", seed=7)
        assert bundle["csv"] == again["csv"]  # byte-identical CSV bodies
        csv_path = tmp_path / "table1" / "sweep_network_I.csv"
        body = csv_path.read_text()
        assert body.startswith("omega_1,omega_2,rho\n")
        assert body.endswith("\n")
        names = {a["name"] for a in bundle["assertions"]}
        assert any("optimal rho beats" in n for n in names)

    def test_residuals_at_the_rounding_floor_tie(self):
        bundle = ex.reproduce("table2", seed=0)
        (row,) = (r for r in bundle["rows"] if r["network"] == "II")
        assert max(row["error_optimal"], row["error_baseline"]) < ex.CONVERGED_RESIDUAL
        assert all(a["passed"] for a in bundle["assertions"])

    def test_figure_sweep_7node(self, tmp_path):
        bundle = ex.reproduce("figure-sweep-7node", seed=3, out_dir=str(tmp_path))
        assert (tmp_path / "figure-sweep-7node" / "sweep_leaf.csv").exists()
        assert (tmp_path / "figure-sweep-7node" / "sweep_extended.csv").exists()


class TestEngineAgreesWithSweep:
    def test_admissible_grid_points_do_not_diverge(self):
        net, part, axes = ex.network_one()
        system = ex.generate_system(
            ex.GeneratorSpec("near-orthogonal", 5, 5, seed=13)
        ).system
        grid = ex.grid_from_spec("0.5:2.5:1.0,0.5:2.5:1.0")
        result = ex.omega_sweep(system, net, grid, axes=axes)
        for point, rho in zip(result.grid, result.rho):
            if rho >= 1.0:
                continue
            omega = np.full(5, 1.5)
            for nodes, val in zip(axes, point):
                for v in nodes:
                    omega[v] = val
            report = sv.solve(
                system, net, sv.RelaxationAssignment(omega),
                sv.SolverConfig(max_iterations=4000, step_tolerance=1e-10),
            )
            assert report.converged

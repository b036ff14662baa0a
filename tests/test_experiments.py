import csv
import io
import json
import os
import tracemalloc

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


    @pytest.mark.parametrize(
        "axes, message",
        [
            ([(2,), (2, 3)], "sweep axis 1: node 2 is already on axis 0"),
            ([(3, 4), (2, 3)], "sweep axis 1: node 3 is already on axis 0"),
            ([(-1,), (3, 4)], "sweep axis 0: node -1 is not in 0..4"),
            ([(2,), ()], "sweep axis 1 drives no node"),
            ([(7,), (3, 4)], "sweep axis 0: node 7 is not in 0..4"),
            ([(2.0,), (3, 4)], "sweep axis 0: node 2.0 is not an integer node id"),
        ],
    )
    def test_bad_axes_name_the_axis_and_node(self, axes, message):
        net, _, _ = ex.network_one()
        system = ex.generate_system(ex.GeneratorSpec("uniform", 5, 5, seed=3)).system
        with pytest.raises(ValueError) as err:
            ex.omega_sweep(system, net, [(0.5, 1.0), (1.0, 1.5)], axes=axes)
        assert str(err.value) == message


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


def _leaf_desk():
    net, _, axes = ex.network_one()
    return ex.generate_system(ex.GeneratorSpec("uniform", 5, 5, seed=3)).system, net, axes


def _interior_desk():
    net = ex.binary7_network()
    axes = sorted(tuple(sorted(g)) for g in ex.binary7_extended_partition().groups)
    return ex.generate_system(ex.GeneratorSpec("uniform", 7, 7, seed=5)).system, net, axes


def _alternating_chain():
    """A 24-node chain with its even and its odd nodes as two axes of degree 12 each."""
    net = tp.TreeNetwork.from_edges(24, 0, [(i, i + 1) for i in range(23)])
    system = ex.random_tree_system(9, net, dim=2)
    return system, net, [tuple(range(0, 24, 2)), tuple(range(1, 24, 2))]


@pytest.fixture
def spies(monkeypatch):
    """Points per ``_Pass.affine`` call and matrices per ``_eigvals`` call of the sweep route."""
    calls = {"affine": [], "eigvals": []}
    affine, eigvals = sv._Pass.affine, cf._eigvals

    def spy_affine(kernel, omega):
        calls["affine"].append(omega.reshape(omega.shape[0], -1).shape[1])
        return affine(kernel, omega)

    def spy_eigvals(a):
        calls["eigvals"].append(a.shape[0])
        return eigvals(a)

    monkeypatch.setattr(sv._Pass, "affine", spy_affine)
    monkeypatch.setattr(cf, "_eigvals", spy_eigvals)
    return calls


class TestSweepRoutes:
    """A sweep pushes a small tensor grid when ``M^2 <= G`` and its maps interpolate within
    rounding, else every grid point."""

    @pytest.mark.parametrize("desk, points", [(_leaf_desk, 4), (_interior_desk, 9)])
    def test_desk_sweep_pushes_one_small_tensor_grid(self, desk, points, spies):
        system, net, axes = desk()
        grid = ex.grid_from_spec("0.2:8:0.2,0.2:8:0.2")
        result = ex.omega_sweep(system, net, grid, axes=axes)
        assert len(result.rho) == 1600
        assert spies["affine"] == [points]

    def test_large_grid_maps_fall_back_to_the_stack_route(self, spies):
        """An 8-node chain axis over the CLI default range: B at omega = 8 is near 7^8."""
        net = tp.TreeNetwork.from_edges(8, 0, [(i, i + 1) for i in range(7)])
        system = ex.generate_system(ex.GeneratorSpec("uniform", 8, 4, seed=1)).system
        grid = ex.grid_from_spec("0.05:8:0.05", 1)
        result = ex.omega_sweep(system, net, grid, axes=[tuple(range(8))])
        assert spies["affine"] == [9, 161]
        basis = cf.row_space_basis(system)
        for i in range(len(grid)):
            relax = sv.RelaxationAssignment(np.full(8, grid[i][0]))
            want = cf.spectral_radius_on_span(cf.tree_affine(system, net, relax).B, basis)
            assert abs(result.rho[i] - want) <= 1e-12 * max(1.0, want)

    def test_random_chain_stack_takes_the_stack_route(self, spies):
        net = tp.TreeNetwork.from_edges(200, 0, [(i, i + 1) for i in range(199)])
        system = ex.random_tree_system(4, net, dim=2)
        omega = np.random.default_rng(5).uniform(0.0, 2.0, size=(200, 1200))
        ex.restricted_rho(system, net, omega)
        step = cf.SWEEP_CHUNK_COLUMNS // 3
        assert sum(spies["affine"]) == 1200 and max(spies["affine"]) == step

    @pytest.mark.parametrize(
        "desk, route",
        [(_leaf_desk, "tensor"), (_interior_desk, "tensor"), (_alternating_chain, "stack")],
    )
    def test_default_grid_eigvals_calls_stay_within_one_chunk(self, desk, route, spies):
        system, net, axes = desk()
        grid = ex.grid_from_spec("0.05:8:0.05,0.05:8:0.05")
        result = ex.omega_sweep(system, net, grid, axes=axes)
        assert len(result.rho) == 25_600
        step = cf.SWEEP_CHUNK_COLUMNS // (system.ambient_dim + 1)
        assert sum(spies["eigvals"]) == 25_601 and max(spies["eigvals"]) == step
        assert (sum(spies["affine"]) == 25_601) == (route == "stack")

    @pytest.mark.parametrize("desk, points", [(_leaf_desk, 4), (_interior_desk, 9)])
    def test_tensor_route_materialises_no_weights_per_grid_point(self, desk, points):
        """Peak traced memory stays below one ``(G, M)`` float array, the output included."""
        system, net, axes = desk()
        grid = ex.grid_from_spec("0.05:8:0.05,0.05:8:0.05")
        omega = ex._omega_stack(net.node_count, axes, grid, 1.5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ex.restricted_rho(system, net, omega)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < omega.shape[1] * points * 8


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


def _csv_writer_form(result):
    """The CSV as ``csv.writer`` writes it, one list of formatted fields per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"omega_{i + 1}" for i in range(len(result.grid[0]))] + ["rho"])
    for pt, rho in zip(result.grid, result.rho):
        writer.writerow([f"{x:.10g}" for x in pt] + [f"{rho:.12g}"])
    return buf.getvalue()


AWKWARD = [1e-5, 0.1 + 0.2, 7.999999999, -0.0, 1.0, 123456789.123, 5e-324, 1e300]


@pytest.mark.parametrize("axes", [1, 2, 3])
def test_sweep_csv_matches_the_csv_writer_byte_for_byte(axes):
    rng = np.random.default_rng(axes)
    grid = [tuple(float(v) for v in rng.choice(AWKWARD, size=axes)) for _ in range(40)]
    rho = [AWKWARD[i % len(AWKWARD)] for i in range(39)] + [np.float64(0.1) * 3]
    result = ex.SweepResult(grid, rho, 0, 0.0, 0.0)
    assert ex.sweep_to_csv(result) == _csv_writer_form(result)

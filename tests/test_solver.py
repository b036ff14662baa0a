from unittest import mock

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import (
    DegenerateEquationError,
    DimensionError,
    DivergenceError,
    InvalidNetworkError,
)
from distkaczmarz.numerics import min_norm_solution


def chain(n):
    return tp.TreeNetwork.from_edges(n, 0, [(i, i + 1, 1.0) for i in range(n - 1)])


class TestLinearSystem:
    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateEquationError):
            sv.LinearSystem(rows=np.array([[1.0, 0.0], [0.0, 0.0]]), rhs=np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sv.LinearSystem(rows=np.eye(2), rhs=np.array([1.0]))

    def test_system_matrix_conjugates(self):
        rows = np.array([[1.0 + 2.0j, 0.0]])
        system = sv.LinearSystem(rows=rows, rhs=np.array([0.0 + 0j]))
        # (A x)_v = <x, a_v>
        x = np.array([1.0, 0.0])
        assert system.system_matrix() @ x == pytest.approx(np.vdot(rows[0], x))

    def test_keeps_read_only_copies(self):
        rows = np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0]])
        rhs = np.array([1.0 + 0.0j, 2.0])
        system = sv.LinearSystem(rows=rows, rhs=rhs)
        rows[0, 0] = 5.0
        rhs[1] = 7.0
        assert system.rows[0, 0] == 1.0 + 1.0j and system.rhs[1] == 2.0
        with pytest.raises(ValueError):
            system.rows[0, 0] = 5.0
        with pytest.raises(ValueError):
            system.rhs[0] = 5.0

    @pytest.mark.parametrize(
        "rows, rhs, dtype",
        [
            ([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 0.5], np.float64),
            ([[1, 2], [0, 1], [1, 1]], [1, 2, 0], np.float64),
            ([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0 + 0.0j]], [1.0, 2.0, 0.5 + 0.0j], np.float64),
            ([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0j]], [1.0, 2.0, 0.5], np.complex128),
            ([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 2.0j, 0.5], np.complex128),
        ],
        ids=["real", "integer", "complex128 of zero imaginary part", "complex rows", "complex rhs"],
    )
    def test_arithmetic_follows_the_data(self, rows, rhs, dtype):
        """A system with no nonzero imaginary part, and all built from it, is float64."""
        system = sv.LinearSystem(rows=np.array(rows), rhs=np.array(rhs))
        tree = tp.TreeNetwork.from_edges(3, 0, [(0, 1), (0, 2)])
        dag = tp.DagNetwork.from_cover_edges(3, [(0, 2), (1, 2)])
        relax = sv.RelaxationAssignment(np.array([1.0, 0.5, 1.5]))
        basis = cf.row_space_basis(system)
        it = cf.tree_affine(system, tree, relax)
        bs = cf.dag_block_structure(system, dag, relax)
        arrays = [system.rows, system.rhs, it.B, it.c, bs.aggregate.B, bs.aggregate.c, *basis]
        for res in (it.restriction(basis), bs.aggregate.restriction(basis, bs.s)):
            arrays += [res.q, res.Q, res.R]
        arrays += [cf.fixed_point(it, basis), *cf.dag_fixed_point(bs, basis)[0]]
        for route in ("affine", "engine"):
            with mock.patch.object(sv, "solve_route", lambda *size: route):
                arrays += [sv.solve(system, tree, relax).final_estimates]
                arrays += sv.solve(system, dag, relax).final_estimates
        assert [a.dtype for a in arrays] == [dtype] * len(arrays)

    def test_relaxation_keeps_read_only_copy(self):
        om = np.array([1.0, 1.5])
        relax = sv.RelaxationAssignment(om)
        om[0] = 5.0
        assert relax.omega[0] == 1.0
        with pytest.raises(ValueError):
            relax.omega[0] = 3.0

    def test_config_keeps_read_only_copy_of_its_start(self):
        start = np.array([1.0, 2.0])
        config = sv.SolverConfig(initial_estimate=start)
        start[0] = 9.0
        assert config.initial_estimate[0] == 1.0 and start.flags.writeable
        with pytest.raises(ValueError):
            config.initial_estimate[0] = 3.0


class TestRequireValid:
    def test_every_route_rejects_other_network_types(self):
        system = sv.LinearSystem(rows=np.eye(2), rhs=np.ones(2))
        relax = sv.RelaxationAssignment.uniform(2)
        part = tp.SubnetworkPartition.of([])
        groups = tp.SubnetworkPartition.of([{1}])
        tree_routes = [
            lambda net: sv.tree_iterate(system, net, relax, np.zeros(2)),
            lambda net: cf.tree_affine(system, net, relax),
            lambda net: cf.build_p_omega(system, net, part, relax),
            lambda net: cf.check_admissibility(system, net, groups, relax),
            lambda net: tp.resolve_groups(net, groups),
            lambda net: cf.weighted_ls_minimizer(system, net, relax),
        ]
        dag_routes = [
            lambda net: sv.dag_iterate(system, net, relax, [np.zeros(2)]),
            lambda net: cf.dag_block_p(system, net, relax),
        ]
        either_routes = [
            lambda net: sv.solve(system, net, relax),
            lambda net: ex.restricted_rho(system, net, np.ones((2, 1))),
            lambda net: cf.check_admissibility(system, net, part, relax),
            lambda net: cf.dag_block_structure(system, net, relax),
        ]
        for route in tree_routes + dag_routes + either_routes:
            with pytest.raises(TypeError):
                route({"nodes": 2})
        # a route for one network type names it when given the other
        dag = tp.DagNetwork.from_cover_edges(2, [(0, 1)])
        for routes, wrong, message in (
            (tree_routes, dag, "expected a TreeNetwork, got DagNetwork"),
            (dag_routes, chain(2), "expected a DagNetwork, got TreeNetwork"),
        ):
            for route in routes:
                with pytest.raises(TypeError, match=message):
                    route(wrong)
        # and a route for either type takes both
        for net in (chain(2), dag):
            for route in either_routes:
                route(net)

    @pytest.mark.parametrize("values", [1, 4])
    def test_every_route_rejects_a_wrong_length_assignment(self, values):
        system = sv.LinearSystem(rows=np.eye(3), rhs=np.ones(3))
        relax = sv.RelaxationAssignment.uniform(values)
        tree = tp.TreeNetwork.from_edges(3, 0, [(0, 1, 0.5), (0, 2, 0.5)])
        dag = tp.DagNetwork.from_cover_edges(3, [(0, 2), (1, 2)])
        part = tp.SubnetworkPartition.of([{1, 2}])
        routes = [
            lambda: sv.tree_iterate(system, tree, relax, np.zeros(3)),
            lambda: sv.solve(system, tree, relax),
            lambda: cf.tree_affine(system, tree, relax),
            lambda: cf.build_p_omega(system, tree, part, relax),
            lambda: cf.check_admissibility(system, tree, part, relax),
            lambda: cf.weighted_ls_minimizer(system, tree, relax),
            lambda: cf.group_operator(system, tree, {1, 2}, relax),
            lambda: cf.subnetwork_norm(system, tree, {1, 2}, relax),
            lambda: cf.leaf_norm_formula(system, tree, {1, 2}, relax),
            lambda: cf.path_sor_factors(system, [0, 1], relax),
            lambda: sv.dag_iterate(system, dag, relax, [np.zeros(3), np.zeros(3)]),
            lambda: sv.solve(system, dag, relax),
            lambda: cf.dag_block_p(system, dag, relax),
            lambda: cf.dag_block_structure(system, dag, relax),
        ]
        for route in routes:
            with pytest.raises(DimensionError, match=f"{values} relaxation values for 3 nodes"):
                route()

    def test_node_count_checked_for_both_network_types(self):
        system = sv.LinearSystem(rows=np.eye(2), rhs=np.ones(2))
        relax = sv.RelaxationAssignment.uniform(3)
        dag = tp.DagNetwork.from_cover_edges(3, [(0, 2), (1, 2)])
        for net in (chain(3), dag):
            with pytest.raises(DimensionError):
                sv.solve(system, net, relax)


class TestSingleUpdates:
    def test_point_on_hyperplane_fixed(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4)
        x = rng.standard_normal(4)
        x = x - (np.vdot(a, x) / np.vdot(a, a)) * a  # now a*x = 0
        for omega in (0.5, 1.0, 2.0, 3.7):
            assert np.allclose(sv.kaczmarz_update(x, a, 0.0, omega), x, atol=1e-12)

    def test_hand_example_unit_step(self):
        out = sv.kaczmarz_update(np.zeros(2), np.array([1.0, 1.0]), 4.0, 1.0)
        assert np.allclose(out, [2.0, 2.0])

    def test_hand_example_reflection(self):
        out = sv.kaczmarz_update(np.array([3.0, 4.0]), np.array([1.0, 0.0]), 2.0, 2.0)
        assert np.allclose(out, [1.0, 4.0])

    def test_projections(self):
        assert np.allclose(sv.project_null(np.array([3.0, 4.0]), np.array([1.0, 0.0])), [0.0, 4.0])
        assert np.allclose(
            sv.project_affine(np.array([3.0, 4.0]), np.array([1.0, 0.0]), 2.0), [2.0, 4.0]
        )

    def test_project_null_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            once = sv.project_null(x, a)
            assert np.allclose(sv.project_null(once, a), once, atol=1e-12)

    def test_relaxed_reduce_to_projections_at_one(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(3)
        x = rng.standard_normal(3)
        assert np.allclose(sv.relaxed_p(x, a, 1.0), sv.project_null(x, a))
        assert np.allclose(sv.relaxed_q(x, a, 2.0, 1.0), sv.project_affine(x, a, 2.0))

    def test_relaxed_identity_at_zero(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(3)
        x = rng.standard_normal(3)
        assert np.allclose(sv.relaxed_p(x, a, 0.0), x)
        assert np.allclose(sv.relaxed_q(x, a, 1.0, 0.0), x)

    def test_relaxed_p_hand_example(self):
        out = sv.relaxed_p(np.array([3.0, 4.0]), np.array([1.0, 0.0]), 2.0)
        assert np.allclose(out, [-3.0, 4.0])

    def test_offset_identity(self):
        # relaxed_q(x) - relaxed_p(x) = omega * (b / |a|^2) a
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b, omega = 1.7 - 0.3j, 1.9
            h = (b / np.vdot(a, a)) * a
            lhs = sv.relaxed_q(x, a, b, omega)
            rhs = sv.relaxed_p(x, a, omega) + omega * h
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_contraction_in_the_classical_range(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(4)
        for omega in (0.1, 0.5, 1.0, 1.5, 1.9):
            for _ in range(20):
                x = rng.standard_normal(4)
                out = sv.relaxed_p(x, a, omega)
                assert np.linalg.norm(out) <= np.linalg.norm(x) + 1e-12
                if abs(np.vdot(a, x)) > 1e-8:
                    assert np.linalg.norm(out) < np.linalg.norm(x)

    def test_zero_row_raises(self):
        with pytest.raises(DegenerateEquationError):
            sv.kaczmarz_update(np.zeros(2), np.zeros(2), 1.0, 1.0)


class TestTreeIterate:
    def test_two_node_identity_system_one_shot(self):
        net = chain(2)
        system = sv.LinearSystem(rows=np.eye(2), rhs=np.array([1.0, 1.0]))
        relax = sv.RelaxationAssignment.uniform(2, 1.0)
        out = sv.tree_iterate(system, net, relax, np.zeros(2))
        assert np.allclose(out, [1.0, 1.0], atol=1e-14)

    def test_zero_relaxation_is_identity(self):
        rng = np.random.default_rng(7)
        net = chain(3)
        system = sv.LinearSystem(rows=rng.standard_normal((3, 4)), rhs=rng.standard_normal(3))
        relax = sv.RelaxationAssignment.uniform(3, 0.0)
        x = rng.standard_normal(4)
        assert np.allclose(sv.tree_iterate(system, net, relax, x), x)

    def test_exact_solution_is_fixed_point(self):
        rng = np.random.default_rng(8)
        net = tp.TreeNetwork.from_edges(4, 0, [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 1.0)])
        rows = rng.standard_normal((4, 4))
        target = rng.standard_normal(4)
        system = sv.LinearSystem(rows=rows, rhs=rows @ target)
        relax = sv.RelaxationAssignment(np.array([1.0, 0.5, 1.5, 0.8]))
        assert np.allclose(sv.tree_iterate(system, net, relax, target), target, atol=1e-12)

    def test_invalid_network_raises(self):
        net = tp.TreeNetwork.from_edges(3, 0, [(0, 1, 0.3), (0, 2, 0.6)])
        system = sv.LinearSystem(rows=np.eye(3), rhs=np.zeros(3))
        with pytest.raises(InvalidNetworkError):
            sv.tree_iterate(system, net, sv.RelaxationAssignment.uniform(3, 1.0), np.zeros(3))


def simple_dag():
    """0, 1 minimal; 2 maximal; both disperse into node 2."""
    return tp.DagNetwork.from_cover_edges(3, [(0, 2, 0.25, 1.0), (1, 2, 0.75, 1.0)])


class TestDagIterate:
    def test_single_node_classical_step(self):
        net = tp.DagNetwork.from_cover_edges(1, [])
        a = np.array([2.0, 0.0])
        system = sv.LinearSystem(rows=a[None, :], rhs=np.array([3.0]))
        out = sv.dag_iterate(system, net, sv.RelaxationAssignment.uniform(1, 1.0), [np.zeros(2)])
        assert np.allclose(out[0], 3.0 * a / 4.0)

    def test_orthogonal_blocks_unchanged(self):
        rng = np.random.default_rng(9)
        net = simple_dag()
        rows = rng.standard_normal((3, 4))
        system = sv.LinearSystem(rows=rows, rhs=np.zeros(3))
        # v orthogonal to every row stays fixed at every node
        basis = np.linalg.svd(rows, full_matrices=True)[2]
        v = basis[-1]
        assert abs(rows @ v.conj()).max() < 1e-12
        out = sv.dag_iterate(system, net, sv.RelaxationAssignment.uniform(3, 1.3), [v, v])
        assert np.allclose(out[0], v, atol=1e-12)
        assert np.allclose(out[1], v, atol=1e-12)

    def test_hand_expanded_pass(self):
        rng = np.random.default_rng(10)
        net = simple_dag()
        rows = rng.standard_normal((3, 3))
        rhs = rng.standard_normal(3)
        system = sv.LinearSystem(rows=rows, rhs=rhs)
        relax = sv.RelaxationAssignment(np.array([1.0, 0.7, 1.2]))
        x0, x1 = rng.standard_normal(3), rng.standard_normal(3)
        got = sv.dag_iterate(system, net, relax, [x0, x1])
        # dispersion by hand
        y0 = sv.kaczmarz_update(x0, rows[0], rhs[0], 1.0)
        y1 = sv.kaczmarz_update(x1, rows[1], rhs[1], 0.7)
        z2 = 0.25 * y0 + 0.75 * y1
        y2 = sv.kaczmarz_update(z2, rows[2], rhs[2], 1.2)
        assert np.allclose(got[0], y2, atol=1e-12)
        assert np.allclose(got[1], y2, atol=1e-12)

    def test_block_count_checked(self):
        net = simple_dag()
        system = sv.LinearSystem(rows=np.eye(3), rhs=np.zeros(3))
        with pytest.raises(DimensionError):
            sv.dag_iterate(system, net, sv.RelaxationAssignment.uniform(3, 1.0), [np.zeros(3)])


class TestSolverConfig:
    @pytest.mark.parametrize("value", [2.5, True, False, "3", 0, -1, None])
    def test_max_iterations_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="max_iterations"):
            sv.SolverConfig(max_iterations=value)

    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1e-10, True, "1e-10", None])
    def test_step_tolerance_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="step_tolerance"):
            sv.SolverConfig(step_tolerance=value)

    def test_numpy_scalars_accepted(self):
        config = sv.SolverConfig(max_iterations=np.int64(5), step_tolerance=np.float64(1e-8))
        assert config.max_iterations == 5


class TestSolve:
    @pytest.mark.parametrize("length", [3, 5])
    def test_wrong_length_initial_estimate_named(self, length):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((3, 4))
        system = sv.LinearSystem(rows=rows, rhs=np.ones(3))
        config = sv.SolverConfig(initial_estimate=np.ones(length))
        relax = sv.RelaxationAssignment.uniform(3)
        for net in (chain(3), simple_dag()):
            with pytest.raises(DimensionError, match="length 4"):
                sv.solve(system, net, relax, config)
        blocks = sv.SolverConfig(initial_estimate=np.ones((2, length)))  # one per minimal node
        with pytest.raises(DimensionError, match="length 4"):
            sv.solve(system, simple_dag(), relax, blocks)

    def test_orthogonal_rows_converge_fast(self):
        net = chain(3)
        system = sv.LinearSystem(rows=np.eye(3), rhs=np.array([1.0, 2.0, 3.0]))
        report = sv.solve(
            system, net, sv.RelaxationAssignment.uniform(3, 1.0),
            sv.SolverConfig(max_iterations=10, step_tolerance=1e-12),
        )
        assert report.converged
        assert report.iterations_used <= 2
        assert np.allclose(report.final_estimates, [1.0, 2.0, 3.0], atol=1e-12)

    def test_divergence_detected(self):
        net = tp.TreeNetwork.from_edges(1, 0, [])
        system = sv.LinearSystem(rows=np.array([[1.0, 0.0]]), rhs=np.array([1.0]))
        with pytest.raises(DivergenceError) as err:
            sv.solve(system, net, sv.RelaxationAssignment.uniform(1, 5.0))
        assert err.value.last_iterate is not None

    def test_divergence_wins_over_a_step_under_tolerance(self):
        net = tp.TreeNetwork.from_edges(1, 0, [])
        system = sv.LinearSystem(rows=np.array([[1.0]]), rhs=np.array([1e13]))
        config = sv.SolverConfig(step_tolerance=1e300)  # every finite step is under it
        with pytest.raises(DivergenceError) as err:
            sv.solve(system, net, sv.RelaxationAssignment.uniform(1, 3.0), config)
        assert err.value.iteration == 1 and np.array_equal(err.value.last_iterate, [0.0])

    def test_zero_start_zero_rhs(self):
        net = chain(2)
        system = sv.LinearSystem(rows=np.array([[1.0, 1.0], [1.0, -1.0]]), rhs=np.zeros(2))
        report = sv.solve(system, net, sv.RelaxationAssignment.uniform(2, 1.0))
        assert report.converged
        assert report.iterations_used == 0
        assert report.step_norms == [] and report.residual_norms == []
        assert np.allclose(report.final_estimates, 0.0)

    def test_trace_lengths_match(self):
        rng = np.random.default_rng(11)
        net = chain(4)
        rows = rng.standard_normal((4, 3))
        system = sv.LinearSystem(rows=rows, rhs=rows @ rng.standard_normal(3))
        report = sv.solve(
            system, net, sv.RelaxationAssignment.uniform(4, 1.0),
            sv.SolverConfig(max_iterations=500, step_tolerance=1e-11),
        )
        assert len(report.step_norms) == report.iterations_used
        assert len(report.residual_norms) == report.iterations_used

    def test_minimal_norm_limits(self):
        rng = np.random.default_rng(12)
        for seed in range(6):
            local = np.random.default_rng(seed)
            n = int(local.integers(2, 6))
            net = chain(n)
            d = int(local.integers(2, 7))
            rows = local.standard_normal((n, d))
            system = sv.LinearSystem(rows=rows, rhs=rows.conj() @ local.standard_normal(d))
            report = sv.solve(
                system, net, sv.RelaxationAssignment.uniform(n, 1.0),
                sv.SolverConfig(max_iterations=20_000, step_tolerance=1e-13),
            )
            want = min_norm_solution(system.system_matrix(), system.rhs)
            assert np.allclose(report.final_estimates, want, atol=1e-7)

    def test_dag_solve_replicates_blocks(self):
        rng = np.random.default_rng(13)
        net = simple_dag()
        rows = rng.standard_normal((3, 3))
        system = sv.LinearSystem(rows=rows, rhs=rows @ rng.standard_normal(3))
        report = sv.solve(
            system, net, sv.RelaxationAssignment.uniform(3, 1.0),
            sv.SolverConfig(max_iterations=20_000, step_tolerance=1e-13),
        )
        assert report.converged
        want = min_norm_solution(system.system_matrix(), system.rhs)
        for block in report.final_estimates:
            assert np.allclose(block, want, atol=1e-7)


class TestObservedRate:
    @pytest.mark.parametrize("omega", [0.05, 0.3, 1.7, 1.95])
    def test_one_node_contracts_by_one_minus_omega(self, omega):
        net = tp.TreeNetwork.from_edges(1, 0, [])
        system = sv.LinearSystem(rows=np.array([[1.0, 2.0]]), rhs=np.array([1.0]))
        report = sv.solve(
            system, net, sv.RelaxationAssignment.uniform(1, omega), sv.SolverConfig(max_iterations=30)
        )
        assert report.observed_rate == pytest.approx(abs(1.0 - omega), rel=1e-11)

    def test_desk_tree_rate_is_the_restricted_rho(self):
        net = ex.binary7_network()
        system = ex.generate_system(ex.GeneratorSpec(kind="uniform", k=7, d=7, seed=3)).system
        relax = sv.RelaxationAssignment.uniform(7, 1.0)
        report = sv.solve(system, net, relax)
        rho = cf.restricted_rho(system, net, relax.effective()[:, None])[0]
        assert abs(report.observed_rate - rho) <= 1e-6

    def test_none_below_two_steps(self):
        assert sv.SolveReport(final_estimates=None, iterations_used=0).observed_rate is None
        one = sv.SolveReport(final_estimates=None, iterations_used=1, step_norms=[0.5])
        assert one.observed_rate is None
        two = sv.SolveReport(final_estimates=None, iterations_used=2, step_norms=[0.5, 0.25])
        assert two.observed_rate == 0.5

    def test_window_holds_the_last_ratios(self):
        steps = [1.0] * 5 + [0.5**k for k in range(sv.RATE_WINDOW + 1)]
        report = sv.SolveReport(final_estimates=None, iterations_used=len(steps), step_norms=steps)
        assert report.observed_rate == pytest.approx(0.5, rel=1e-15)

"""Block-matrix machinery of the DAG iteration and its limit behavior."""

import dataclasses
import time

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import DimensionError
from distkaczmarz.numerics import min_norm_solution, orthonormal_basis, orthonormal_complement

from oracles import layered_dag, pathwise_blocks, replicate


def stacked(blocks):
    return np.concatenate([np.asarray(b, dtype=complex) for b in blocks])


def asymmetric_dag():
    """Two maximal nodes pooled with different weights by the two minimal nodes."""
    return tp.DagNetwork.from_cover_edges(4, [(0, 2), (1, 2), (0, 3)])


class TestDagBlockP:
    def test_single_node(self):
        system = sv.LinearSystem(rows=np.array([[1.0, 0.0]]), rhs=np.array([2.0]))
        net = tp.DagNetwork.from_cover_edges(1, [])
        it = cf.dag_block_p(system, net, sv.RelaxationAssignment.uniform(1, 1.3))
        assert np.allclose(it.B, cf.relaxed_projection_matrix(system, 0, 1.3))

    def test_fixes_replicated_orthogonal_vectors(self):
        rng = np.random.default_rng(1)
        net = ex.random_dag(11)
        system = ex.random_dag_system(11, net, dim=net.node_count + 1)
        relax = sv.RelaxationAssignment.uniform(net.node_count, 1.2)
        it = cf.dag_block_p(system, net, relax)
        comp = orthonormal_complement(list(system.rows), system.ambient_dim)
        assert comp, "needs a nontrivial orthogonal complement"
        v = sum(rng.standard_normal() * q for q in comp)
        w = replicate(v, len(net.minimal_nodes))
        assert np.max(np.abs(it.B @ w - w)) < 1e-12

    def test_two_minimal_hand_expansion(self):
        rng = np.random.default_rng(2)
        net = tp.DagNetwork.from_cover_edges(3, [(0, 2, 0.25, 1.0), (1, 2, 0.75, 1.0)])
        rows = rng.standard_normal((3, 3))
        system = sv.LinearSystem(rows=rows, rhs=rng.standard_normal(3))
        relax = sv.RelaxationAssignment.uniform(3, 1.0)
        it = cf.dag_block_p(system, net, relax)
        p = [cf.relaxed_projection_matrix(system, v, 1.0) for v in range(3)]
        # both output blocks: 0.25 P2 P0 x0 + 0.75 P2 P1 x1
        want00 = 0.25 * p[2] @ p[0]
        want01 = 0.75 * p[2] @ p[1]
        n = 3
        for j in (0, 1):
            assert np.allclose(it.B[j * n : (j + 1) * n, 0:n], want00, atol=1e-12)
            assert np.allclose(it.B[j * n : (j + 1) * n, n : 2 * n], want01, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_engine(self, seed):
        net = ex.random_dag(seed)
        system = ex.random_dag_system(seed + 100, net, dim=4, consistent=False)
        rng = np.random.default_rng(seed + 200)
        relax = sv.RelaxationAssignment(rng.uniform(0.5, 1.5, net.node_count))
        it = cf.dag_block_p(system, net, relax)
        s = len(net.minimal_nodes)
        for _ in range(10):
            blocks = [rng.standard_normal(4) for _ in range(s)]
            want = stacked(sv.dag_iterate(system, net, relax, blocks))
            got = it.apply(stacked(blocks))
            assert np.linalg.norm(got - want) <= 1e-10 * (1.0 + np.linalg.norm(stacked(blocks)))

    def test_complex_system_matches_engine(self):
        rng = np.random.default_rng(21)
        net = ex.random_dag(21)
        rows = rng.standard_normal((net.node_count, 4)) + 1j * rng.standard_normal(
            (net.node_count, 4)
        )
        rhs = rng.standard_normal(net.node_count) + 1j * rng.standard_normal(net.node_count)
        system = sv.LinearSystem(rows=rows, rhs=rhs)
        relax = sv.RelaxationAssignment(rng.uniform(0.5, 1.5, net.node_count))
        it = cf.dag_block_p(system, net, relax)
        bs = cf.dag_block_structure(system, net, relax)
        s = len(net.minimal_nodes)
        for _ in range(5):
            blocks = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(s)]
            x = stacked(blocks)
            engine = stacked(sv.dag_iterate(system, net, relax, blocks))
            assert np.linalg.norm(it.apply(x) - engine) <= 1e-10 * (1 + np.linalg.norm(x))
            assert np.linalg.norm(bs.aggregate.apply(x) - engine) <= 1e-10 * (
                1 + np.linalg.norm(x)
            )

    def test_consistent_case_reference_form(self):
        # with an exact solution x', one iteration is x' - P (x' - x)
        net = asymmetric_dag()
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((4, 3))
        target = rng.standard_normal(3)
        system = sv.LinearSystem(rows=rows, rhs=rows @ target)
        relax = sv.RelaxationAssignment.uniform(4, 1.0)
        it = cf.dag_block_p(system, net, relax)
        xprime = replicate(target.astype(complex), 2)
        blocks = [rng.standard_normal(3) for _ in range(2)]
        x = stacked(blocks)
        want = xprime - it.B @ (xprime - x)
        got = it.apply(x)
        assert np.allclose(got, want, atol=1e-11)


class TestBlockInfinityNorm:
    def test_vector_blocks(self):
        v = np.array([3.0, 4.0, 0.0, 0.0])
        assert cf.block_infinity_norm(v, 2) == pytest.approx(5.0)
        assert cf.block_infinity_norm(np.zeros(0), 3) == 0.0  # as an empty basis gives rho 0

    def test_identity_matrix(self):
        assert cf.block_infinity_norm(np.eye(6), 2) == pytest.approx(1.0)

    def test_dimension_check(self):
        for m, block_size in ((np.ones(5), 2), (np.zeros(4), 0)):
            with pytest.raises(DimensionError):
                cf.block_infinity_norm(m, block_size)

    def test_upper_bound_dominates_samples(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6))
        upper = cf.block_infinity_norm(m, 2)
        lower = cf.sampled_block_norm_lower_bound(m, 2, samples=50, seed=5)
        assert lower <= upper + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_block_map_bound_at_most_one(self, seed):
        net = ex.random_dag(seed + 40)
        system = ex.random_dag_system(seed + 41, net, dim=4)
        relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
        it = cf.dag_block_p(system, net, relax)
        assert cf.block_infinity_norm(it.B, 4) <= 1.0 + 1e-12


class TestBlockStructure:
    def test_single_node_reduces_to_sor(self):
        system = sv.LinearSystem(rows=np.array([[2.0, 0.0]]), rhs=np.array([4.0]))
        net = tp.DagNetwork.from_cover_edges(1, [])
        relax = sv.RelaxationAssignment.uniform(1, 1.0)
        bs = cf.dag_block_structure(system, net, relax)
        it = cf.path_sor_factors(system, [0], relax).affine()
        assert np.allclose(bs.aggregate.B, it.B)
        assert np.allclose(bs.aggregate.c, it.c)

    def test_weight_rows_sum_to_one(self):
        for seed in range(10):
            net = ex.random_dag(seed + 60)
            system = ex.random_dag_system(seed + 61, net, dim=3)
            relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
            ref = pathwise_blocks(system, net, relax)
            assert np.allclose(ref.weights.sum(axis=1), 1.0, atol=1e-12)
            # every path starts at one minimal node, so the path-free masses
            # on the minimal nodes carry each row sum
            bs = cf.dag_block_structure(system, net, relax)
            assert np.allclose(bs.masses[:, list(net.minimal_nodes)].sum(axis=1), 1.0, atol=1e-12)

    def test_weight_diag_commutes_with_sor_factor(self):
        net = asymmetric_dag()
        system = ex.random_dag_system(7, net, dim=3)
        relax = sv.RelaxationAssignment.uniform(4, 1.1)
        ref = pathwise_blocks(system, net, relax)
        # blockwise: w[i, j] I commutes with (D_j + O_j L_j) exactly
        for i in range(len(ref.minimal_nodes)):
            for j, f in enumerate(ref.factors):
                m = f.D + f.Omega @ f.L
                w = ref.weights[i, j] * np.eye(m.shape[0])
                assert np.allclose(w @ m, m @ w, atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_triple_agreement(self, seed):
        net = ex.random_dag(seed + 80)
        system = ex.random_dag_system(seed + 81, net, dim=4, consistent=False)
        rng = np.random.default_rng(seed + 82)
        relax = sv.RelaxationAssignment(rng.uniform(0.6, 1.4, net.node_count))
        bs = cf.dag_block_structure(system, net, relax)
        ref = pathwise_blocks(system, net, relax)
        s = bs.s
        for _ in range(5):
            blocks = [rng.standard_normal(4) for _ in range(s)]
            x = stacked(blocks)
            engine = stacked(sv.dag_iterate(system, net, relax, blocks))
            pooled = stacked([row @ x + c for row, c in ref.per_minimal])
            aggregate = bs.aggregate.apply(x)
            assert np.linalg.norm(pooled - aggregate) <= 1e-11 * (1.0 + np.linalg.norm(x))
            assert np.linalg.norm(engine - aggregate) <= 1e-10 * (1.0 + np.linalg.norm(x))

    def test_aggregate_matches_pathwise_block_matrix(self):
        net = ex.random_dag(91)
        system = ex.random_dag_system(92, net, dim=3, consistent=False)
        relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
        bs = cf.dag_block_structure(system, net, relax)
        it = cf.dag_block_p(system, net, relax)
        assert np.max(np.abs(bs.aggregate.B - it.B)) < 1e-11
        assert np.max(np.abs(bs.aggregate.c - it.c)) < 1e-11


def varied_instance(seed):
    """Single- and multi-sink DAGs with real, complex or rank-2 rows and random relaxation."""
    rng = np.random.default_rng(seed)
    net = ex.random_dag(seed, single_sink=seed % 2 == 0, max_nodes=10)
    n = net.node_count
    kind = seed % 3
    if kind == 2:  # rank deficient: every row in one plane
        rows = rng.standard_normal((n, 2)) @ rng.standard_normal((2, 4))
    else:
        rows = rng.standard_normal((n, 4)) + kind * 1j * rng.standard_normal((n, 4))
    rhs = rng.standard_normal(n) + kind * 1j * rng.standard_normal(n)
    relax = sv.RelaxationAssignment(rng.uniform(0.5, 1.5, n))
    return net, sv.LinearSystem(rows=rows, rhs=rhs), relax, rng


class TestPathFreeRoute:
    """The kernel-based block structure against the paper's per-path forms."""

    SEEDS = range(300, 348)

    def test_block_map_and_masses_match_pathwise_oracle(self):
        for seed in self.SEEDS:
            net, system, relax, rng = varied_instance(seed)
            bs = cf.dag_block_structure(system, net, relax)
            ref = pathwise_blocks(system, net, relax)
            assert bs.masses is net.schedule.masses  # the network's, walked once
            assert np.max(np.abs(net.schedule.masses - ref.masses(net.node_count))) <= 1e-12
            x = rng.standard_normal(4 * bs.s) + 1j * rng.standard_normal(4 * bs.s)
            pooled = stacked([row @ x + c for row, c in ref.per_minimal])
            err = np.linalg.norm(bs.aggregate.apply(x) - pooled)
            assert err <= 1e-11 * (1.0 + np.linalg.norm(x))

    def test_condition_values_match_pathwise_oracle(self):
        for seed in self.SEEDS:
            net, system, relax, rng = varied_instance(seed)
            bs = cf.dag_block_structure(system, net, relax)
            ref = pathwise_blocks(system, net, relax)
            blocks = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(bs.s)]
            got = stacked(bs.condition_values(blocks))
            want = stacked(ref.condition_values(blocks))
            assert np.linalg.norm(got - want) <= 1e-12 * (1.0 + np.linalg.norm(stacked(blocks)))

    def test_ls_minimizer_matches_pathwise_oracle(self):
        for seed in self.SEEDS:
            net, system, relax, rng = varied_instance(seed)
            bs = cf.dag_block_structure(system, net, relax)
            ref = pathwise_blocks(system, net, relax)
            basis = cf.row_space_basis(system)
            c = rng.uniform(0.5, 2.0, net.node_count)
            got = stacked(cf.dag_ls_minimizer(bs, c, basis))
            want = stacked(ref.ls_minimizer(c, basis))
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_analysis_never_enumerates_paths(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the DAG analysis enumerated paths")

        for module in (tp, cf):
            for name in ("enumerate_dispersion_paths", "enumerate_updown_paths", "path_sor_factors"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        net, system, relax, _ = varied_instance(301)
        basis = cf.row_space_basis(system)
        bs = cf.dag_block_structure(system, net, relax)
        assert cf.dag_restricted_rho(bs, basis) < 1.0
        blocks, _ = cf.dag_fixed_point(bs, basis)
        bs.condition_values(blocks)
        cf.dag_ls_minimizer(bs, relax.omega, basis)

    def test_layered_dag_with_a_billion_paths(self):
        net = layered_dag(2, 30)  # 2 * 2**29 = 2**30 dispersion paths
        n = net.node_count
        rng = np.random.default_rng(30)
        system = sv.LinearSystem(rows=rng.standard_normal((n, 4)), rhs=rng.standard_normal(n))
        relax = sv.RelaxationAssignment(rng.uniform(0.5, 1.5, n))
        start = time.perf_counter()
        bs = cf.dag_block_structure(system, net, relax)
        basis = cf.row_space_basis(system)
        rho = cf.dag_restricted_rho(bs, basis)
        blocks, resid = cf.dag_fixed_point(bs, basis)
        ls = cf.dag_ls_minimizer(bs, relax.omega, basis)
        assert time.perf_counter() - start < 1.0
        assert rho < 1.0 and np.isfinite(resid) and len(ls) == bs.s == 2
        assert np.allclose(bs.masses[:, list(net.minimal_nodes)].sum(axis=1), 1.0, atol=1e-12)
        after = sv.dag_iterate(system, net, relax, blocks)
        assert np.linalg.norm(stacked(after) - stacked(blocks)) <= 1e-9

    def test_block_structure_is_frozen_and_path_free(self):
        net, system, relax, _ = varied_instance(302)
        bs = cf.dag_block_structure(system, net, relax)
        with pytest.raises(dataclasses.FrozenInstanceError):
            bs.block_size = 1
        with pytest.raises(ValueError):
            bs.aggregate.B[0, 0] = 7.0
        names = {f.name for f in dataclasses.fields(bs)}
        assert not names & {"paths", "weights", "factors", "path_affines", "per_minimal"}


class TestDagLimits:
    def test_consistent_fixed_point_replicates_exact_solution(self):
        net = ex.random_dag(101)
        rng = np.random.default_rng(101)
        rows = rng.standard_normal((net.node_count, 4))
        target = rng.standard_normal(4)
        system = sv.LinearSystem(rows=rows, rhs=rows @ target)
        relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
        bs = cf.dag_block_structure(system, net, relax)
        blocks, resid = cf.dag_fixed_point(bs, cf.row_space_basis(system))
        want = min_norm_solution(system.system_matrix(), system.rhs)
        for b in blocks:
            assert np.allclose(b, want, atol=1e-9)
        assert resid <= 1e-9

    def test_fixed_point_matches_long_engine_run(self):
        net = asymmetric_dag()
        system = ex.random_dag_system(103, net, dim=3, consistent=False)
        relax = sv.RelaxationAssignment.uniform(4, 1.0)
        bs = cf.dag_block_structure(system, net, relax)
        blocks, _ = cf.dag_fixed_point(bs, cf.row_space_basis(system))
        report = sv.solve(
            system, net, relax, sv.SolverConfig(max_iterations=30_000, step_tolerance=1e-14)
        )
        for got, want in zip(blocks, report.final_estimates):
            assert np.allclose(got, want, atol=1e-9)

    def test_condition_residual_vanishes_on_single_sink_dags(self):
        for seed in range(8):
            net = ex.random_dag(seed + 120, single_sink=True)
            system = ex.random_dag_system(seed + 121, net, dim=3, consistent=False)
            relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
            bs = cf.dag_block_structure(system, net, relax)
            blocks, resid = cf.dag_fixed_point(bs, cf.row_space_basis(system))
            assert resid <= 1e-9
            for b in blocks[1:]:  # consensus across minimal nodes
                assert np.allclose(b, blocks[0], atol=1e-9)

    def test_condition_residual_boundary_on_asymmetric_pooling(self):
        # When different minimal nodes pool the maximal estimates with
        # different weights, the limit has distinct blocks and the pooled
        # stationarity conditions hold only in the vanishing-relaxation
        # limit: the residual is O(scale), not zero.
        net = asymmetric_dag()
        system = ex.random_dag_system(131, net, dim=3, consistent=False)
        basis = cf.row_space_basis(system)
        resids = []
        for s in (1.0, 0.5, 0.25, 0.125):
            relax = sv.RelaxationAssignment.uniform(4, 1.0, scale=s)
            bs = cf.dag_block_structure(system, net, relax)
            blocks, resid = cf.dag_fixed_point(bs, basis)
            resids.append(resid)
        assert resids[0] > 1e-6  # genuinely nonzero at full relaxation
        for a, b in zip(resids, resids[1:]):
            assert b < a  # decays with the scale

    def test_ls_minimizer_consistent_replicates_on_single_sink(self):
        # with a single sink every path is pooled by every minimal node, so
        # the per-block normal matrices are definite on the row space and the
        # exact solution is the unique minimizer
        net = ex.random_dag(141, single_sink=True)
        rng = np.random.default_rng(141)
        rows = rng.standard_normal((net.node_count, 4))
        target = rng.standard_normal(4)
        system = sv.LinearSystem(rows=rows, rhs=rows @ target)
        relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
        bs = cf.dag_block_structure(system, net, relax)
        blocks = cf.dag_ls_minimizer(bs, np.ones(net.node_count), cf.row_space_basis(system))
        want = min_norm_solution(system.system_matrix(), system.rhs)
        for b in blocks:
            assert np.allclose(b, want, atol=1e-8)

    def test_ls_minimizer_consistent_reaches_functional_zero(self):
        # general DAGs may leave some rows unconstrained for a given block
        # (paths never pooled by it), so the minimizer need not be unique;
        # it must still drive the pooled functional to zero
        net = ex.random_dag(141)
        rng = np.random.default_rng(141)
        rows = rng.standard_normal((net.node_count, 4))
        target = rng.standard_normal(4)
        system = sv.LinearSystem(rows=rows, rhs=rows @ target)
        relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
        bs = cf.dag_block_structure(system, net, relax)
        blocks = cf.dag_ls_minimizer(bs, np.ones(net.node_count), cf.row_space_basis(system))
        ref = pathwise_blocks(system, net, relax)
        for i, b in enumerate(blocks):
            assert ref.ls_value(i, b) <= 1e-16

    def test_single_node_ls_reduces_to_tree_form(self):
        a = np.array([[1.0, 2.0]])
        system = sv.LinearSystem(rows=a, rhs=np.array([3.0]))
        dag = tp.DagNetwork.from_cover_edges(1, [])
        tree = tp.TreeNetwork.from_edges(1, 0, [])
        relax = sv.RelaxationAssignment.uniform(1, 1.0)
        bs = cf.dag_block_structure(system, dag, relax)
        got = cf.dag_ls_minimizer(bs, np.ones(1), cf.row_space_basis(system))[0]
        want = cf.weighted_ls_minimizer(system, tree, relax)
        assert np.allclose(got, want, atol=1e-10)

    def test_scaled_fixed_points_approach_ls_on_single_sink(self):
        for seed in range(5):
            net = ex.random_dag(seed + 150, single_sink=True)
            system = ex.random_dag_system(seed + 151, net, dim=3, consistent=False)
            basis = cf.row_space_basis(system)
            relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
            ls = cf.dag_ls_minimizer(
                cf.dag_block_structure(system, net, relax), np.ones(net.node_count), basis
            )
            dists = []
            for s in (0.2, 0.1, 0.05):
                bs = cf.dag_block_structure(system, net, relax.scaled(s))
                blocks, _ = cf.dag_fixed_point(bs, basis)
                dists.append(max(np.linalg.norm(b - l) for b, l in zip(blocks, ls)))
            assert dists[0] > dists[1] > dists[2]
            assert dists[1] <= 0.75 * dists[0]
            assert dists[2] <= 0.75 * dists[1]


class TestProjectionLimit:
    def test_homogeneous_iteration_projects_onto_consensus(self):
        # With zero right-hand side the iteration is linear; started inside
        # (replicated orthogonal) + (stacked row space) it converges to the
        # replicated orthogonal part.  The iteration budget comes from the
        # measured contraction rate on the stacked row space.
        for seed in range(8):
            net = ex.random_dag(seed + 160)
            n_nodes = net.node_count
            local = np.random.default_rng(seed + 162)
            rows = local.standard_normal((n_nodes, n_nodes + 1))
            system = sv.LinearSystem(rows=rows, rhs=np.zeros(n_nodes))
            relax = sv.RelaxationAssignment.uniform(n_nodes, 1.0)
            s = len(net.minimal_nodes)
            comp = orthonormal_complement(list(rows), n_nodes + 1)
            row_basis = orthonormal_basis(list(rows))
            assert comp  # dim = nodes + 1 guarantees a leftover direction
            v = sum(local.standard_normal() * q for q in comp)
            blocks = [
                v + sum(local.standard_normal() * q for q in row_basis) for _ in range(s)
            ]
            it = cf.dag_block_p(system, net, relax)
            bs = cf.dag_block_structure(system, net, relax)
            rho = cf.dag_restricted_rho(bs, row_basis)
            assert rho < 1.0
            budget = ex.iteration_budget(rho, target=1e-10, cap=200_000)
            x = stacked(blocks)
            power = it.B
            steps = budget
            while steps:  # apply B^budget by squaring
                if steps & 1:
                    x = power @ x
                steps >>= 1
                if steps:
                    power = power @ power
            want = replicate(v, s)
            assert np.linalg.norm(x - want) <= 1e-8 * (1 + np.linalg.norm(want))

    def test_power_contraction_on_consensus_complement(self):
        for seed in range(6):
            net = ex.random_dag(seed + 170)
            system = ex.random_dag_system(seed + 171, net, dim=4)
            relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
            it = cf.dag_block_p(system, net, relax)
            d = tp.minimal_distance_diameter(net)
            s = len(net.minimal_nodes)
            n = 4
            comp = orthonormal_complement(list(system.rows), n)
            rng = np.random.default_rng(seed + 172)
            power = np.linalg.matrix_power(it.B, d)
            for _ in range(20):
                z = rng.standard_normal(n * s) + 1j * rng.standard_normal(n * s)
                # remove the replicated-orthogonal component
                for q in comp:
                    w = replicate(q, s) / np.sqrt(s)
                    z = z - np.vdot(w, z) * w
                norm_in = cf.block_infinity_norm(z, n)
                norm_out = cf.block_infinity_norm(power @ z, n)
                assert norm_out < norm_in


class TestTreeIsTheOneBlockDag:
    """A tree's block map is its affine map, and every DAG analysis reads it bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "rows", [{}, {"complex_entries": True}, {"rank_deficient": True}],
        ids=["real", "complex", "rank-deficient"],
    )
    def test_dag_analyses_of_a_tree_are_the_tree_analyses(self, seed, rows):
        net = ex.random_tree(seed + 300, min_nodes=3)
        system = ex.random_tree_system(seed + 301, net, dim=3, consistent=False, **rows)
        omega = np.random.default_rng(seed + 302).uniform(0.3, 1.7, net.node_count)
        relax = sv.RelaxationAssignment(omega)
        basis = cf.row_space_basis(system)
        it = cf.tree_affine(system, net, relax)
        bs = cf.dag_block_structure(system, net, relax)
        assert bs.minimal_nodes == (net.root,) and bs.aggregate == it
        assert cf.dag_restricted_rho(bs, basis) == it.restriction(basis).rho < 1.0
        (block,), residual = cf.dag_fixed_point(bs, basis)
        assert np.array_equal(block, cf.fixed_point(it, basis))
        assert residual < 1e-12
        (target,) = cf.dag_ls_minimizer(bs, relax.omega, basis)
        assert np.array_equal(target, cf.weighted_ls_minimizer(system, net, relax))

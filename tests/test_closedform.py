import copy

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import ApplicabilityError, NonContractionError, PartitionError
from distkaczmarz.numerics import gram, min_norm_solution, orthonormal_basis, spectral_radius

from oracles import caterpillar, null_space_projector


def chain(n):
    return tp.TreeNetwork.from_edges(n, 0, [(i, i + 1, 1.0) for i in range(n - 1)])


def random_instance(seed, consistent=True, complex_entries=False):
    net = ex.random_tree(seed)
    system = ex.random_tree_system(
        seed + 1000, net, dim=int(np.random.default_rng(seed).integers(2, 7)),
        consistent=consistent, complex_entries=complex_entries,
    )
    rng = np.random.default_rng(seed + 2000)
    relax = sv.RelaxationAssignment(rng.uniform(0.4, 1.6, net.node_count))
    return net, system, relax


class TestPathSorFactors:
    def test_single_node_hand_example(self):
        system = sv.LinearSystem(rows=np.array([[1.0, 0.0]]), rhs=np.array([3.0]))
        relax = sv.RelaxationAssignment.uniform(1, 1.0)
        it = cf.path_sor_factors(system, [0], relax).affine()
        assert np.allclose(it.B, np.diag([0.0, 1.0]))
        assert np.allclose(it.c, [3.0, 0.0])

    def test_orthogonal_rows_have_zero_coupling(self):
        system = sv.LinearSystem(rows=np.eye(2), rhs=np.array([1.0, 2.0]))
        relax = sv.RelaxationAssignment.uniform(2, 1.3)
        factors = cf.path_sor_factors(system, [0, 1], relax)
        assert np.allclose(factors.L, 0.0)

    def test_chain_matches_engine_on_random_inputs(self):
        rng = np.random.default_rng(51)
        rows = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        rhs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        system = sv.LinearSystem(rows=rows, rhs=rhs)
        relax = sv.RelaxationAssignment(np.array([0.9, 1.7, 0.4]))
        factors = cf.path_sor_factors(system, [0, 1, 2], relax)
        it = factors.affine()
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            direct = x.astype(complex)
            for v in (0, 1, 2):
                direct = sv.relaxed_q(direct, rows[v], rhs[v], relax.omega[v])
            assert np.allclose(it.apply(x), direct, atol=1e-11)
            # and through the coefficient identity chain(x) = x + A* c
            coeff = factors.solve_coefficients(x)
            assert np.allclose(x + factors.A_path.conj().T @ coeff, direct, atol=1e-11)


class TestTreeAffine:
    def test_single_node(self):
        system = sv.LinearSystem(rows=np.array([[1.0, 0.0]]), rhs=np.array([3.0]))
        net = tp.TreeNetwork.from_edges(1, 0, [])
        it = cf.tree_affine(system, net, sv.RelaxationAssignment.uniform(1, 1.0))
        assert np.allclose(it.B, np.diag([0.0, 1.0]))
        assert np.allclose(it.c, [3.0, 0.0])

    def test_affine_iteration_keeps_read_only_copies(self):
        b, c = np.eye(2, dtype=complex), np.ones(2, dtype=complex)
        it = cf.AffineIteration(B=b, c=c)
        b[0, 0] = 7.0
        assert it.B[0, 0] == 1.0
        with pytest.raises(ValueError):
            it.B[0, 0] = 7.0
        with pytest.raises(ValueError):
            it.c[0] = 7.0

    def test_zero_relaxation_gives_identity(self):
        rng = np.random.default_rng(52)
        net = ex.random_tree(52)
        system = ex.random_tree_system(152, net, dim=4)
        it = cf.tree_affine(system, net, sv.RelaxationAssignment.uniform(net.node_count, 0.0))
        assert np.allclose(it.B, np.eye(4))
        assert np.allclose(it.c, 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_engine(self, seed):
        net, system, relax = random_instance(seed, complex_entries=seed % 2 == 1)
        it = cf.tree_affine(system, net, relax)
        # the paper's form: leaf-weighted sum of the path SOR maps
        d = system.ambient_dim
        sor_b = np.zeros((d, d), dtype=complex)
        sor_c = np.zeros(d, dtype=complex)
        for leaf in net.leaves():
            path = cf.path_sor_factors(system, net.path_from_root(leaf), relax).affine()
            w = tp.path_weight(net, net.root, leaf)
            sor_b += w * path.B
            sor_c += w * path.c
        sor = cf.AffineIteration(B=sor_b, c=sor_c)
        rng = np.random.default_rng(seed + 3000)
        for _ in range(20):
            x = rng.standard_normal(system.ambient_dim) + 1j * rng.standard_normal(
                system.ambient_dim
            )
            want = sv.tree_iterate(system, net, relax, x)
            got = it.apply(x)
            assert np.linalg.norm(got - want) <= 1e-10 * (1.0 + np.linalg.norm(x))
            assert np.linalg.norm(sor.apply(x) - want) <= 1e-10 * (1.0 + np.linalg.norm(x))


class TestProductForm:
    def test_star_tree_leaf_partition_closed_form(self):
        # all-leaf star: the product form collapses to I - sum w o a a* / |a|^2
        rng = np.random.default_rng(53)
        rows = rng.standard_normal((4, 3))
        system = sv.LinearSystem(rows=rows, rhs=rng.standard_normal(4))
        net = tp.TreeNetwork.from_edges(4, 0, [(0, 1, 0.2), (0, 2, 0.3), (0, 3, 0.5)])
        omega = np.array([1.0, 1.1, 0.8, 1.9])
        relax = sv.RelaxationAssignment(omega)
        part = tp.SubnetworkPartition.of([{1, 2, 3}])
        got = cf.build_p_omega(system, net, part, relax)
        expect = np.eye(3, dtype=complex)
        p_root = cf.relaxed_projection_matrix(system, 0, 1.0)
        inner = np.zeros((3, 3), dtype=complex)
        for leaf, w in zip((1, 2, 3), (0.2, 0.3, 0.5)):
            a = rows[leaf]
            inner += w * (
                np.eye(3) - (omega[leaf] / np.vdot(a, a).real) * np.outer(a, a.conj())
            )
        assert np.allclose(got, inner @ p_root, atol=1e-12)

    def test_single_node_tree_is_the_root_projection(self):
        # the root is the only leaf and joins no group
        net = tp.TreeNetwork.from_edges(1, 0, [])
        system = sv.LinearSystem(rows=np.array([[1.0, 2.0j, -1.0]]), rhs=np.array([0.5]))
        relax = sv.RelaxationAssignment(np.array([1.3]))
        p = cf.build_p_omega(system, net, tp.SubnetworkPartition.of([]), relax)
        assert np.max(np.abs(p - cf.tree_affine(system, net, relax).B)) <= 1e-14

    @pytest.mark.parametrize(
        "groups",
        [
            [{3, 4}],  # leaves 5 and 6 in no group
            [{3, 4}, {4}, {5, 6}],  # leaf 4 in two groups
            [{1, 3, 4}, {1}, {2, 5, 6}],  # every leaf once, interior node 1 twice
        ],
    )
    def test_groups_must_be_disjoint_and_cover_every_leaf(self, groups):
        net = ex.binary7_network()
        system = ex.random_tree_system(8, net, dim=3)
        relax = sv.RelaxationAssignment.uniform(7)
        part = tp.SubnetworkPartition.of(groups)
        assert len(tp.resolve_groups(net, part)) == len(groups)
        with pytest.raises(PartitionError, match="groups must cover every leaf exactly once"):
            cf.build_p_omega(system, net, part, relax)

    def test_identity_at_zero_relaxation(self):
        net, system, _ = random_instance(3)
        part = tp.root_subtree_partition(net)
        relax = sv.RelaxationAssignment.uniform(net.node_count, 0.0)
        p = cf.build_p_omega(system, net, part, relax)
        assert np.allclose(p, np.eye(system.ambient_dim), atol=1e-13)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_sor_form(self, seed):
        net, system, relax = random_instance(seed)
        part = tp.root_subtree_partition(net)
        b = cf.tree_affine(system, net, relax).B
        p = cf.build_p_omega(system, net, part, relax)
        assert np.max(np.abs(b - p)) <= 1e-11

    def test_seven_node_extended_partition(self):
        net = ex.binary7_network()
        system = ex.random_tree_system(99, net, dim=5)
        relax = sv.RelaxationAssignment(np.random.default_rng(99).uniform(0.5, 1.5, 7))
        for part in (ex.binary7_leaf_partition(), ex.binary7_extended_partition()):
            b = cf.tree_affine(system, net, relax).B
            p = cf.build_p_omega(system, net, part, relax)
            assert np.max(np.abs(b - p)) <= 1e-11

    def test_forest_group_with_subtree_and_leaf_tops(self):
        # one group holding a subtree {2, 4, 5} and a bare leaf {3}, both
        # hanging off gateway 1: a forest with two component tops
        net = tp.TreeNetwork.from_edges(
            6, 0, [(0, 1, 1.0), (1, 2, 0.6), (1, 3, 0.4), (2, 4, 0.5), (2, 5, 0.5)]
        )
        rng = np.random.default_rng(77)
        system = sv.LinearSystem(rows=rng.standard_normal((6, 4)), rhs=rng.standard_normal(6))
        relax = sv.RelaxationAssignment(rng.uniform(0.5, 1.8, 6))
        part = tp.SubnetworkPartition.of([{2, 3, 4, 5}])
        assert tp.validate_subnetworks(net, part) == []
        group = tp.resolve_groups(net, part)[0]
        assert group.gateway == 1
        assert group.tops == (2, 3)
        b = cf.tree_affine(system, net, relax).B
        p = cf.build_p_omega(system, net, part, relax)
        assert np.max(np.abs(b - p)) <= 1e-12

    def test_the_group_walk_builds_each_member_projection_once(self, monkeypatch):
        # 1,201-node caterpillar, root-subtree partition: rebuilding every
        # leaf's chain from its top builds 180,900 projections for 1,200 members
        net = caterpillar(1201)
        system = ex.random_tree_system(3, net, dim=2)
        relax = sv.RelaxationAssignment.uniform(1201, 1.0)
        built = []
        project = cf.relaxed_projection_matrix

        def counted(sys_, v, omega):
            built.append(v)
            return project(sys_, v, omega)

        monkeypatch.setattr(cf, "relaxed_projection_matrix", counted)
        for group in tp.root_subtree_partition(net).groups:
            cf.group_operator(system, net, group, relax)
        assert sorted(built) == list(range(1, 1201))

    def test_scaled_engine_matches_scaled_affine(self):
        net, system, relax = random_instance(17)
        scaled = relax.scaled(0.5)
        it = cf.tree_affine(system, net, scaled)
        rng = np.random.default_rng(18)
        for _ in range(10):
            x = rng.standard_normal(system.ambient_dim)
            want = sv.tree_iterate(system, net, scaled, x)
            assert np.allclose(it.apply(x), want, atol=1e-11)


class TestSubnetworkNorms:
    def test_zero_relaxation_identity_norm(self):
        net = ex.binary7_network()
        system = ex.random_tree_system(7, net, dim=4)
        relax = sv.RelaxationAssignment.uniform(7, 0.0)
        assert cf.subnetwork_norm(system, net, {3, 4}, relax) == pytest.approx(1.0)

    def test_single_leaf_norm_is_abs_one_minus_omega(self):
        net = ex.network_two()[0]
        system = ex.random_tree_system(8, net, dim=4)
        for omega in (0.5, 1.0, 1.5, 2.5):
            om = np.ones(5)
            om[3] = omega
            val = cf.subnetwork_norm(system, net, {3}, sv.RelaxationAssignment(om))
            assert val == pytest.approx(abs(1.0 - omega), abs=1e-10)

    def test_orthonormal_pair_vanishes_at_two(self):
        net = tp.TreeNetwork.from_edges(3, 0, [(0, 1, 0.5), (0, 2, 0.5)])
        system = sv.LinearSystem(rows=np.eye(3)[:, :3], rhs=np.zeros(3))
        om = np.array([1.0, 2.0, 2.0])
        val = cf.subnetwork_norm(system, net, {1, 2}, sv.RelaxationAssignment(om))
        assert val == pytest.approx(0.0, abs=1e-10)
        formula = cf.leaf_norm_formula(system, net, {1, 2}, sv.RelaxationAssignment(om))
        assert formula == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_gram_formula_matches_direct_norm(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(2, 5))
        d = int(rng.integers(t, 9))
        rows = np.vstack([rng.standard_normal((1, d)), rng.standard_normal((t, d))])
        system = sv.LinearSystem(rows=rows, rhs=rng.standard_normal(t + 1))
        w = rng.uniform(0.2, 1.0, t)
        w /= w.sum()
        net = tp.TreeNetwork.from_edges(
            t + 1, 0, [(0, leaf, w[leaf - 1]) for leaf in range(1, t + 1)]
        )
        omega = np.concatenate(([1.0], rng.uniform(0.1, 3.0, t)))
        relax = sv.RelaxationAssignment(omega)
        group = set(range(1, t + 1))
        direct = cf.subnetwork_norm(system, net, group, relax)
        formula = cf.leaf_norm_formula(system, net, group, relax)
        assert abs(direct - formula) <= 1e-9

    def test_formula_rejects_non_leaf_group(self):
        net = ex.binary7_network()
        system = ex.random_tree_system(5, net, dim=4)
        with pytest.raises(ApplicabilityError):
            cf.leaf_norm_formula(system, net, {1, 3, 4}, sv.RelaxationAssignment.uniform(7, 1.0))


class TestUpperBound:
    def test_orthonormal_uniform_weights_give_twice_count(self):
        net = tp.TreeNetwork.from_edges(3, 0, [(0, 1, 0.5), (0, 2, 0.5)])
        system = sv.LinearSystem(rows=np.eye(3), rhs=np.zeros(3))
        for leaf in (1, 2):
            assert cf.admissible_upper_bound(system, net, {1, 2}, leaf) == pytest.approx(4.0)

    def test_single_unit_leaf_recovers_two(self):
        net = tp.TreeNetwork.from_edges(2, 0, [(0, 1, 1.0)])
        system = sv.LinearSystem(rows=np.array([[1.0, 1.0], [1.0, 0.0]]), rhs=np.zeros(2))
        assert cf.admissible_upper_bound(system, net, {1}, 1) == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_sampling_inside_bound_contracts(self, seed):
        rng = np.random.default_rng(seed + 500)
        t = int(rng.integers(2, 5))
        d = t + int(rng.integers(0, 3))
        rows = np.vstack([rng.standard_normal((1, d)), rng.standard_normal((t, d))])
        system = sv.LinearSystem(rows=rows, rhs=rng.standard_normal(t + 1))
        net = tp.TreeNetwork.from_edges(
            t + 1, 0, [(0, leaf, 1.0 / t) for leaf in range(1, t + 1)]
        )
        group = set(range(1, t + 1))
        omega = np.ones(t + 1)
        for leaf in group:
            bound = cf.admissible_upper_bound(system, net, group, leaf)
            omega[leaf] = rng.uniform(0.01, 0.99) * bound
        val = cf.leaf_norm_formula(system, net, group, sv.RelaxationAssignment(omega))
        assert val < 1.0

    @pytest.mark.parametrize("entries", ["real", "complex", "rank-deficient"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_gram_spectral_radius(self, entries, seed):
        rng = np.random.default_rng(seed + 900)
        leaves, d = int(rng.integers(2, 40)), int(rng.integers(1, 8))
        rows = rng.standard_normal((leaves + 1, d))
        if entries == "complex":
            rows = rows + 1j * rng.standard_normal((leaves + 1, d))
        if entries == "rank-deficient":  # leaf rows drawn from a span of at most 2 vectors
            r = min(d, 2)
            rows[1:] = rng.standard_normal((leaves, r)) @ rng.standard_normal((r, d))
        system = sv.LinearSystem(rows=rows, rhs=np.zeros(leaves + 1))
        weights = rng.uniform(0.1, 1.0, leaves)
        net = tp.TreeNetwork.from_edges(
            leaves + 1, 0, [(0, v + 1, w / weights.sum()) for v, w in enumerate(weights)]
        )
        group = set(range(1, leaves + 1))
        rho = spectral_radius(gram([system.rows[v] for v in sorted(group)]))
        for leaf in group:
            nrm2 = float(np.vdot(system.rows[leaf], system.rows[leaf]).real)
            expected = 2.0 * nrm2 / (tp.path_weight(net, 0, leaf) * rho)
            bound = cf.admissible_upper_bound(system, net, group, leaf)
            assert bound == pytest.approx(expected, rel=1e-12)

    def test_a_leaf_group_takes_one_stacked_rows_norm(self, monkeypatch):
        leaves, d = 50, 3
        net = tp.TreeNetwork.from_edges(leaves + 1, 0, [(0, v) for v in range(1, leaves + 1)])
        system = ex.random_tree_system(9, net, dim=d, complex_entries=True)
        group = set(range(1, leaves + 1))
        want = {v: cf.admissible_upper_bound(system, net, group, v) for v in sorted(group)}
        stacked = []
        norm = np.linalg.norm

        def counted(x, *args, **kwargs):
            if np.shape(x) == (leaves, d):
                stacked.append(args)
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        part, relax = tp.SubnetworkPartition.of([group]), sv.RelaxationAssignment.uniform(leaves + 1)
        report = cf.check_admissibility(system, net, part, relax)
        assert len(stacked) == 1
        assert list(report.groups[0].leaf_bounds.items()) == list(want.items())


class TestAdmissibility:
    def test_unit_relaxation_admissible(self):
        net = ex.binary7_network()
        system = ex.random_tree_system(42, net, dim=7)
        report = cf.check_admissibility(
            system, net, ex.binary7_leaf_partition(), sv.RelaxationAssignment.uniform(7, 1.0)
        )
        assert report.admissible
        assert all(alpha.passed for alpha in report.groups)

    def test_only_leaf_groups_carry_leaf_bounds(self):
        net = ex.binary7_network()
        system = ex.random_tree_system(42, net, dim=7)
        part = tp.SubnetworkPartition.of([{1, 3, 4}, {5, 6}])
        inner, leaves = cf.check_admissibility(
            system, net, part, sv.RelaxationAssignment.uniform(7, 1.0)
        ).groups
        assert inner.leaf_bounds is None
        assert dict(leaves.leaf_bounds) == {
            v: cf.admissible_upper_bound(system, net, {5, 6}, v) for v in (5, 6)
        }

    def test_interior_node_out_of_range(self):
        net = ex.binary7_network()
        system = ex.random_tree_system(43, net, dim=7)
        omega = np.ones(7)
        omega[1] = 2.5  # node 1 sits outside the leaf groups
        report = cf.check_admissibility(
            system, net, ex.binary7_leaf_partition(), sv.RelaxationAssignment(omega)
        )
        assert not report.admissible
        assert report.node_verdicts[1] == (2.5, False)

    def test_scale_closure(self):
        net = ex.binary7_network()
        system = ex.random_tree_system(44, net, dim=7)
        part = ex.binary7_leaf_partition()
        relax = sv.RelaxationAssignment.uniform(7, 1.2)
        assert cf.check_admissibility(system, net, part, relax).admissible
        half = cf.check_admissibility(system, net, part, relax.scaled(0.5))
        assert half.admissible
        assert half.unit_scale_admissible is True

    @pytest.mark.parametrize("slow", [{2: 2.4}, {5: 3.9, 6: 3.9}, {}])
    def test_scaled_call_resolves_once_and_takes_one_basis_per_group(self, monkeypatch, slow):
        # a free node, or a leaf group, admissible only at scale 0.5; or neither
        net = ex.binary7_network()
        system = ex.random_tree_system(45, net, dim=7)
        part = tp.SubnetworkPartition.of([{1, 3, 4}, {5, 6}])
        omega = np.ones(7)
        omega[list(slow)] = list(slow.values())
        relax = sv.RelaxationAssignment(omega, 0.5)
        unit = cf.check_admissibility(system, net, part, relax.scaled(1.0))
        resolved, bases = [], []
        resolve, basis = cf.resolve_groups, cf.orthonormal_basis
        monkeypatch.setattr(cf, "resolve_groups", lambda *a: resolved.append(a) or resolve(*a))
        monkeypatch.setattr(cf, "orthonormal_basis", lambda *a: bases.append(a) or basis(*a))
        half = cf.check_admissibility(system, net, part, relax)
        assert len(resolved) == 1 and len(bases) == 2
        assert half.admissible and half.unit_scale_admissible is unit.admissible
        assert unit.admissible is not bool(slow)


class TestWeightedLeastSquares:
    def test_consistent_recovers_min_norm(self):
        rng = np.random.default_rng(61)
        net = ex.random_tree(61)
        rows = rng.standard_normal((net.node_count, 3))
        system = sv.LinearSystem(rows=rows, rhs=rows @ rng.standard_normal(3))
        relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
        got = cf.weighted_ls_minimizer(system, net, relax)
        want = min_norm_solution(system.system_matrix(), system.rhs)
        assert np.allclose(got, want, atol=1e-9)

    def test_scalar_pair_equal_weights(self):
        net = chain(2)
        system = sv.LinearSystem(rows=np.array([[1.0], [1.0]]), rhs=np.array([0.0, 1.0]))
        got = cf.weighted_ls_minimizer(system, net, sv.RelaxationAssignment.uniform(2, 1.0))
        assert got[0] == pytest.approx(0.5)

    def test_scalar_pair_skewed_weights(self):
        net = chain(2)
        system = sv.LinearSystem(rows=np.array([[1.0], [1.0]]), rhs=np.array([0.0, 1.0]))
        got = cf.weighted_ls_minimizer(
            system, net, sv.RelaxationAssignment(np.array([1.0, 3.0]))
        )
        assert got[0] == pytest.approx(0.75)

    @pytest.mark.parametrize("dropped", [(3,), tuple(range(7))], ids=["omega3-zero", "all-zero"])
    def test_zero_relaxations_give_the_minimal_norm_target(self, dropped):
        # a zero omega drops the node's residual, so the normal equations on
        # the row space are singular; the target is the least-norm minimizer
        net = ex.binary7_network()
        system = ex.generate_system(ex.GeneratorSpec("uniform", 7, 7, 0)).system
        omega = np.ones(7)
        omega[list(dropped)] = 0.0
        got = cf.weighted_ls_minimizer(system, net, sv.RelaxationAssignment(omega))
        keep = [v for v in range(7) if v not in dropped]
        a, b = system.system_matrix()[keep], system.rhs[keep]
        want = min_norm_solution(a, b) if keep else np.zeros(7)
        assert np.linalg.norm(got - want) <= 1e-10

    def test_path_masses_are_root_path_weights(self, monkeypatch):
        net = ex.random_tree(63, max_nodes=14)
        system = ex.random_tree_system(163, net, dim=4, consistent=False)
        relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
        masses = net.schedule.masses
        want = [tp.path_weight(net, net.root, v) for v in range(net.node_count)]
        assert np.allclose(masses, [want], rtol=0.0, atol=1e-15)
        before = cf.weighted_ls_minimizer(system, net, relax)
        fresh = copy.deepcopy(net)  # a copy drops the cached schedule and its masses
        assert "schedule" not in vars(fresh)

        def refuse(*args, **kwargs):
            raise AssertionError("per-node path_weight call")

        monkeypatch.setattr(cf, "path_weight", refuse)
        monkeypatch.setattr(tp, "path_weight", refuse)
        assert np.array_equal(cf.weighted_ls_minimizer(system, fresh, relax), before)

    def test_local_minimality_of_functional(self):
        rng = np.random.default_rng(62)
        net = ex.random_tree(62)
        system = ex.random_tree_system(162, net, dim=4, consistent=False)
        relax = sv.RelaxationAssignment(rng.uniform(0.3, 2.0, net.node_count))

        def functional(x):
            total = 0.0
            for v in range(net.node_count):
                a = system.rows[v]
                r = abs(system.rhs[v] - np.vdot(a, x)) ** 2
                total += relax.omega[v] * tp.path_weight(net, 0, v) * r / np.vdot(a, a).real
            return total

        star = cf.weighted_ls_minimizer(system, net, relax)
        base = functional(star)
        for _ in range(30):
            probe = star + 1e-4 * rng.standard_normal(4)
            assert functional(probe) >= base - 1e-12


class TestFixedPoint:
    def test_zero_offset(self):
        system = sv.LinearSystem(rows=np.array([[1.0, 0.0]]), rhs=np.array([0.0]))
        it = cf.AffineIteration(B=0.5 * np.eye(2), c=np.zeros(2))
        out = cf.fixed_point(it, cf.row_space_basis(system))
        assert np.allclose(out, 0.0)

    def test_single_node(self):
        a = np.array([1.0, 2.0])
        system = sv.LinearSystem(rows=a[None, :], rhs=np.array([5.0]))
        net = tp.TreeNetwork.from_edges(1, 0, [])
        relax = sv.RelaxationAssignment.uniform(1, 1.0)
        it = cf.tree_affine(system, net, relax)
        out = cf.fixed_point(it, cf.row_space_basis(system))
        assert np.allclose(out, 5.0 * a / 5.0)

    def test_matches_long_engine_run(self):
        rng = np.random.default_rng(63)
        net = tp.TreeNetwork.from_edges(4, 0, [(0, 1, 0.5), (0, 2, 0.5), (2, 3, 1.0)])
        rows = rng.standard_normal((4, 3))
        system = sv.LinearSystem(rows=rows, rhs=rng.standard_normal(4))
        relax = sv.RelaxationAssignment.uniform(4, 1.0)
        it = cf.tree_affine(system, net, relax)
        fp = cf.fixed_point(it, cf.row_space_basis(system))
        report = sv.solve(
            system, net, relax, sv.SolverConfig(max_iterations=2000, step_tolerance=1e-14)
        )
        assert np.allclose(fp, report.final_estimates, atol=1e-8)

    def test_empty_basis_gives_zeros(self):
        it = cf.AffineIteration(B=0.5 * np.eye(3), c=np.ones(3))
        out = cf.fixed_point(it, [])
        assert out.shape == (3,) and np.all(out == 0.0)

    def test_non_contraction_raises(self):
        system = sv.LinearSystem(rows=np.eye(2), rhs=np.ones(2))
        it = cf.AffineIteration(B=np.eye(2), c=np.ones(2))
        with pytest.raises(NonContractionError):
            cf.fixed_point(it, cf.row_space_basis(system))


class TestEigenDichotomy:
    def test_full_rank_square(self):
        rng = np.random.default_rng(64)
        net = chain(4)
        rows = rng.standard_normal((4, 4))
        system = sv.LinearSystem(rows=rows, rhs=rng.standard_normal(4))
        it = cf.tree_affine(system, net, sv.RelaxationAssignment.uniform(4, 1.0))
        report = cf.eigen_dichotomy_check(it, system)
        assert report.holds
        assert report.unit_count == 0
        assert report.rho_restricted < 1.0

    def test_rank_deficient_counts_nullity(self):
        rng = np.random.default_rng(65)
        net = chain(3)
        rows = rng.standard_normal((3, 5))
        system = sv.LinearSystem(rows=rows, rhs=rng.standard_normal(3))
        it = cf.tree_affine(system, net, sv.RelaxationAssignment.uniform(3, 1.0))
        report = cf.eigen_dichotomy_check(it, system)
        assert report.holds
        assert report.nullity == 2
        assert report.unit_count == 2

    def test_zero_relaxation_all_unit(self):
        net = chain(3)
        rows = np.random.default_rng(66).standard_normal((3, 3))
        system = sv.LinearSystem(rows=rows, rhs=np.zeros(3))
        it = cf.tree_affine(system, net, sv.RelaxationAssignment.uniform(3, 0.0))
        vals = np.linalg.eigvals(it.B)
        assert np.allclose(vals, 1.0)

    def test_long_power_converges_to_null_projector(self):
        rng = np.random.default_rng(67)
        for seed in range(5):
            local = np.random.default_rng(seed + 700)
            net = ex.random_tree(seed + 700, max_nodes=6)
            rows = local.standard_normal((net.node_count, 4))
            system = sv.LinearSystem(rows=rows, rhs=local.standard_normal(net.node_count))
            it = cf.tree_affine(system, net, sv.RelaxationAssignment.uniform(net.node_count, 1.0))
            rho = cf.spectral_radius_on_span(it.B, cf.row_space_basis(system))
            if rho > 0.97:
                continue
            power = np.linalg.matrix_power(it.B, 500)
            projector = null_space_projector(system.system_matrix())
            assert np.max(np.abs(power - projector)) < 1e-6


class TestScaledFixedPoints:
    def test_distance_shrinks_with_scale(self):
        matched = 0
        for seed in range(8):
            net = ex.random_tree(seed + 900, max_nodes=6)
            system = ex.random_tree_system(seed + 901, net, dim=3, consistent=False)
            relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
            target = cf.weighted_ls_minimizer(system, net, relax)
            basis = cf.row_space_basis(system)
            dists = []
            for s in (0.2, 0.1, 0.05):
                it = cf.tree_affine(system, net, relax.scaled(s))
                dists.append(np.linalg.norm(cf.fixed_point(it, basis) - target))
            assert dists[0] > dists[1] > dists[2]
            if dists[1] <= 0.75 * dists[0] and dists[2] <= 0.75 * dists[1]:
                matched += 1
        assert matched >= 7  # first-order shrinkage dominates at these scales

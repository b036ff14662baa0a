"""Inputs the program refuses by name, and verdicts that come out failing.

Each case feeds one entry point an input it cannot handle and checks the
named error (type and message), or runs a checker on an input built to
fail it and checks the failing verdict.
"""

import math

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import numerics as nm
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import DimensionError, InvalidNetworkError, NumericalFailureError


class TestNetworkConstructors:
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (1, 3)], r"edge \(1, 3\) references an unknown node"),
            ([(0, 1), (2, 2)], "self-loop at node 2"),
            ([(0, 1), (1, 2), (0, 1)], r"duplicate edge \(0, 1\)"),
            ([(0, 1), (1, 2, 0.5)], r"edge \(1, 2, 0.5\) needs 2 or 4 entries"),
        ],
    )
    def test_dag_cover_edges(self, edges, message):
        with pytest.raises(InvalidNetworkError, match=message):
            tp.DagNetwork.from_cover_edges(3, edges)

    @pytest.mark.parametrize(
        "edge, message",
        [((0, 2, 0.5, 9), r"edge \(0, 2, 0.5, 9\) needs 2 or 3 entries"),
         ((2,), r"edge \(2,\) needs 2 or 3 entries")],
    )
    def test_tree_edges_of_the_wrong_arity(self, edge, message):
        with pytest.raises(InvalidNetworkError, match=message):
            tp.TreeNetwork.from_edges(3, 0, [(0, 1), edge])

    @pytest.mark.parametrize("root", [-1, 3])
    def test_tree_root_outside_the_node_range(self, root):
        with pytest.raises(InvalidNetworkError, match=rf"root {root} outside \[0, 3\)"):
            tp.TreeNetwork.from_edges(3, root, [(0, 1), (0, 2)])

    def test_tree_unknown_child(self):
        with pytest.raises(InvalidNetworkError, match=r"edge \(0, 5\) references an unknown node"):
            tp.TreeNetwork.from_edges(3, 0, [(0, 1), (0, 5)])


class TestRawNetworkInvariants:
    def test_a_cyclic_dag_is_one_cycle_violation(self):
        net = tp.DagNetwork(3, ((0, 1), (1, 2), (2, 0)), {}, {})
        assert [v.kind for v in tp.validate_dag(net)] == ["cycle"]

    def test_a_tree_rooted_outside_its_nodes(self):
        net = tp.TreeNetwork(3, 7, {1: 0, 2: 0}, {(0, 1): 0.5, (0, 2): 0.5})
        violations = tp.validate_tree(net)
        assert [(v.kind, v.where) for v in violations] == [("root", (7,))]

    def test_path_from_root_of_a_disconnected_node(self):
        net = tp.TreeNetwork(3, 0, {1: 0}, {(0, 1): 1.0})
        assert net.path_from_root(1) == (0, 1)
        with pytest.raises(InvalidNetworkError, match="node 2 is not connected to the root"):
            net.path_from_root(2)


class TestPathAndSweepInputs:
    def test_updown_paths_need_minimal_ends(self):
        net = ex.figure_dag()
        m1 = net.minimal_nodes[0]
        inner = next(v for v in range(net.node_count) if v not in net.minimal_nodes)
        with pytest.raises(ValueError, match=f"node {inner} is not minimal"):
            tp.enumerate_updown_paths(net, m1, inner)

    def test_an_empty_sweep_grid(self):
        net = ex.binary7_network()
        system = ex.random_tree_system(1, net, dim=3)
        with pytest.raises(ValueError, match="empty sweep grid"):
            ex.omega_sweep(system, net, [], [[3, 4]])

    @pytest.mark.parametrize("grid", [[(1.0,)], [(1.0, 1.2), (1.0,)], [(1.0, 1.0, 1.0)]])
    def test_sweep_tuples_of_the_wrong_length(self, grid):
        net = ex.binary7_network()
        system = ex.random_tree_system(1, net, dim=3)
        with pytest.raises(ValueError, match="grid tuples must match the number of axes"):
            ex.omega_sweep(system, net, grid, [[3, 4], [5, 6]])


class TestSolverAndNumericsInputs:
    def test_a_dag_solve_needs_one_start_block_per_minimal_node(self):
        net = ex.figure_dag()
        s = len(net.minimal_nodes)
        system = ex.random_tree_system(2, net, dim=3)
        config = sv.SolverConfig(max_iterations=5, initial_estimate=np.zeros((s + 1, 3)))
        relax = sv.RelaxationAssignment.uniform(net.node_count)
        message = f"one estimate per minimal node required: {s}, got {s + 1}"
        with pytest.raises(DimensionError, match=message):
            sv.solve(system, net, relax, config)

    def test_a_two_dimensional_omega(self):
        with pytest.raises(DimensionError, match="omega must be one value per node"):
            sv.RelaxationAssignment(np.ones((2, 3)))

    @pytest.mark.parametrize("value", [1.0, [[1.0, 2.0]]])
    def test_as_vector_needs_one_dimension(self, value):
        with pytest.raises(DimensionError, match="expected a vector"):
            nm.as_vector(value)

    @pytest.mark.parametrize("value", [[1.0, 2.0], [[[1.0]]]])
    def test_as_matrix_needs_two_dimensions(self, value):
        with pytest.raises(DimensionError, match="expected a matrix"):
            nm.as_matrix(value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="vector contains non-finite entries"):
            nm.as_vector([1.0, bad])
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            nm.as_matrix([[1.0, 0.0], [bad, 1.0]])

    def test_min_norm_solution_needs_one_entry_per_row(self):
        with pytest.raises(DimensionError, match="matrix has 2 rows but right-hand side has 3 entries"):
            nm.min_norm_solution(np.eye(2), np.ones(3))


class TestAnalysisInputs:
    @pytest.mark.parametrize("entry", [0.0, -1.0])
    def test_dag_ls_minimizer_needs_a_positive_profile(self, entry):
        net = ex.figure_dag()
        system = ex.random_tree_system(3, net, dim=3)
        bs = cf.dag_block_structure(system, net, sv.RelaxationAssignment.uniform(net.node_count))
        profile = np.ones(net.node_count)
        profile[2] = entry
        with pytest.raises(ValueError, match="the per-node profile must be positive"):
            cf.dag_ls_minimizer(bs, profile, cf.row_space_basis(system))

    def test_dag_ls_minimizer_needs_one_profile_value_per_node(self):
        net = ex.figure_dag()
        system = ex.random_tree_system(3, net, dim=3)
        bs = cf.dag_block_structure(system, net, sv.RelaxationAssignment.uniform(net.node_count))
        with pytest.raises(DimensionError, match=r"shape \(2,\), expected \(6,\)"):
            cf.dag_ls_minimizer(bs, np.ones(bs.s), cf.row_space_basis(system))

    def test_admissible_upper_bound_of_a_non_leaf(self):
        # 0 -> 1, 1 -> {2, 3}: node 1 is in the group but is no leaf
        net = tp.TreeNetwork.from_edges(4, 0, [(0, 1), (1, 2), (1, 3)])
        system = ex.random_tree_system(4, net, dim=3)
        assert cf.admissible_upper_bound(system, net, {2, 3}, 2) > 0.0
        with pytest.raises(ValueError, match="node 1 is not a leaf of this group"):
            cf.admissible_upper_bound(system, net, {2, 3}, 1)

    @pytest.mark.parametrize("leaf", [3, 4, 5, 6])
    @pytest.mark.parametrize("dim", [1, 3, 9])
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_an_overflowing_path_sor_form_is_a_numerical_failure(
        self, leaf, dim, complex_entries, rank_deficient
    ):
        """At omega = 1e200 a 3-node chain's map passes the float range; no warning escapes."""
        net = ex.binary7_network()
        system = ex.random_tree_system(
            5, net, dim=dim, complex_entries=complex_entries, rank_deficient=rank_deficient
        )
        factors = cf.path_sor_factors(
            system, net.path_from_root(leaf), sv.RelaxationAssignment.uniform(7, 1e200)
        )
        with pytest.raises(NumericalFailureError, match="overflowed"):
            factors.affine()
        with pytest.raises(NumericalFailureError, match="overflowed"):
            factors.solve_coefficients(np.zeros(dim))

    @pytest.mark.parametrize(
        "route", ["group_operator", "subnetwork_norm", "check_admissibility", "build_p_omega",
                  "dag_block_p"],
    )
    def test_an_overflowing_chain_product_is_a_numerical_failure(self, route):
        """At omega = 1e8 the 39 nodes below a 40-node chain's root overflow their product.

        Each form raises by name with no warning, the pathwise DAG block map
        on the same chain as a DAG included.
        """
        n = 40
        chain = tp.TreeNetwork.from_edges(n, 0, [(v - 1, v) for v in range(1, n)])
        system, relax = ex.random_tree_system(0, chain, 1), sv.RelaxationAssignment.uniform(n, 1e8)
        group = set(range(1, n))
        call = {
            "group_operator": lambda: cf.group_operator(system, chain, group, relax),
            "subnetwork_norm": lambda: cf.subnetwork_norm(system, chain, group, relax),
            "check_admissibility": lambda: cf.check_admissibility(
                system, chain, tp.SubnetworkPartition.of([group]), relax
            ),
            "build_p_omega": lambda: cf.build_p_omega(
                system, chain, tp.root_subtree_partition(chain), relax
            ),
            "dag_block_p": lambda: cf.dag_block_p(
                system, tp.DagNetwork.from_cover_edges(n, sorted(chain.edge_weight)), relax
            ),
        }[route]
        with pytest.raises(NumericalFailureError, match="overflowed"):
            call()

    @pytest.mark.parametrize("omega", [1e110, 1e200])
    def test_an_overflowing_product_form_is_a_numerical_failure(self, omega):
        """binary7 at d = 1: at 1e200 a 2-node chain overflows, at 1e110 only the gateway product."""
        net = ex.binary7_network()
        system, relax = ex.random_tree_system(0, net, 1), sv.RelaxationAssignment.uniform(7, omega)
        part = tp.root_subtree_partition(net)
        if omega == 1e110:
            for group in part.groups:
                assert np.isfinite(cf.group_operator(system, net, group, relax)).all()
        with pytest.raises(NumericalFailureError, match="overflowed"):
            cf.build_p_omega(system, net, part, relax)

    def test_a_fixed_point_solve_that_breaks_down_is_a_numerical_failure(self):
        """At omega = 1e-300 the radius rounds to just below 1 and I - R is singular."""
        net = ex.figure_dag()
        system = ex.random_tree_system(3, net, 1, complex_entries=True)
        bs = cf.dag_block_structure(system, net, sv.RelaxationAssignment.uniform(6, 1e-300))
        basis = cf.row_space_basis(system)
        assert cf.dag_restricted_rho(bs, basis) < 1.0
        with pytest.raises(NumericalFailureError, match="fixed-point solve broke down"):
            cf.dag_fixed_point(bs, basis)

    def test_path_sor_factors_of_an_empty_path(self):
        system = sv.LinearSystem(rows=np.eye(2), rhs=np.ones(2))
        with pytest.raises(DimensionError, match="empty node path"):
            cf.path_sor_factors(system, [], sv.RelaxationAssignment.uniform(2))


def _boundary_cases():
    """``(id, call, error, message)``: each malformed input at the estimate and node-id boundary.

    binary7 with d = 3 (V = 7) and the figure DAG with d = 3 (s = 2 minimal
    nodes).  Vector entry points take a wrong length, a 2-D estimate and
    NaN and inf entries; block entry points also one block short and one
    too many; node-id entry points -1, V, 2.5 and True; block counts 0, -1
    and one that does not divide the map's side.
    """
    tree = ex.binary7_network()
    system, relax = ex.random_tree_system(1, tree, 3), sv.RelaxationAssignment.uniform(7)
    dag = ex.figure_dag()
    dsys, drelax = ex.random_dag_system(2, dag, 3), sv.RelaxationAssignment.uniform(6)
    bs = cf.dag_block_structure(dsys, dag, drelax)
    it = cf.tree_affine(system, tree, relax)
    factors = cf.path_sor_factors(system, tree.path_from_root(3), relax)
    a = system.rows[0]

    def solve(sys_, net, rlx, start):
        return sv.solve(sys_, net, rlx, sv.SolverConfig(max_iterations=2, initial_estimate=start))

    vector_calls = {
        "tree_iterate": lambda x: sv.tree_iterate(system, tree, relax, x),
        "solve-tree": lambda x: solve(system, tree, relax, x),
        "apply": it.apply,
        "residual_norm": system.residual_norm,
        "kaczmarz_update": lambda x: sv.kaczmarz_update(x, a, 1.0, 1.0),
        "relaxed_p": lambda x: sv.relaxed_p(x, a, 1.0),
        "relaxed_q": lambda x: sv.relaxed_q(x, a, 1.0, 1.0),
        "project_null": lambda x: sv.project_null(x, a),
        "project_affine": lambda x: sv.project_affine(x, a, 1.0),
        "solve_coefficients": factors.solve_coefficients,
    }
    block_calls = {
        "dag_iterate": lambda xs: sv.dag_iterate(dsys, dag, drelax, xs),
        "solve-dag": lambda xs: solve(dsys, dag, drelax, np.array(xs)),
        "condition_values": bs.condition_values,
        "condition_residual": bs.condition_residual,
    }
    short = (DimensionError, r"expected a vector of length 3, got shape \(2,\)")
    flat = (DimensionError, r"expected a vector, got shape \(1, 3\)")
    nan = (ValueError, "vector contains non-finite entries")
    bad_vectors = {
        "length": (np.ones(2), short),
        "2-d": (np.ones((1, 3)), flat),
        "nan": (np.array([1.0, np.nan, 0.0]), nan),
        "inf": (np.array([1.0, 0.0, -np.inf]), nan),
    }
    cases = []
    for name, call in vector_calls.items():
        for what, (x, (error, message)) in bad_vectors.items():
            cases.append((f"{name}-{what}", lambda call=call, x=x: call(x), error, message))
    cases.append(("kaczmarz_update-row-length",
                  lambda: sv.kaczmarz_update(np.ones(2), np.ones(3), 1, 1), *short))
    for name, call in block_calls.items():
        for what, (x, (error, message)) in bad_vectors.items():
            xs = [np.zeros_like(x), x]  # one shape, so a DAG solve's start is one array
            cases.append((f"{name}-{what}", lambda call=call, xs=xs: call(xs), error, message))
        for count in (1, 3):
            xs = [np.zeros(3)] * count
            message = f"one estimate per minimal node required: 2, got {count}"
            cases.append((f"{name}-{count}-blocks", lambda call=call, xs=xs: call(xs),
                          DimensionError, message))
    for node in (-1, 7, 2.5, True):
        message = rf"node {node!r} is not in 0\.\.6"
        cases.append((f"path_sor_factors-{node!r}",
                      lambda node=node: cf.path_sor_factors(system, [0, node], relax),
                      DimensionError, message))
        cases.append((f"relaxed_projection_matrix-{node!r}",
                      lambda node=node: cf.relaxed_projection_matrix(system, node, 1.0),
                      DimensionError, message))
        end = 3 if node == 7 else node  # V = 3 for the tree built from edges
        cases.append((f"from_edges-{node!r}",
                      lambda end=end: tp.TreeNetwork.from_edges(3, 0, [(0, 1), (0, end)]),
                      InvalidNetworkError, rf"edge \(0, {end!r}\) references an unknown node"))
    three = cf.AffineIteration(B=0.5 * np.eye(3), c=np.ones(3))
    for s in (0, -1, 2):
        cases.append((f"restriction-s={s}", lambda s=s: three.restriction([np.ones(1)], s),
                      DimensionError, rf"a map of side 3 does not split into {s} blocks"))
    cases.append(("validate_tree-dag", lambda: tp.validate_tree(dag),
                  TypeError, "expected a TreeNetwork, got DagNetwork"))
    cases.append(("sampled_block_norm_lower_bound-vector",
                  lambda: cf.sampled_block_norm_lower_bound(np.ones(4), 2),
                  DimensionError, r"expected a matrix, got shape \(4,\)"))
    basis = cf.row_space_basis(dsys)
    for what, value in (("nan", np.nan), ("inf", np.inf)):
        cases.append((f"dag_ls_minimizer-{what}",
                      lambda value=value: cf.dag_ls_minimizer(bs, np.full(6, value), basis),
                      ValueError, "the per-node profile must be positive and finite"))
    return cases


_BOUNDARY = _boundary_cases()


@pytest.mark.parametrize("case", _BOUNDARY, ids=[c[0] for c in _BOUNDARY])
def test_every_malformed_input_at_the_boundary_raises_a_named_error(case, capfd):
    """Each malformed input ends in its named error and message; stdout and stderr stay empty."""
    _, call, error, message = case
    with pytest.raises(error, match=message):
        call()
    assert capfd.readouterr() == ("", "")


class TestBudgetsAndVerdicts:
    def test_iteration_budget_at_the_ends(self):
        assert ex.iteration_budget(1.0) == 20_000
        assert ex.iteration_budget(1.0, cap=77) == 77
        assert ex.iteration_budget(0.0) == 1

    def test_the_dichotomy_fails_on_the_identity_map(self):
        # B = I keeps e1, which the one row spans: two unit eigenvalues, nullity 1
        system = sv.LinearSystem(rows=np.array([[1.0, 0.0]]), rhs=np.array([0.0]))
        report = cf.eigen_dichotomy_check(cf.AffineIteration(B=np.eye(2), c=np.zeros(2)), system)
        assert report.holds is False
        assert report.unit_count == 2
        assert report.nullity == 1
        assert report.unit_vectors_in_null_space is False

    def test_the_leaf_norm_at_zero_relaxation_is_one(self):
        net = ex.binary7_network()
        system = ex.random_tree_system(5, net, dim=4)
        group = next(g for g in ex.binary7_leaf_partition().groups)
        zero = sv.RelaxationAssignment.uniform(net.node_count, 0.0)
        assert cf.leaf_norm_formula(system, net, group, zero) == 1.0

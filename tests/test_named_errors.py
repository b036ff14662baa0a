"""Inputs the program refuses by name, and verdicts that come out failing.

Each case feeds one entry point an input it cannot handle and checks the
named error (type and message), or runs a checker on an input built to
fail it and checks the failing verdict.
"""

import dataclasses
import inspect
import math
import re
import types
import typing

import numpy as np
import pytest

import distkaczmarz
from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import numerics as nm
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import DimensionError, InvalidNetworkError, NumericalFailureError
from distkaczmarz.errors import PartitionError


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


def _value_classes(hint) -> set[type]:
    """The package's value classes, its frozen dataclasses, that an annotation names."""
    if isinstance(hint, type) and not typing.get_args(hint):  # list[X] is a type on 3.10
        ours = hint.__module__.startswith("distkaczmarz.") and dataclasses.is_dataclass(hint)
        return {hint} if ours and hint.__dataclass_params__.frozen else set()
    return set().union(*map(_value_classes, typing.get_args(hint)))


def _scalar_kind(hint):
    """``int`` or ``float`` for an annotation of one of them, alone or with None, else None."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    kinds = set(typing.get_args(hint) if union else [hint]) - {type(None)}
    return kinds.pop() if len(kinds) == 1 and kinds <= {int, float} else None


# What the walk of the public API leaves out, by callable or by callable-parameter, and why.
_EXEMPT = {
    "SolveReport-iterations_used": "an output record: solve counts the passes it ran",
    "solve_route": "solve calls it on every run with the counts its kernel holds",
    "TreeNetwork-root": "the raw constructor keeps any root for validate_tree to report",
    "AdmissibilityReport": "an output record of check_admissibility",
    "BlockStructure": "an output record of dag_block_structure",
    "DichotomyReport": "an output record of eigen_dichotomy_check",
    "GroupVerdict": "an output record of check_admissibility",
    "Level": "a schedule's level, built by the network's layout",
    "LimitRow": "an output record of lsq_limit_study",
    "ResolvedGroup": "an output record of resolve_groups",
    "Restriction": "an output record of AffineIteration.restriction",
    "Schedule": "a network's level schedule, built by its layout",
    "SweepResult": "an output record of omega_sweep",
    "UpDownPath": "an output record of enumerate_updown_paths",
}


def _public_callables() -> dict[str, object]:
    """The public API by name, walked once for every completeness check.

    It is ``distkaczmarz.__all__`` and the non-underscore functions and
    classes of ``solver``, ``closedform``, ``topology`` and ``experiments``
    (a class by its constructor), with each class's public classmethods as
    ``Class.method``; an alias counts once, by its name.
    """
    public = {name: getattr(distkaczmarz, name) for name in distkaczmarz.__all__}
    for module in (sv, cf, tp, ex):
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj):
                public[obj.__name__] = obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                public[name] = obj
                public.update({f"{name}.{m}": getattr(obj, m) for m, f in vars(obj).items()
                               if isinstance(f, classmethod) and not m.startswith("_")})
    return public


def _annotated_pairs(kind, exempt=True) -> dict[tuple[str, str], object]:
    """``(callable, parameter): kind(hint)`` for each walked parameter whose ``kind`` is truthy.

    Pairs of :data:`_EXEMPT`, by callable or by callable-parameter, are left
    out unless ``exempt`` is false.
    """
    pairs = {}
    for name, obj in _public_callables().items():
        hints = typing.get_type_hints(obj.__init__ if isinstance(obj, type) else obj)
        for param, hint in hints.items():
            skip = exempt and (name in _EXEMPT or f"{name}-{param}" in _EXEMPT)
            if param != "return" and not skip and kind(hint):
                pairs[name, param] = kind(hint)
    return pairs


def _boundary_cases():
    """``(id, call, error, message)``: each malformed input at the estimate and node-id boundary.

    binary7 with d = 3 (V = 7) and the figure DAG with d = 3 (s = 2 minimal
    nodes).  Vector entry points take a wrong length, a 2-D estimate and
    NaN and inf entries; block entry points also one block short and one
    too many; node-id entry points -1, V, 2.5 and True; block counts 0, -1
    and one that does not divide the map's side.  Partition routes take a
    group member that is no node id (4.0, True, "4" and 4.5) and a partition
    its groups given flat; the iterations take an omega array for the
    assignment with ``validated=True``.  :func:`_wrong_type_cases` adds one
    wrong-typed value per value argument and :func:`_scalar_cases` a str, a
    bool and, for an integer, a non-integral float per integer or real
    argument.
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
    cases.append(("solve-dag-ragged", lambda: solve(dsys, dag, drelax, [np.zeros(3), np.ones(2)]),
                  DimensionError, r"initial estimate blocks differ in shape: \[\(3,\), \(2,\)\]"))
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
    for member in (4.0, True, "4", 4.5):  # binary7's leaves 3 and 4, the second no node id
        part = tp.SubnetworkPartition([[3, member]])
        message = rf"^group 0 references node {re.escape(repr(member))}$"
        for name, call in (
            ("resolve_groups", lambda part=part: tp.resolve_groups(tree, part)),
            ("check_admissibility",
             lambda part=part: cf.check_admissibility(system, tree, part, relax)),
            ("build_p_omega", lambda part=part: cf.build_p_omega(system, tree, part, relax)),
        ):
            cases.append((f"{name}-member-{member!r}", call, PartitionError, message))
    cases.append(("SubnetworkPartition-flat", lambda: tp.SubnetworkPartition([3, 4]),
                  TypeError, "group 0 is not an iterable of node ids: 3"))
    needs = "^expected a RelaxationAssignment, got ndarray$"  # validated=True skips no check
    cases.append(("tree_iterate-validated",
                  lambda: sv.tree_iterate(system, tree, relax.omega, np.zeros(3), validated=True),
                  TypeError, needs))
    cases.append(("dag_iterate-validated",
                  lambda: sv.dag_iterate(dsys, dag, drelax.omega, [np.zeros(3)] * 2, True),
                  TypeError, needs))
    return cases + _wrong_type_cases() + _scalar_cases()


def _valid_calls():
    """``callable: (entry point, keyword arguments)``: one valid call of each walked entry point.

    binary7 with d = 3 and the figure DAG with d = 3, as in
    :func:`_boundary_cases`; a case swaps one argument for a bad value.
    """
    tree = ex.binary7_network()
    system, relax = ex.random_tree_system(1, tree, 3), sv.RelaxationAssignment.uniform(7)
    dag = ex.figure_dag()
    dsys, drelax = ex.random_dag_system(2, dag, 3), sv.RelaxationAssignment.uniform(6)
    bs, dbasis = cf.dag_block_structure(dsys, dag, drelax), cf.row_space_basis(dsys)
    it, basis = cf.tree_affine(system, tree, relax), cf.row_space_basis(system)
    part, other = ex.binary7_leaf_partition(), ex.binary7_extended_partition()
    m1, m2 = dag.minimal_nodes
    tree_call = {"sys": system, "net": tree, "relax": relax}
    dag_call = {"sys": dsys, "net": dag, "relax": drelax}
    update = {"x": np.zeros(3), "a": system.rows[0], "b": 1.0, "omega": 1.0}
    return {
        "solve": (sv.solve, {**tree_call, "config": sv.SolverConfig(max_iterations=2)}),
        "tree_iterate": (sv.tree_iterate, {**tree_call, "x": np.zeros(3)}),
        "dag_iterate": (sv.dag_iterate, {**dag_call, "blocks": [np.zeros(3)] * 2}),
        "admissible_upper_bound": (cf.admissible_upper_bound,
                                   {"sys": system, "net": tree, "group": {3, 4}, "leaf": 3}),
        "build_p_omega": (cf.build_p_omega, {**tree_call, "part": part}),
        "check_admissibility": (cf.check_admissibility, {**tree_call, "part": part}),
        "dag_block_p": (cf.dag_block_p, dag_call),
        "dag_block_structure": (cf.dag_block_structure, dag_call),
        "dag_fixed_point": (cf.dag_fixed_point, {"bs": bs, "row_basis": dbasis}),
        "dag_ls_minimizer": (cf.dag_ls_minimizer, {"bs": bs, "c": np.ones(6), "row_basis": dbasis}),
        "dag_restricted_rho": (cf.dag_restricted_rho, {"bs": bs, "row_basis": dbasis}),
        "eigen_dichotomy_check": (cf.eigen_dichotomy_check, {"it": it, "sys": system}),
        "fixed_point": (cf.fixed_point, {"it": it, "row_space_basis": basis}),
        "group_operator": (cf.group_operator, {**tree_call, "group": {3, 4}}),
        "leaf_norm_formula": (cf.leaf_norm_formula, {**tree_call, "group": {3, 4}}),
        "path_sor_factors": (cf.path_sor_factors,
                             {"sys": system, "node_path": [0, 1, 3], "relax": relax}),
        "relaxed_projection_matrix": (cf.relaxed_projection_matrix,
                                      {"sys": system, "v": 3, "omega": 1.0}),
        "restricted_rho": (cf.restricted_rho,
                           {"sys": system, "net": tree, "omega": np.ones((7, 1))}),
        "row_space_basis": (cf.row_space_basis, {"sys": system}),
        "subnetwork_norm": (cf.subnetwork_norm, {**tree_call, "group": {3, 4}}),
        "tree_affine": (cf.tree_affine, tree_call),
        "weighted_ls_minimizer": (cf.weighted_ls_minimizer, tree_call),
        "compare_structures": (ex.compare_structures, {"sys": system, "net": tree, "grid": [(1.0,)],
                                                       "structure_a": part, "structure_b": other}),
        "generate_system": (ex.generate_system, {"spec": ex.GeneratorSpec("uniform", 3, 3, 0)}),
        "lsq_limit_study": (ex.lsq_limit_study, {**tree_call, "s_values": [1.0]}),
        "omega_sweep": (ex.omega_sweep,
                        {"sys": system, "net": tree, "grid": [(1.0,)], "axes": [[3, 4]]}),
        "random_tree_system": (ex.random_tree_system, {"seed": 0, "net": tree, "dim": 3}),
        "enumerate_dispersion_paths": (tp.enumerate_dispersion_paths, {"net": dag}),
        "enumerate_updown_paths": (tp.enumerate_updown_paths, {"net": dag, "m1": m1, "m2": m2}),
        "leaf_sibling_partition": (tp.leaf_sibling_partition, {"net": tree}),
        "minimal_distance_diameter": (tp.minimal_distance_diameter, {"net": dag}),
        "path_weight": (tp.path_weight, {"net": tree, "u": 0, "v": 3}),
        "resolve_groups": (tp.resolve_groups, {"net": tree, "part": part}),
        "root_subtree_partition": (tp.root_subtree_partition, {"net": tree}),
        "topological_order": (tp.topological_order, {"net": tree}),
        "validate_dag": (tp.validate_dag, {"net": dag}),
        "validate_subnetworks": (tp.validate_subnetworks, {"net": tree, "part": part}),
        "validate_tree": (tp.validate_tree, {"net": tree}),
        "SolverConfig": (sv.SolverConfig, {}),
        "RelaxationAssignment": (sv.RelaxationAssignment, {"omega": np.ones(7)}),
        "RelaxationAssignment.uniform": (sv.RelaxationAssignment.uniform, {"node_count": 7}),
        "TreeNetwork": (tp.TreeNetwork, {"node_count": 3, "root": 0, "parent": {1: 0},
                                         "edge_weight": {(0, 1): 1.0}}),
        "TreeNetwork.from_edges": (tp.TreeNetwork.from_edges,
                                   {"node_count": 3, "root": 0, "edges": [(0, 1), (0, 2)]}),
        "DagNetwork": (tp.DagNetwork, {"node_count": 2, "edges": [(0, 1)], "w_d": {(0, 1): 1.0},
                                       "w_p": {(0, 1): 1.0}}),
        "DagNetwork.from_cover_edges": (tp.DagNetwork.from_cover_edges,
                                        {"node_count": 2, "edges": [(0, 1)]}),
        "GeneratorSpec": (ex.GeneratorSpec, {"kind": "uniform", "k": 3, "d": 3, "seed": 0}),
        "block_infinity_norm": (cf.block_infinity_norm, {"m": np.eye(4), "block_size": 2}),
        "sampled_block_norm_lower_bound": (cf.sampled_block_norm_lower_bound,
                                           {"m": np.eye(4), "block_size": 2}),
        "check_sweep_axes": (ex.check_sweep_axes, {"axes": [[3]], "node_count": 7}),
        "grid_from_spec": (ex.grid_from_spec, {"spec": "0:1:0.5", "axis_count": 1}),
        "iteration_budget": (ex.iteration_budget, {"rho": 0.5}),
        "random_dag": (ex.random_dag, {"seed": 0}),
        "random_tree": (ex.random_tree, {"seed": 0}),
        "reproduce": (ex.reproduce, {"experiment_id": "dag-demo", "seed": 0}),
        "kaczmarz_update": (sv.kaczmarz_update, update),
        "relaxed_p": (sv.relaxed_p, {k: update[k] for k in ("x", "a", "omega")}),
        "relaxed_q": (sv.relaxed_q, update),
    }


def _wrong_type_cases():
    """``<callable>-<param>-type``: each value argument of the public API given a wrong type.

    Every case calls one entry point with valid arguments but one, and
    expects the type rule's ``TypeError``, which names the classes the
    argument may be and the type it got.
    """
    calls = _valid_calls()
    tree, system, relax = (calls["tree_affine"][1][k] for k in ("net", "sys", "relax"))
    dag, dsys, drelax = (calls["dag_block_p"][1][k] for k in ("net", "sys", "relax"))
    bs, it, rows = calls["dag_fixed_point"][1]["bs"], calls["fixed_point"][1]["it"], system.rows
    either = "TreeNetwork or DagNetwork"
    groups, omega = [{3, 4}, {5, 6}], relax.omega
    wrong = {  # (callable, parameter): (the classes it needs, a wrong value)
        ("solve", "sys"): ("LinearSystem", rows),
        ("solve", "net"): (either, {}),
        ("solve", "relax"): ("RelaxationAssignment", omega),
        ("solve", "config"): ("SolverConfig", {}),
        ("tree_iterate", "sys"): ("LinearSystem", rows),
        ("tree_iterate", "net"): ("TreeNetwork", dag),
        ("tree_iterate", "relax"): ("RelaxationAssignment", omega),
        ("dag_iterate", "sys"): ("LinearSystem", dsys.rows),
        ("dag_iterate", "net"): ("DagNetwork", tree),
        ("dag_iterate", "relax"): ("RelaxationAssignment", drelax.omega),
        ("admissible_upper_bound", "sys"): ("LinearSystem", rows),
        ("admissible_upper_bound", "net"): ("TreeNetwork", dag),
        ("build_p_omega", "sys"): ("LinearSystem", rows),
        ("build_p_omega", "net"): ("TreeNetwork", dag),
        ("build_p_omega", "part"): ("SubnetworkPartition", groups),
        ("build_p_omega", "relax"): ("RelaxationAssignment", omega),
        ("check_admissibility", "sys"): ("LinearSystem", rows),
        ("check_admissibility", "net"): (either, {}),  # a DAG takes the empty partition
        ("check_admissibility", "part"): ("SubnetworkPartition", groups),
        ("check_admissibility", "relax"): ("RelaxationAssignment", omega),
        ("dag_block_p", "sys"): ("LinearSystem", dsys.rows),
        ("dag_block_p", "net"): ("DagNetwork", tree),
        ("dag_block_p", "relax"): ("RelaxationAssignment", drelax.omega),
        ("dag_block_structure", "sys"): ("LinearSystem", dsys.rows),
        ("dag_block_structure", "net"): (either, {}),
        ("dag_block_structure", "relax"): ("RelaxationAssignment", drelax.omega),
        ("dag_fixed_point", "bs"): ("BlockStructure", bs.aggregate),
        ("dag_ls_minimizer", "bs"): ("BlockStructure", bs.aggregate),
        ("dag_restricted_rho", "bs"): ("BlockStructure", bs.aggregate.B),
        ("eigen_dichotomy_check", "it"): ("AffineIteration", it.B),
        ("eigen_dichotomy_check", "sys"): ("LinearSystem", rows),
        ("fixed_point", "it"): ("AffineIteration", it.B),
        ("group_operator", "sys"): ("LinearSystem", rows),
        ("group_operator", "net"): ("TreeNetwork", dag),
        ("group_operator", "relax"): ("RelaxationAssignment", omega),
        ("leaf_norm_formula", "sys"): ("LinearSystem", rows),
        ("leaf_norm_formula", "net"): ("TreeNetwork", dag),
        ("leaf_norm_formula", "relax"): ("RelaxationAssignment", omega),
        ("path_sor_factors", "sys"): ("LinearSystem", rows),
        ("path_sor_factors", "relax"): ("RelaxationAssignment", omega),
        ("relaxed_projection_matrix", "sys"): ("LinearSystem", rows),
        ("restricted_rho", "sys"): ("LinearSystem", rows),
        ("restricted_rho", "net"): (either, {}),
        ("row_space_basis", "sys"): ("LinearSystem", rows),
        ("subnetwork_norm", "sys"): ("LinearSystem", rows),
        ("subnetwork_norm", "net"): ("TreeNetwork", dag),
        ("subnetwork_norm", "relax"): ("RelaxationAssignment", omega),
        ("tree_affine", "sys"): ("LinearSystem", rows),
        ("tree_affine", "net"): ("TreeNetwork", dag),
        ("tree_affine", "relax"): ("RelaxationAssignment", omega),
        ("weighted_ls_minimizer", "sys"): ("LinearSystem", rows),
        ("weighted_ls_minimizer", "net"): ("TreeNetwork", dag),
        ("weighted_ls_minimizer", "relax"): ("RelaxationAssignment", omega),
        ("compare_structures", "sys"): ("LinearSystem", rows),
        ("compare_structures", "net"): (either, {}),  # the sweeps take a DAG too
        ("compare_structures", "structure_a"): ("SubnetworkPartition", groups),
        ("compare_structures", "structure_b"): ("SubnetworkPartition", groups),
        ("generate_system", "spec"): ("GeneratorSpec", {}),
        ("lsq_limit_study", "sys"): ("LinearSystem", rows),
        ("lsq_limit_study", "net"): ("TreeNetwork", dag),
        ("lsq_limit_study", "relax"): ("RelaxationAssignment", omega),
        ("omega_sweep", "sys"): ("LinearSystem", rows),
        ("omega_sweep", "net"): (either, {}),
        ("random_tree_system", "net"): (either, rows),
        ("enumerate_dispersion_paths", "net"): ("DagNetwork", tree),
        ("enumerate_updown_paths", "net"): ("DagNetwork", tree),
        ("leaf_sibling_partition", "net"): ("TreeNetwork", dag),
        ("minimal_distance_diameter", "net"): ("DagNetwork", tree),
        ("path_weight", "net"): ("TreeNetwork", dag),
        ("resolve_groups", "net"): ("TreeNetwork", dag),
        ("resolve_groups", "part"): ("SubnetworkPartition", groups),
        ("root_subtree_partition", "net"): ("TreeNetwork", dag),
        ("topological_order", "net"): (either, {}),
        ("validate_dag", "net"): ("DagNetwork", tree),
        ("validate_subnetworks", "net"): ("TreeNetwork", dag),
        ("validate_subnetworks", "part"): ("SubnetworkPartition", groups),
        ("validate_tree", "net"): ("TreeNetwork", {}),
    }
    cases = []
    for (name, param), (needs, value) in wrong.items():
        call, kwargs = calls[name]
        cases.append((f"{name}-{param}-type",
                      lambda call=call, kwargs={**kwargs, param: value}: call(**kwargs),
                      TypeError, rf"^expected a {needs}, got {type(value).__name__}$"))
    return cases


_SCALAR_VALUES = {"str": "1", "bool": True, "float": 2.5}


def _scalar_kinds(hint) -> list[str]:
    """The bad values an argument of ``hint`` is given: a str and a bool, and a float for an int."""
    return list(_SCALAR_VALUES)[: 3 if hint is int else 2]


def _scalar_cases():
    """``<callable>-<param>-scalar-<kind>``: each integer and real argument given a str and a bool.

    An integer argument is also given a non-integral float.  Every case
    calls one entry point with valid arguments but one, and expects the
    scalar rule's ``ValueError`` naming the parameter and the value's repr;
    a node id or a block count keeps its entry's error class and message.
    """
    calls = _valid_calls()
    nonnegative, positive = "{p} must be a nonnegative integer", "{p} must be a positive integer"
    real, node = "{p} must be a real number", (DimensionError, "node {v} is not in 0..6")
    blocks = (DimensionError, "shape (4, 4) does not split into blocks of size {v}")
    scale = "{p} must be a number in (0, 1]"
    expected = {  # (callable, parameter): message, ", got {v}" added, or (error, message)
        ("SolverConfig", "max_iterations"): positive,
        ("SolverConfig", "step_tolerance"): "{p} must be a positive finite number",
        ("RelaxationAssignment", "scale"): scale,
        ("RelaxationAssignment.uniform", "node_count"): nonnegative,
        ("RelaxationAssignment.uniform", "value"): real,
        ("RelaxationAssignment.uniform", "scale"): scale,
        ("TreeNetwork", "node_count"): nonnegative,
        ("TreeNetwork.from_edges", "node_count"): nonnegative,
        ("TreeNetwork.from_edges", "root"): (InvalidNetworkError, "root {v} outside [0, 3)"),
        ("DagNetwork", "node_count"): nonnegative,
        ("DagNetwork.from_cover_edges", "node_count"): nonnegative,
        ("GeneratorSpec", "k"): positive,
        ("GeneratorSpec", "d"): positive,
        ("GeneratorSpec", "seed"): nonnegative,
        ("GeneratorSpec", "epsilon"): "{p} must be a finite real number",
        ("kaczmarz_update", "omega"): real,
        ("relaxed_p", "omega"): real,
        ("relaxed_q", "omega"): real,
        ("relaxed_projection_matrix", "v"): node,
        ("relaxed_projection_matrix", "omega"): real,
        ("path_weight", "u"): node,
        ("path_weight", "v"): node,
        ("enumerate_updown_paths", "m1"): (ValueError, "node {v} is not minimal"),
        ("enumerate_updown_paths", "m2"): (ValueError, "node {v} is not minimal"),
        ("admissible_upper_bound", "leaf"): (ValueError, "node {v} is not a leaf of this group"),
        ("block_infinity_norm", "block_size"): blocks,
        ("sampled_block_norm_lower_bound", "block_size"): blocks,
        ("sampled_block_norm_lower_bound", "samples"): nonnegative,
        ("sampled_block_norm_lower_bound", "seed"): nonnegative,
        ("random_tree", "seed"): nonnegative,
        ("random_tree", "min_nodes"): nonnegative,
        ("random_tree", "max_nodes"): nonnegative,
        ("random_dag", "seed"): nonnegative,
        ("random_dag", "min_nodes"): nonnegative,
        ("random_dag", "max_nodes"): nonnegative,
        ("random_dag", "max_minimal"): nonnegative,
        ("random_tree_system", "seed"): nonnegative,
        ("random_tree_system", "dim"): nonnegative,
        ("iteration_budget", "rho"): real,
        ("iteration_budget", "target"): real,
        ("iteration_budget", "cap"): positive,
        ("grid_from_spec", "axis_count"): nonnegative,
        ("check_sweep_axes", "node_count"): nonnegative,
        ("omega_sweep", "baseline"): real,
        ("compare_structures", "baseline"): real,
        ("reproduce", "seed"): nonnegative,
    }
    pairs = _annotated_pairs(_scalar_kind)
    cases = []
    for (name, param), rule in expected.items():
        error, message = rule if isinstance(rule, tuple) else (ValueError, rule + ", got {v}")
        call, kwargs = calls[name]
        for kind in _scalar_kinds(pairs[name, param]):
            value = _SCALAR_VALUES[kind]
            text = re.escape(message.format(p=param, v=repr(value)))
            cases.append((f"{name}-{param}-scalar-{kind}",
                          lambda call=call, kwargs={**kwargs, param: value}: call(**kwargs),
                          error, f"^{text}$"))
    return cases


_BOUNDARY = _boundary_cases()


@pytest.mark.parametrize("case", _BOUNDARY, ids=[c[0] for c in _BOUNDARY])
def test_every_malformed_input_at_the_boundary_raises_a_named_error(case, capfd):
    """Each malformed input ends in its named error and message; stdout and stderr stay empty."""
    _, call, error, message = case
    with pytest.raises(error, match=message):
        call()
    assert capfd.readouterr() == ("", "")


def _missing_and_stray(suffixes: dict, marker: str) -> tuple[list[str], list[str]]:
    """Case ids that ``suffixes`` (pair: id endings) wants and the table lacks, then the strays.

    A stray is a case whose id holds ``marker`` and that no pair wants.
    """
    wanted = {f"{name}-{param}-{end}" for (name, param), ends in suffixes.items() for end in ends}
    cases = {case[0] for case in _BOUNDARY if marker in case[0]}
    return sorted(wanted - cases), sorted(cases - wanted)


def test_every_value_argument_of_the_public_api_has_a_wrong_type_case():
    """Each annotated pair has a ``<callable>-<param>-type`` boundary case, and no case is stray."""
    pairs = _annotated_pairs(_value_classes)
    missing, stray = _missing_and_stray(dict.fromkeys(pairs, ["type"]), "-type")
    assert missing == [], "annotated value arguments without a wrong-type case"
    assert stray == [], "wrong-type cases that name no annotated value argument"


def test_every_integer_and_real_argument_of_the_public_api_has_scalar_cases():
    """Each ``int`` or ``float`` pair has its ``-scalar-<kind>`` cases, and no case is stray.

    An ``int`` pair wants a str, a bool and a float case, a ``float`` pair
    the first two.
    """
    pairs = _annotated_pairs(_scalar_kind)
    ends = {pair: [f"scalar-{k}" for k in _scalar_kinds(h)] for pair, h in pairs.items()}
    missing, stray = _missing_and_stray(ends, "-scalar-")
    assert missing == [], "integer and real arguments without their scalar cases"
    assert stray == [], "scalar cases that name no integer or real argument"


def test_every_exemption_names_a_walked_argument():
    """No entry of :data:`_EXEMPT` is stale: each names a walked callable or an annotated pair."""
    walked = _annotated_pairs(lambda hint: True, exempt=False)
    names = {name for name, _ in walked} | {f"{name}-{param}" for name, param in walked}
    assert sorted(set(_EXEMPT) - names) == []


@pytest.mark.parametrize("member", [4.0, True, "4", 4.5])
def test_a_member_that_is_no_node_id_is_an_unknown_node_violation(member):
    """binary7 with the group {3, member}: the member is named once and left out of the scans."""
    net = ex.binary7_network()
    found = tp.validate_subnetworks(net, tp.SubnetworkPartition([[3, member], [5, 6]]))
    assert [(v.kind, v.detail, v.where) for v in found] == [
        ("coverage", "leaf 4 is in no group", (4,)),
        ("unknown-node", f"group 0 references node {member!r}", (member,)),
        ("condition-1", "group 0: sibling 4 of leaf 3 is missing", (3, 4)),
    ]


def test_unknown_ids_of_different_types_are_sorted_without_comparing_them():
    net = ex.binary7_network()
    part = tp.SubnetworkPartition([[3, 4, 9, "x", -1, 2.5]])
    assert [v.where for v in tp.validate_subnetworks(net, part) if v.kind == "unknown-node"] == [
        (2.5,), (-1,), (9,), ("x",)
    ]


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

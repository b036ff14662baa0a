"""Facts of the network alone live on its schedule; the pass kernel holds only what a pass needs.

``Schedule.masses``, the per-node totals of the pooled path weights, is
walked on the first read and kept, read-only; a copy or a pickle of a
network drops it and walks equal masses again (``tests/test_dag.py`` holds
them to the pathwise oracle).  ``Schedule.axis_degrees`` counts a sweep
axis's nodes on one dispersion chain.  A ``BlockStructure`` holds its
network, a value class, instead of a kernel, so it and its copies and
pickles compare equal by value.

Two rules ride along: the dichotomy check reads a DAG's block map one block
per minimal node, on the unit rows the pass reads, and every tree-only
entry point given a ``DagNetwork``, like every DAG-only one given a
``TreeNetwork``, raises the one network-type ``TypeError``.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import DimensionError

from oracles import layered_dag

COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def test_masses_are_walked_on_the_first_read_and_kept_read_only():
    net = ex.figure_dag()
    schedule = net.schedule
    assert "masses" not in vars(schedule)  # building the schedule does not walk them
    masses = schedule.masses
    assert schedule.masses is masses and net.schedule.masses is masses
    assert masses.shape == (2, 6) and not masses.flags.writeable
    with pytest.raises(ValueError):
        masses[0, 0] = 7.0
    assert schedule == ex.figure_dag().schedule  # equality reads the fields, not the cache


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_copies_drop_the_cached_masses_and_walk_equal_ones(how):
    net = layered_dag(3, 4)
    masses = net.schedule.masses
    again = COPIERS[how](net)
    assert "schedule" not in vars(again)
    assert np.array_equal(again.schedule.masses, masses)
    assert again.schedule.masses is not masses and not again.schedule.masses.flags.writeable
    schedule = COPIERS[how](net.schedule)
    assert "masses" not in vars(schedule) and np.array_equal(schedule.masses, masses)


def _brute_degrees(net, axes):
    """The most nodes of each axis on one dispersion chain, chain by chain."""
    if isinstance(net, tp.TreeNetwork):
        chains = [net.path_from_root(v) for v in net.leaves()]
    else:
        chains = [p.nodes for p in tp.enumerate_dispersion_paths(net)[0]]
    return [max(len(set(axis) & set(chain)) for chain in chains) for axis in axes]


@pytest.mark.parametrize("seed", range(12))
def test_axis_degrees_count_the_axis_nodes_on_one_chain(seed):
    rng = np.random.default_rng(seed)
    net = ex.random_dag(seed, max_nodes=9) if seed % 2 else ex.random_tree(seed, max_nodes=12)
    nodes = rng.permutation(net.node_count)
    axes = [sorted(a.tolist()) for a in np.array_split(nodes, 3) if a.size]
    assert net.schedule.axis_degrees(axes) == _brute_degrees(net, axes)


def test_the_kernel_defines_no_network_facts_and_no_equality():
    assert not {"masses", "axis_degrees", "__eq__"} & set(vars(sv._Pass))


def test_a_block_structure_holds_its_network_not_a_kernel():
    net, system = ex.figure_dag(), ex.random_dag_system(7, ex.figure_dag(), 4)
    bs = cf.dag_block_structure(system, net, sv.RelaxationAssignment.uniform(6, 1.3))
    held = [getattr(bs, f.name) for f in dataclasses.fields(bs)]
    assert not any(isinstance(x, sv._Pass) for x in held)
    assert bs.network == net and bs.masses is bs.network.schedule.masses
    assert "network" not in repr(bs)
    for how in COPIERS.values():
        again = how(bs)
        assert again == bs and np.array_equal(again.masses, bs.masses)


def test_the_limit_study_takes_its_target_from_the_minimizer(monkeypatch):
    net = ex.binary7_network()
    system = ex.random_tree_system(3, net, dim=5)
    relax = sv.RelaxationAssignment.uniform(7, 1.0)
    want = cf.weighted_ls_minimizer(system, net, relax)
    calls = []

    def spy(*args):
        calls.append(args)
        return want

    monkeypatch.setattr(cf, "weighted_ls_minimizer", spy)
    rows = ex.lsq_limit_study(system, net, relax, [1.0, 0.5])
    assert len(calls) == 1 and len(rows) == 2
    basis = cf.row_space_basis(system)
    fp = cf.fixed_point(cf.tree_affine(system, net, relax.scaled(0.5)), basis)
    assert rows[1].distance == float(np.linalg.norm(fp - want))


# ---------------------------------------------------------------------------
# The dichotomy check on a DAG's block map


def _dichotomy_instance(seed, rng):
    """A random DAG at d in {2, V, V + 3} with real, complex or rank-deficient rows."""
    net = ex.random_dag(seed, single_sink=seed % 2 == 0, max_nodes=8)
    v = net.node_count
    d = (2, v, v + 3)[seed % 3]
    kind = (seed // 3) % 3
    if kind == 2:  # rank deficient
        r = max(1, min(d, v) - 1)
        rows = rng.standard_normal((v, r)) @ rng.standard_normal((r, d))
    else:
        rows = rng.standard_normal((v, d)) + kind * 1j * rng.standard_normal((v, d))
    system = sv.LinearSystem(rows, rng.standard_normal(v))
    return net, system, sv.RelaxationAssignment(rng.uniform(0.2, 1.8, v))


@pytest.mark.parametrize("seed", range(36))
def test_the_dichotomy_holds_on_dag_block_maps(seed):
    net, system, relax = _dichotomy_instance(seed, np.random.default_rng(seed))
    bs = cf.dag_block_structure(system, net, relax)
    report = cf.eigen_dichotomy_check(bs.aggregate, system)
    basis = cf.row_space_basis(system)
    assert report.holds and report.unit_vectors_in_null_space
    assert report.unit_count == report.nullity == system.ambient_dim - len(basis)
    assert report.rho_restricted == cf.dag_restricted_rho(bs, basis)
    assert len(report.eigenvalues) == bs.s * system.ambient_dim


@pytest.mark.parametrize("d", [4, 8])
def test_the_dichotomy_reads_the_example_dag_at_any_dimension(d):
    net = ex.figure_dag()
    system = ex.random_dag_system(7, net, d)
    bs = cf.dag_block_structure(system, net, sv.RelaxationAssignment.uniform(6))
    report = cf.eigen_dichotomy_check(bs.aggregate, system)
    assert report.holds and report.unit_count == report.nullity == max(0, d - 6)


@pytest.mark.parametrize("name", ["binary7", "figure_dag"])
@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6, 1e9])
def test_the_dichotomy_does_not_depend_on_the_row_scale(name, scale):
    """Every row and right-hand side scaled alike leaves B, so the verdict, as at scale 1.

    The pass reads each row as ``a_v / |a_v|``, and the null-space test
    reads the same unit rows: binary7 at d = 9 and the figure DAG at d = 8,
    both of nullity 2.
    """
    net, d = (ex.binary7_network(), 9) if name == "binary7" else (ex.figure_dag(), 8)
    system = ex.random_tree_system(0, net, d)
    relax = sv.RelaxationAssignment.uniform(net.node_count)

    def verdict(sys_):
        report = cf.eigen_dichotomy_check(cf.dag_block_structure(sys_, net, relax).aggregate, sys_)
        return report.holds, report.unit_count, report.nullity

    scaled = sv.LinearSystem(system.rows * scale, system.rhs * scale)
    assert verdict(system) == (True, 2, 2)
    assert verdict(scaled) == verdict(system)


def test_the_dichotomy_names_a_map_that_splits_into_no_blocks(monkeypatch):
    system = sv.LinearSystem(np.eye(2), np.ones(2))

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve before the block check")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    with pytest.raises(DimensionError, match="blocks of size 2"):
        cf.eigen_dichotomy_check(cf.AffineIteration(0.5 * np.eye(5), np.zeros(5)), system)


# ---------------------------------------------------------------------------
# Tree-only and DAG-only entry points name the network type they expect


def _tree_only_routes():
    net = ex.figure_dag()
    system, relax = ex.random_dag_system(7, net, 4), sv.RelaxationAssignment.uniform(6)
    part, group = tp.SubnetworkPartition.of([{4, 5}]), {4, 5}
    # a group already resolved on a tree is checked against the network too
    resolved = tp.resolve_groups(ex.binary7_network(), ex.binary7_leaf_partition())[0]
    return {
        "validate_subnetworks": lambda: tp.validate_subnetworks(net, part),
        "resolve_groups": lambda: tp.resolve_groups(net, part),
        "resolve_no_groups": lambda: tp.resolve_groups(net, tp.SubnetworkPartition.of([])),
        "root_subtree_partition": lambda: tp.root_subtree_partition(net),
        "leaf_sibling_partition": lambda: tp.leaf_sibling_partition(net),
        "group_operator": lambda: cf.group_operator(system, net, group, relax),
        "subnetwork_norm": lambda: cf.subnetwork_norm(system, net, group, relax),
        "leaf_norm_formula": lambda: cf.leaf_norm_formula(system, net, group, relax),
        "admissible_upper_bound": lambda: cf.admissible_upper_bound(system, net, group, 4),
        "group_operator_resolved": lambda: cf.group_operator(system, net, resolved, relax),
        "subnetwork_norm_resolved": lambda: cf.subnetwork_norm(system, net, resolved, relax),
        "leaf_norm_formula_resolved": lambda: cf.leaf_norm_formula(system, net, resolved, relax),
        "admissible_upper_bound_resolved": lambda: cf.admissible_upper_bound(
            system, net, resolved, 4
        ),
    }


@pytest.mark.parametrize("name", list(_tree_only_routes()))
def test_tree_only_entry_points_reject_a_dag_by_type(name):
    with pytest.raises(TypeError, match="expected a TreeNetwork, got DagNetwork"):
        _tree_only_routes()[name]()


def _dag_only_routes():
    net = ex.binary7_network()
    return {
        "minimal_distance_diameter": lambda: tp.minimal_distance_diameter(net),
        "enumerate_dispersion_paths": lambda: tp.enumerate_dispersion_paths(net),
        "validate_dag": lambda: tp.validate_dag(net),
    }


@pytest.mark.parametrize("name", list(_dag_only_routes()))
def test_dag_only_entry_points_reject_a_tree_by_type(name):
    with pytest.raises(TypeError, match="expected a DagNetwork, got TreeNetwork"):
        _dag_only_routes()[name]()


def test_the_limit_study_runs_one_svd_of_the_rows(monkeypatch):
    net = ex.binary7_network()
    system = ex.random_tree_system(3, net, dim=5)
    relax = sv.RelaxationAssignment.uniform(7, 1.0)
    shapes, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rows = ex.lsq_limit_study(system, net, relax, [1.0, 0.5, 0.25])
    assert len(rows) == 3 and shapes == [system.rows.shape]

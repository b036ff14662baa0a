"""One layout per network: Kahn's levels serve order, schedule, validation and path weights.

A network walks its Kahn levels once and every route reads them.  On random
parent maps (valid trees and broken ones: missing parents, parents past the
node range, cycles, a parent entry on the root) and on random, single-sink
and layered DAGs, the levels are the longest-path depths with ties by
ascending id, ``order`` is the levels one after another and equals the
pass schedule's order, tree connectivity violations are exactly the nodes
whose parent walk misses the root, a tree rebuilt from its own tables lays
out the same, and the root-to-node path weights equal the schedule's masses.
A tree and its one-source DAG twin (dispersion weights 1, the tree's
weights for pooling) share one layout, so their schedules, maps, solves and
sweeps are equal bit for bit.
"""

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import InvalidNetworkError

from oracles import layered_dag, nodes_not_reaching_root

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def parent_maps(draw):
    """``(n, root, parent)`` drawn as a broken tree might be: ids past the range have no parent."""
    n = draw(st.integers(1, 12))
    root = draw(st.integers(0, n - 1))
    parent = {}
    for v in range(n):
        u = draw(st.one_of(st.none(), st.integers(0, n + 1)))
        if u is not None and v != root:
            parent[v] = u
    if n > 1 and draw(st.booleans()):
        parent[root] = draw(st.integers(0, n - 1))  # a parent on the root is ignored
    return n, root, parent


@st.composite
def trees(draw):
    """A random recursive tree on shuffled labels, weights omitted."""
    n = draw(st.integers(1, 30))
    label = draw(st.permutations(range(n)))
    edges = [(label[draw(st.integers(0, i - 1))], label[i]) for i in range(1, n)]
    return tp.TreeNetwork.from_edges(n, label[0], edges)


@st.composite
def dags(draw):
    shape = draw(st.sampled_from(["random", "single-sink", "layered"]))
    if shape == "layered":
        return layered_dag(draw(st.integers(2, 5)), draw(st.integers(2, 6)))
    seed = draw(st.integers(0, 2**32 - 1))
    sink = shape == "single-sink"
    return ex.random_dag(seed, min_nodes=3, max_nodes=30, max_minimal=5, single_sink=sink)


def depths(node_count, preds, start=None):
    """Longest-path depth of every node from ``start`` (else from the nodes without
    predecessors), found by relaxing every edge until nothing changes; None when unreached."""
    depth = [None] * node_count
    for v in range(node_count):
        if (v == start) if start is not None else not preds[v]:
            depth[v] = 0
    changed = True
    while changed:
        changed = False
        for v in range(node_count):
            if v == start or not preds[v] or any(depth[u] is None for u in preds[v]):
                continue
            d = 1 + max(depth[u] for u in preds[v])
            if depth[v] != d:
                depth[v], changed = d, True
    return depth


def assert_levels_are_depths(levels, depth):
    by_depth = {}
    for v, d in enumerate(depth):
        if d is not None:
            by_depth.setdefault(d, []).append(v)  # ascending id within a depth
    assert levels == tuple(tuple(by_depth[d]) for d in range(len(by_depth)))


@SETTINGS
@given(parent_maps())
def test_tree_levels_are_depths_and_miss_exactly_the_disconnected_nodes(case):
    n, root, parent = case
    net = tp.TreeNetwork(n, root, parent, {})
    preds = [() if v == root or parent.get(v) not in range(n) else (parent[v],) for v in range(n)]
    assert_levels_are_depths(net.levels, depths(n, preds, start=root))
    assert net.order == tuple(v for level in net.levels for v in level)
    missed = nodes_not_reaching_root(parent, root, n)
    assert sorted(set(range(n)) - set(net.order)) == missed
    got = [v.where[0] for v in tp.validate_tree(net) if v.kind == "connectivity"]
    assert got == missed
    if missed:
        with pytest.raises(InvalidNetworkError):
            net.schedule


@SETTINGS
@given(dags())
def test_dag_levels_are_longest_path_depths(net):
    preds = [net.predecessors[v] for v in range(net.node_count)]
    assert_levels_are_depths(net.levels, depths(net.node_count, preds))
    assert net.order == tuple(v for level in net.levels for v in level)
    assert tp.topological_order(net) == list(net.order)
    assert net.schedule.order.tolist() == list(net.order)
    assert net.schedule.sources == net.levels[0] == net.minimal_nodes


def schedule_tables(schedule):
    """Every table of a schedule, flattened: its arrays, level bounds and copy positions."""
    tables = [schedule.order, schedule.sources, schedule.maximal, schedule.pool, schedule.size]
    for lv in schedule.levels:
        tables += [lv.start, lv.stop, lv.pred, lv.w_d, lv.copy]  # copy may be None
    return tables


@SETTINGS
@given(trees())
def test_a_tree_rebuilt_from_its_tables_lays_out_the_same(net):
    preds = [() if v == net.root else (net.parent[v],) for v in range(net.node_count)]
    assert_levels_are_depths(net.levels, depths(net.node_count, preds, start=net.root))
    assert net.schedule.order.tolist() == list(net.order)
    assert net.schedule.sources == (net.root,) == net.levels[0]
    rebuilt = tp.TreeNetwork(net.node_count, net.root, dict(net.parent), dict(net.edge_weight))
    assert rebuilt.children == net.children and rebuilt.levels == net.levels
    a, b = schedule_tables(net.schedule), schedule_tables(rebuilt.schedule)
    assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 60))
def test_path_weights_are_the_kernel_masses(seed, size):
    net = ex.random_tree(seed, 2, size)
    masses = net.schedule.masses
    weights = [tp.path_weight(net, net.root, v) for v in range(net.node_count)]
    np.testing.assert_allclose(masses[0], weights, rtol=1e-12, atol=0.0)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5), complex_rows=st.booleans())
def test_a_tree_and_its_dag_twin_run_bit_for_bit_alike(seed, dim, complex_rows):
    net = ex.random_tree(seed, 1, 14)
    edges = [(u, v, 1.0, w) for (u, v), w in net.edge_weight.items()]
    twin = tp.DagNetwork.from_cover_edges(net.node_count, edges)
    assert twin.violations == () and twin.schedule == net.schedule
    system = ex.random_tree_system(seed, net, dim=dim, complex_entries=complex_rows)
    rng = np.random.default_rng(seed)
    relax = sv.RelaxationAssignment(rng.uniform(0.2, 1.8, net.node_count))
    tree_map = cf.tree_affine(system, net, relax)
    dag_map = cf.dag_block_structure(system, twin, relax).aggregate
    assert np.array_equal(tree_map.B, dag_map.B) and np.array_equal(tree_map.c, dag_map.c)
    config = sv.SolverConfig(max_iterations=25)
    tree_run, dag_run = sv.solve(system, net, relax, config), sv.solve(system, twin, relax, config)
    (dag_estimate,) = dag_run.final_estimates
    assert np.array_equal(tree_run.final_estimates, dag_estimate)
    assert np.array_equal(tree_run.step_norms, dag_run.step_norms)
    omega = rng.uniform(0.2, 1.8, (net.node_count, 7))
    rho = cf.restricted_rho(system, net, omega)
    assert np.array_equal(rho, cf.restricted_rho(system, twin, omega))

"""Walking one point's levels with the node maps, and the rule that picks the assembly.

``solver._Pass._walked`` applies every node's homogeneous ``(d + 1)``-square
map (``_Pass._node_maps``, the maps that pointer doubling composes) one
level at a time, after one gather or blend of the predecessor states.  It
must equal the node-by-node pass (``oracles.nodewise_push``) within 1e-12
of the largest entry on DAGs with several sources and skip edges, on one-
and two-node networks and on trees the doubling rule leaves to the levels,
with real, complex or rank-deficient rows, at every d from 1 to the largest
d at which ``solver._one_point`` walks.  One d above that the rule keeps
the rank-1 push.  A walk that overflows returns inf or NaN entries without
a floating-point warning (the suite turns every warning into an error).
"""

import itertools
import math

import numpy as np
import pytest

from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp

from oracles import layered_dag, nodewise_push

TOL = 1e-12  # relative to the largest entry of the node-by-node map


def chain(n):
    return tp.TreeNetwork.from_edges(n, 0, [(v - 1, v) for v in range(1, n)])


def recursive_tree(n, seed):
    rng = np.random.default_rng(seed)
    return tp.TreeNetwork.from_edges(n, 0, [(int(rng.integers(0, v)), v) for v in range(1, n)])


NETWORKS = {
    "random-dag-0": lambda: ex.random_dag(0, max_nodes=10),  # 2 sources, skip edges
    "random-dag-13": lambda: ex.random_dag(13, max_nodes=10),  # 3 sources, skip edges
    "single-sink-dag": lambda: ex.random_dag(5, single_sink=True),
    "layered-3x6": lambda: layered_dag(3, 6),
    "single-node-dag": lambda: tp.DagNetwork.from_cover_edges(1, []),
    "two-node-dag": lambda: tp.DagNetwork.from_cover_edges(2, [(0, 1)]),
    "single-node-tree": lambda: chain(1),
    "two-node-tree": lambda: chain(2),
    "recursive-121": lambda: recursive_tree(121, 0),
}
ROWS = {
    "real": {},
    "complex": {"complex_entries": True},
    "rank-deficient": {"rank_deficient": True},
}


def system_for(net, dim, **kinds):
    make = ex.random_tree_system if isinstance(net, tp.TreeNetwork) else ex.random_dag_system
    return make(dim, net, dim=dim, **kinds)


def nodewise_map(system, net, omega):
    """One point's ``(1, n, n + 1)`` map ``[B | c]`` from the node-by-node pass."""
    s, d = len(net.schedule.sources), system.ambient_dim
    eye = np.eye(s * d + 1)
    blocks = nodewise_push(system, net, eye[:-1].reshape(s, d, -1), eye[-1], omega)
    return blocks.reshape(1, s * d, -1)


def walk_limit(net, complex_rows):
    """The largest d at which the rule prefers the walk to the push (doubling aside)."""
    sch = net.schedule
    nodes, levels, s = len(sch.order), len(sch.levels), len(sch.sources)
    d = 0
    while sv._one_point(nodes, levels, s * (d + 1) + 1, d + 1, complex_rows, tree=False) == "walked":
        d += 1
    return d


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("name", NETWORKS)
def test_the_walk_equals_the_nodewise_pass_up_to_the_walk_limit(name, rows):
    net = NETWORKS[name]()
    limit = walk_limit(net, rows == "complex")
    assert limit >= 2
    rng = np.random.default_rng(limit)
    for dim in range(1, limit + 1):
        system = system_for(net, dim, **ROWS[rows])
        om = rng.uniform(0.0, 2.0, net.node_count)
        ref = nodewise_map(system, net, om)
        got = sv._Pass(system, net)._walked(om)
        assert got.shape == ref.shape and got.dtype == system.rows.dtype
        assert np.max(np.abs(got - ref)) <= TOL * np.max(np.abs(ref)), dim


def test_the_walk_limits_of_the_test_networks():
    """These DAGs walk with real rows past d = 12, and with complex rows to a lower d."""
    for name in ("random-dag-0", "layered-3x6"):
        net = NETWORKS[name]()
        assert walk_limit(net, False) >= 12
        assert 2 <= walk_limit(net, True) < walk_limit(net, False)


def _spied(monkeypatch):
    calls = []
    for name in ("push", "_walked", "_doubled"):
        real = getattr(sv._Pass, name)
        def spy(self, *args, _real=real, _name=name):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(sv._Pass, name, spy)
    return calls


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("name", ["random-dag-13", "layered-3x6", "recursive-121"])
def test_one_d_above_the_walk_limit_takes_the_push(name, complex_rows, monkeypatch):
    net = NETWORKS[name]()
    limit = walk_limit(net, complex_rows)
    calls = _spied(monkeypatch)
    kinds = ROWS["complex" if complex_rows else "real"]
    for dim, choice, route in ((limit, "walked", "_walked"), (limit + 1, "pushed", "push")):
        system = system_for(net, dim, **kinds)
        run = sv._Pass(system, net)
        assert run.one_point == choice
        om = np.full(net.node_count, 1.3)
        calls.clear()
        (got,) = run.affine(om)
        assert calls == [route]
        ref = nodewise_map(system, net, om)
        assert np.max(np.abs(got - ref[0])) <= TOL * np.max(np.abs(ref))


def test_the_rule_walks_the_bench_dags_and_shallow_trees():
    """Layered DAGs at d = 6..8 and recursive-121 at d = 8 walk; d = 40 pushes."""
    for dim in (6, 7, 8):
        assert sv._Pass(system_for(layered_dag(4, 7), dim), layered_dag(4, 7)).one_point == "walked"
    tree = recursive_tree(121, 0)
    assert sv._Pass(system_for(tree, 8), tree).one_point == "walked"
    assert sv._one_point(121, 10, 9, 8, False, tree=False) == "walked"
    assert sv._one_point(121, 10, 41, 40, False, tree=False) == "pushed"


def _cheapest(nodes, levels, columns, dim, complex_rows, tree):
    """README's prices for one point, V nodes on D levels with m = s d + 1 columns.

    Push ``120 D``, walk ``48 D + V (1 + m (d+1)^2 / 800) c``, doubling (trees
    only) ``V ceil(log2 D) (1 + (d+1)^3 / 600) c``, with c = 4 for complex rows
    and 1 for real ones; ties go doubled, then walked, then pushed.
    """
    c = 4 if complex_rows else 1
    prices = {
        "pushed": 120 * levels,
        "walked": 48 * levels + nodes * (1 + columns * (dim + 1) ** 2 / 800) * c,
    }
    if tree:
        prices["doubled"] = nodes * math.ceil(math.log2(levels)) * (1 + (dim + 1) ** 3 / 600) * c
    ties = ["doubled", "walked", "pushed"]
    return min(prices, key=lambda way: (prices[way], ties.index(way)))


def test_the_rule_takes_the_cheapest_of_the_readme_prices():
    """V up to 5,000, D <= V, s in {1, 2, 4, 16} (1 on trees), d = 1..69, real and complex."""
    sizes = (1, 2, 3, 7, 10, 31, 64, 121, 500, 1000, 1500, 3000, 5000)
    depths = (1, 2, 3, 4, 5, 8, 12, 33, 65, 121, 500, 1024, 1500, 5000)
    seen, count = set(), 0
    for nodes, levels in ((v, D) for v in sizes for D in depths if D <= v):
        for tree, ss in ((True, (1,)), (False, (1, 2, 4, 16))):
            for s, dim, complex_rows in itertools.product(ss, range(1, 70), (False, True)):
                args = (nodes, levels, s * dim + 1, dim, complex_rows, tree)
                assert sv._one_point(*args) == _cheapest(*args), args
                seen.add(_cheapest(*args))
                count += 1
    assert count == 71_760 and seen == {"doubled", "walked", "pushed"}
    # exact ties: doubling and the walk both cost 387 on a tree (the push 720); the walk
    # and the push both cost 360 on a DAG with complex rows
    for args, way in (((9, 6, 20, 19, False, True), "doubled"), ((16, 3, 19, 9, True, False), "walked")):
        assert sv._one_point(*args) == _cheapest(*args) == way


def test_omega_stacks_keep_the_push(monkeypatch):
    net = layered_dag(3, 4)
    system = system_for(net, 3)
    run = sv._Pass(system, net)
    assert run.one_point == "walked"
    calls = _spied(monkeypatch)
    stack = np.random.default_rng(1).uniform(0.5, 1.5, (net.node_count, 2))
    maps = run.affine(stack)
    assert calls == ["push"]
    for p in range(2):
        ref = nodewise_map(system, net, stack[:, p])
        assert np.max(np.abs(maps[p] - ref[0])) <= TOL * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "net", [chain(1500), layered_dag(2, 1000)], ids=["chain-1500", "layered-2x1000"]
)
def test_an_overflowing_walk_returns_non_finite_entries_without_a_warning(net):
    """At ω = 8 the maps grow geometrically down the levels and pass the float range."""
    system = system_for(net, 3)
    run = sv._Pass(system, net)
    run.one_point = "walked"
    (got,) = run.affine(np.full(net.node_count, 8.0))
    assert got.shape == (run.width - 1, run.width)
    assert not np.isfinite(got).all()

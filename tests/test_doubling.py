"""Pointer-doubling assembly of a tree's pass map, its rule and its overflow errors.

``solver._Pass._doubled`` composes every node's homogeneous update with the
map of its 2^k-th ancestor for ``ceil(log2 D)`` rounds; it must equal the
node-by-node pass (``oracles.nodewise_push``) within 1e-12 of the largest
entry on deep, wide and tiny trees, with real, complex or rank-deficient
rows, at ω from 0 to 8.  ``solver._one_point`` picks it for deep, narrow real
trees at small d only; DAGs and ω stacks keep the level kernel.  A map that
overflows fails by name on either route, without a floating-point warning
(the suite turns every warning into an error).
"""

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import DivergenceError, NumericalFailureError

from oracles import caterpillar, layered_dag, nodewise_push

TOL = 1e-12  # relative to the largest entry of the node-by-node map


def chain(n):
    return tp.TreeNetwork.from_edges(n, 0, [(v - 1, v) for v in range(1, n)])


def star(n):
    return tp.TreeNetwork.from_edges(n, 0, [(0, v) for v in range(1, n)])


def recursive_tree(n, seed):
    """Node v hangs under a uniform earlier node, as the bench's random recursive trees."""
    rng = np.random.default_rng(seed)
    return tp.TreeNetwork.from_edges(n, 0, [(int(rng.integers(0, v)), v) for v in range(1, n)])


TREES = {
    "caterpillar-121": lambda: caterpillar(121),
    "chain-1500": lambda: chain(1500),
    "star-200": lambda: star(200),
    "single-node": lambda: chain(1),
    "two-node": lambda: chain(2),
}
ROWS = {
    "real": {},
    "complex": {"complex_entries": True},
    "rank-deficient": {"rank_deficient": True},
}


def nodewise_map(system, net, omega):
    d = system.ambient_dim
    eye = np.eye(d + 1)
    return nodewise_push(system, net, eye[:d].reshape(1, d, -1), eye[d], omega)


# the chain at ω = 8 grows like 7^1500 and overflows: test_an_overflowing_map_fails_by_name
CASES = [
    (tree, rows, omega)
    for tree in TREES
    for rows in ROWS
    for omega in (0.0, 1.0, 1.9, 8.0)
    if (tree, omega) != ("chain-1500", 8.0)
]


@pytest.mark.parametrize("tree, rows, omega", CASES)
def test_doubling_equals_the_nodewise_pass(tree, rows, omega):
    net = TREES[tree]()
    system = ex.random_tree_system(7, net, dim=8 if rows == "real" else 3, **ROWS[rows])
    om = np.full(net.node_count, omega)
    ref = nodewise_map(system, net, om)
    got = sv._Pass(system, net)._doubled(om)
    assert got.shape == ref.shape == (1, system.ambient_dim, system.ambient_dim + 1)
    assert np.max(np.abs(got - ref)) <= TOL * np.max(np.abs(ref))


def test_doubling_takes_per_node_relaxations():
    net = caterpillar(31)
    system = ex.random_tree_system(3, net, dim=4)
    om = np.random.default_rng(3).uniform(0.0, 2.0, net.node_count)
    ref = nodewise_map(system, net, om)
    (got,) = sv._Pass(system, net).affine(om)
    assert np.max(np.abs(got - ref)) <= TOL * np.max(np.abs(ref))


def _kernel(net, dim, **kinds):
    return sv._Pass(ex.random_tree_system(1, net, dim=dim, **kinds), net)


def test_the_rule_doubles_the_deep_bench_tree_only():
    """Caterpillar-121 at d = 8 doubles; recursive-121, d = 32 and complex rows keep the levels."""
    assert _kernel(caterpillar(121), 8).one_point == "doubled"
    shallow = recursive_tree(121, 0)
    assert len(shallow.levels) <= 11
    assert _kernel(shallow, 8).one_point != "doubled"
    assert _kernel(caterpillar(121), 32).one_point != "doubled"
    assert _kernel(caterpillar(121), 8, complex_entries=True).one_point != "doubled"
    assert _kernel(star(200), 4).one_point != "doubled"
    assert _kernel(chain(1500), 8).one_point == "doubled"


@pytest.mark.parametrize(
    "net",
    [ex.figure_dag(), layered_dag(3, 4), ex.random_dag(5, single_sink=True)]
    + [tp.DagNetwork.from_cover_edges(3, [(0, 2), (1, 2)])],
)
def test_dags_keep_the_level_kernel(net):
    run = sv._Pass(ex.random_dag_system(2, net, dim=2), net)
    assert net.schedule.parent is None and run.one_point != "doubled"


def test_omega_stacks_keep_the_level_kernel(monkeypatch):
    net = caterpillar(121)
    system = ex.random_tree_system(1, net, dim=3)
    run = sv._Pass(system, net)
    assert run.one_point == "doubled"
    calls = []
    monkeypatch.setattr(sv._Pass, "_doubled", lambda *args: calls.append(args))
    stack = np.random.default_rng(0).uniform(0.5, 1.5, (net.node_count, 3))
    maps = run.affine(stack)
    assert maps.shape == (3, 3, 4) and not calls
    for p in range(3):
        ref = nodewise_map(system, net, stack[:, p])
        assert np.max(np.abs(maps[p] - ref[0])) <= TOL * np.max(np.abs(ref))


def test_the_parent_table_is_read_only_and_lists_each_parent_position():
    net = caterpillar(9)
    sch = net.schedule
    with pytest.raises(ValueError):
        sch.parent[1] = 0
    position = {int(v): p for p, v in enumerate(sch.order)}
    n = net.node_count
    want = [n] * (n + 1)
    for v, u in net.parent.items():
        want[position[v]] = position[u]
    assert sch.parent.tolist() == want


@pytest.fixture
def overflowing():
    """A 1,500-deep chain at ω = 8, the top of the CLI's default sweep range: 7^1500 overflows."""
    net = chain(1500)
    return ex.random_tree_system(0, net, dim=3), net, sv.RelaxationAssignment.uniform(1500, 8.0)


@pytest.mark.parametrize("doubling", [True, False])
def test_an_overflowing_map_fails_by_name(overflowing, doubling, monkeypatch):
    system, net, relax = overflowing
    real = sv._one_point
    monkeypatch.setattr(
        sv, "_one_point", lambda *args: "doubled" if doubling else real(*args[:5], tree=False)
    )
    assert (sv._Pass(system, net).one_point == "doubled") is doubling
    with pytest.raises(NumericalFailureError, match="assembled pass map overflowed"):
        cf.tree_affine(system, net, relax)
    with pytest.raises(NumericalFailureError, match="assembled pass map overflowed"):
        cf.restricted_rho(system, net, np.full((1500, 1), 8.0))
    with pytest.raises(DivergenceError) as err:
        sv.solve(system, net, relax)
    assert err.value.iteration == 1 and err.value.route == "affine"

"""The level-synchronous pass kernel equals the node-by-node pass on every shape class.

``solver._Pass.push`` updates a whole level of nodes per step and pools with
one mass-weighted sum; ``oracles.nodewise_push`` walks the nodes one at a
time and pools successor by successor, as the kernel did before.  On
chains, caterpillars and stars of up to about 1,000 nodes, random recursive
trees, and random, single-sink, layered and complete-bipartite DAGs, with
real, complex or rank-deficient rows, the two agree within 1e-12 of the
largest entry for one vector per minimal node, for identity columns (the
assembled map) and for a stack of grid points with one ω per column.
"""

import numpy as np
import pytest

from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp

from oracles import caterpillar, layered_dag, nodewise_push

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=6)
TOL = 1e-12  # relative to the largest entry of the node-by-node result
SHAPES = [
    "chain", "caterpillar", "star", "recursive", "random", "single-sink", "layered", "bipartite",
]
INPUTS = ["vector", "identity", "stack"]


@st.composite
def networks(draw, shape):
    """A network of one shape class; the deep and wide trees reach about 1,000 nodes."""
    if shape == "chain":
        n = draw(st.integers(1, 1000))
        return tp.TreeNetwork.from_edges(n, 0, [(i, i + 1) for i in range(n - 1)])
    if shape == "caterpillar":
        return caterpillar(draw(st.integers(2, 1000)))
    if shape == "star":
        n = draw(st.integers(2, 1000))
        return tp.TreeNetwork.from_edges(n, 0, [(0, v) for v in range(1, n)])
    if shape == "recursive":
        return ex.random_tree(draw(st.integers(0, 2**32 - 1)), 2, 200)
    if shape == "layered":
        return layered_dag(draw(st.integers(2, 5)), draw(st.integers(2, 6)))
    if shape == "bipartite":
        a, b = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        edges = [(u, a + v) for u in range(a) for v in range(b)]
        return tp.DagNetwork.from_cover_edges(a + b, edges)
    seed = draw(st.integers(0, 2**32 - 1))
    sink = shape == "single-sink"
    return ex.random_dag(seed, min_nodes=3, max_nodes=30, max_minimal=5, single_sink=sink)


@st.composite
def cases(draw, shape):
    """A network, seeded rows of rank ``r <= d`` (real or complex) and a right-hand side."""
    net = draw(networks(shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, d))
    complex_entries = draw(st.booleans())

    def entries(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_entries else x

    rows = entries(net.node_count, r) @ entries(r, d)
    return sv.LinearSystem(rows=rows, rhs=entries(net.node_count)), net, rng, entries


def kernel_inputs(kind, s, d, n, rng, entries):
    """``(starts, t, omega)``: one vector per minimal node, ``[I | 0]``, or that at a few points."""
    if kind == "vector":
        return entries(s, d, 1), np.ones(1), rng.uniform(0.01, 1.99, n)
    points = 1 if kind == "identity" else int(rng.integers(2, 5))
    k = s * d
    eye = np.tile(np.eye(k + 1), points)
    omega = np.repeat(rng.uniform(0.01, 1.99, (n, points)), k + 1, axis=1)
    if kind == "identity":
        omega = omega[:, 0]
    return eye[:k].reshape(s, d, -1), eye[k], omega


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("shape", SHAPES)
@SETTINGS
@given(data=st.data())
def test_level_kernel_equals_the_nodewise_pass(shape, kind, data):
    system, net, rng, entries = data.draw(cases(shape))
    run = sv._Pass(system, net)
    s, d = len(run.sources), system.ambient_dim
    starts, t, omega = kernel_inputs(kind, s, d, net.node_count, rng, entries)
    ref = nodewise_push(system, net, starts, t, omega)
    got = run.push(starts, t, omega)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= TOL * np.max(np.abs(ref))


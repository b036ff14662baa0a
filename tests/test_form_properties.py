"""The paper's forms of one pass agree on generated trees, deep, wide, complex and rank-deficient.

The pass kernel (``tree_iterate``), its assembled map (``tree_affine``), the
subnetwork product form (``build_p_omega`` over the root-subtree partition)
and the leaf-weighted sum of path SOR maps are one affine map; they agree
within criterion 2's entrywise 1e-11.  The walk of ``group_operator``
equals the per-leaf sum of the paper bit for bit.
"""

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp

from oracles import caterpillar, per_leaf_group_operator

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=4)
ENTRYWISE = 1e-11  # criterion 2
SHAPES = ["caterpillar", "chain", "star", "recursive"]


@st.composite
def trees(draw, shape):
    """A caterpillar or chain of a few hundred nodes, a star of about 1,000 leaves, or a random recursive tree."""
    if shape == "caterpillar":
        return caterpillar(draw(st.integers(100, 300)))
    if shape == "chain":
        n = draw(st.integers(100, 300))
        return tp.TreeNetwork.from_edges(n, 0, [(i, i + 1) for i in range(n - 1)])
    if shape == "star":
        n = draw(st.integers(900, 1100))
        return tp.TreeNetwork.from_edges(n, 0, [(0, v) for v in range(1, n)])
    return ex.random_tree(draw(st.integers(0, 2**32 - 1)), 2, 120)


@st.composite
def cases(draw, shape):
    """A tree, seeded rows of rank ``r <= d`` (real or complex), a right-hand side and ω in (0, 2)."""
    net = draw(trees(shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, d))
    complex_entries = draw(st.booleans())

    def entries(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_entries else x

    rows = entries(net.node_count, r) @ entries(r, d)
    rhs = entries(net.node_count)
    omega = rng.uniform(0.01, 1.99, net.node_count)
    return sv.LinearSystem(rows=rows, rhs=rhs), net, sv.RelaxationAssignment(omega)


def path_sor_sum(system, net, relax):
    """The paper's form: each leaf's root path SOR map, weighted by its root-to-leaf path weight."""
    d = system.ambient_dim
    b, c = np.zeros((d, d), dtype=np.complex128), np.zeros(d, dtype=np.complex128)
    for leaf in net.leaves():
        it = cf.path_sor_factors(system, net.path_from_root(leaf), relax).affine()
        w = tp.path_weight(net, net.root, leaf)
        b += w * it.B
        c += w * it.c
    return b, c


@pytest.mark.parametrize("shape", SHAPES)
@SETTINGS
@given(data=st.data())
def test_kernel_assembled_product_and_path_sor_forms_are_one_map(shape, data):
    system, net, relax = data.draw(cases(shape))
    it = cf.tree_affine(system, net, relax)
    c = sv.tree_iterate(system, net, relax, np.zeros(system.ambient_dim))
    kernel = np.column_stack(
        [sv.tree_iterate(system, net, relax, e) - c for e in np.eye(system.ambient_dim)]
    )
    sor_b, sor_c = path_sor_sum(system, net, relax)
    product = cf.build_p_omega(system, net, tp.root_subtree_partition(net), relax)
    for b in (kernel, product, sor_b):
        assert np.max(np.abs(b - it.B)) <= ENTRYWISE
    for const in (c, sor_c):
        assert np.max(np.abs(const - it.c)) <= ENTRYWISE


@st.composite
def groups(draw, net):
    """A subtree, a forest of subtrees under one gateway, or a set of sibling leaves."""
    gateway = draw(st.sampled_from([v for v in range(net.node_count) if not net.is_leaf(v)]))
    kids = net.children[gateway]
    picked = draw(st.lists(st.sampled_from(kids), min_size=1, unique=True))
    kind = draw(st.sampled_from(["forest", "leaves"]))
    if kind == "leaves":
        return {v for v in picked if net.is_leaf(v)} or {kids[-1]}
    members, stack = set(), list(picked)
    while stack:
        v = stack.pop()
        members.add(v)
        stack.extend(net.children[v])
    return members


@pytest.mark.parametrize("shape", SHAPES)
@SETTINGS
@given(data=st.data())
def test_the_group_walk_equals_the_per_leaf_sum_bit_for_bit(shape, data):
    system, net, relax = data.draw(cases(shape))
    for group in [*tp.root_subtree_partition(net).groups, data.draw(groups(net))]:
        got = cf.group_operator(system, net, group, relax)
        assert np.array_equal(got, per_leaf_group_operator(system, net, group, relax))

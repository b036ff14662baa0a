"""Property tests of the stacked sweep route: every column equals its own per-point analysis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from distkaczmarz import closedform as cf  # noqa: E402
from distkaczmarz import experiments as ex  # noqa: E402
from distkaczmarz import solver as sv  # noqa: E402
from distkaczmarz import topology as tp  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=8)


@st.composite
def tree_systems(draw, shape):
    """A 1-node tree, a 200-node chain or a random recursive tree, with a seeded system."""
    if shape == "single":
        net = tp.TreeNetwork.from_edges(1, 0, [])
    elif shape == "chain":
        net = tp.TreeNetwork.from_edges(200, 0, [(i, i + 1) for i in range(199)])
    else:
        n = draw(st.integers(2, 12))
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        net = tp.TreeNetwork.from_edges(n, 0, edges)
    system = ex.random_tree_system(
        draw(st.integers(0, 2**32 - 1)),
        net,
        dim=draw(st.integers(1, 4)),
        consistent=draw(st.booleans()),
        rank_deficient=draw(st.booleans()),
        complex_entries=draw(st.booleans()),
    )
    return system, net


@st.composite
def dag_systems(draw, single_sink):
    """A seeded random DAG with a seeded real system."""
    net = ex.random_dag(draw(st.integers(0, 10_000)), single_sink=single_sink)
    system = ex.random_dag_system(
        draw(st.integers(0, 2**32 - 1)),
        net,
        dim=draw(st.integers(1, 4)),
        consistent=draw(st.booleans()),
    )
    return system, net


def _per_point(system, net, omega_column):
    relax = sv.RelaxationAssignment(omega_column)
    basis = cf.row_space_basis(system)
    if isinstance(net, tp.TreeNetwork):
        return cf.spectral_radius_on_span(cf.tree_affine(system, net, relax).B, basis)
    return cf.dag_restricted_rho(cf.dag_block_structure(system, net, relax), basis)


def _check_stacks(system, net, s, seed):
    """Stacks of 1, one chunk minus one, one chunk and one chunk plus one points.

    Each stack is a prefix of one random stack; the per-point radius is taken
    at both ends of every chunk and at a few random columns.
    """
    chunk = max(1, cf.SWEEP_CHUNK_COLUMNS // (s * system.ambient_dim + 1))
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, 2.0, size=(net.node_count, chunk + 1))
    checked = {0, max(0, chunk - 2), chunk - 1, chunk, *rng.integers(0, chunk, size=2).tolist()}
    want = {i: _per_point(system, net, omega[:, i]) for i in checked}
    for points in sorted({1, max(1, chunk - 1), chunk, chunk + 1}):
        rho = ex.restricted_rho(system, net, omega[:, :points])
        assert rho.shape == (points,)
        for i in (i for i in checked if i < points):
            assert abs(rho[i] - want[i]) <= 1e-12 * max(1.0, want[i])


@pytest.mark.parametrize("shape", ["single", "random"])
@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_tree_stack_equals_per_point(shape, data, seed):
    system, net = data.draw(tree_systems(shape))
    _check_stacks(system, net, 1, seed)


@settings(SETTINGS, max_examples=3)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_chain_stack_equals_per_point(data, seed):
    system, net = data.draw(tree_systems("chain"))
    _check_stacks(system, net, 1, seed)


@pytest.mark.parametrize("single_sink", [True, False])
@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_dag_stack_equals_per_point(single_sink, data, seed):
    system, net = data.draw(dag_systems(single_sink))
    _check_stacks(system, net, len(net.minimal_nodes), seed)

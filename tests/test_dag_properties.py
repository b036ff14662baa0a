"""The DAG pass's forms agree on generated DAGs: random, single-sink and layered.

The kernel pass (``dag_iterate``, read column by column), the assembled
block map of ``dag_block_structure``, the up-down path sum of
``dag_block_p`` and the pooled per-path SOR maps of
``oracles.pathwise_blocks`` are one affine map on the stacked minimal-node
estimates.  Every DAG drawn here stays under ``MAX_ENUMERATED_PATHS``, so
both path enumerations run; rows are real, complex or rank deficient.
"""

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp

from oracles import layered_dag, pathwise_blocks

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=20)
TOL = 1e-11  # criterion 2, entrywise, relative to the largest entry of the assembled map
SHAPES = ["random", "single-sink", "layered"]


@st.composite
def dags(draw, shape):
    """A seeded random DAG, with or without one common sink, or a layered DAG of a few layers."""
    if shape == "layered":
        return layered_dag(draw(st.integers(2, 4)), draw(st.integers(2, 5)))
    seed = draw(st.integers(0, 2**32 - 1))
    single_sink = shape == "single-sink"
    return ex.random_dag(seed, min_nodes=3, max_nodes=14, max_minimal=4, single_sink=single_sink)


@st.composite
def cases(draw, shape):
    """A DAG, seeded rows of rank ``r <= d`` (real or complex), a right-hand side and ω in (0, 2)."""
    net = draw(dags(shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, d))
    complex_entries = draw(st.booleans())

    def entries(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_entries else x

    rows = entries(net.node_count, r) @ entries(r, d)
    system = sv.LinearSystem(rows=rows, rhs=entries(net.node_count))
    return system, net, sv.RelaxationAssignment(rng.uniform(0.01, 1.99, net.node_count))


def kernel_map(system, net, relax):
    """``[B | c]`` read off ``dag_iterate``: the image of zero, then of each unit vector, less it."""
    s, d = len(net.minimal_nodes), system.ambient_dim

    def run(x):
        return np.concatenate(sv.dag_iterate(system, net, relax, np.split(x, s)))

    c = run(np.zeros(s * d, dtype=np.complex128))
    b = np.column_stack([run(e) - c for e in np.eye(s * d, dtype=np.complex128)])
    return b, c


@pytest.mark.parametrize("shape", SHAPES)
@SETTINGS
@given(data=st.data())
def test_kernel_block_map_updown_sum_and_pathwise_forms_are_one_map(shape, data):
    system, net, relax = data.draw(cases(shape))
    paths, _ = tp.enumerate_dispersion_paths(net)
    assert len(paths) <= tp.MAX_ENUMERATED_PATHS
    agg = cf.dag_block_structure(system, net, relax).aggregate
    updown = cf.dag_block_p(system, net, relax)
    ref = pathwise_blocks(system, net, relax)
    pathwise = np.vstack([row for row, _ in ref.per_minimal]), np.concatenate(
        [c for _, c in ref.per_minimal]
    )
    scale = 1.0 + max(np.max(np.abs(agg.B)), np.max(np.abs(agg.c)))
    for b, c in (kernel_map(system, net, relax), (updown.B, updown.c), pathwise):
        assert np.max(np.abs(b - agg.B)) <= TOL * scale
        assert np.max(np.abs(c - agg.c)) <= TOL * scale

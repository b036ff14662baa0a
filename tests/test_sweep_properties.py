"""Property tests of both sweep routes: every column equals its own per-point analysis.

The stack route pushes every column through the kernel; the polynomial
route pushes a small tensor grid and interpolates.  Each test checks every
column it samples against the per-point restricted spectral radius.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from distkaczmarz import closedform as cf  # noqa: E402
from distkaczmarz import experiments as ex  # noqa: E402
from distkaczmarz import solver as sv  # noqa: E402
from distkaczmarz import topology as tp  # noqa: E402

from oracles import pairwise_sweep_axes  # noqa: E402

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


# ---------------------------------------------------------------------------
# The polynomial route: a tensor grid of relaxation values per sweep axis


def _walk(draw, net):
    """A random dispersion chain: from a minimal node down random successors to a maximal node."""
    if isinstance(net, tp.TreeNetwork):
        v, succ = net.root, net.children
    else:
        v, succ = draw(st.sampled_from(net.minimal_nodes)), net.successors
    chain = [v]
    while succ.get(v):
        v = draw(st.sampled_from(sorted(succ[v])))
        chain.append(v)
    return chain


@st.composite
def tensor_sweeps(draw, kind):
    """A seeded system, one axis of up to 3 nodes on one chain and an optional second axis.

    Each axis takes ``(|axis| + 1)^2`` distinct values, at least the square
    of its interpolation node count, so the tensor grid of the sweep is
    small enough for the polynomial route.
    """
    if kind == "tree":
        n = draw(st.integers(2, 12))
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        net = tp.TreeNetwork.from_edges(n, 0, edges)
    else:
        net = ex.random_dag(draw(st.integers(0, 10_000)), single_sink=draw(st.booleans()))
    system = ex.random_tree_system(
        draw(st.integers(0, 2**32 - 1)),
        net,
        dim=draw(st.integers(1, 4)),
        consistent=draw(st.booleans()),
        rank_deficient=draw(st.booleans()),
        complex_entries=draw(st.booleans()),
    )
    chain = _walk(draw, net)
    axes = [draw(st.lists(st.sampled_from(chain), min_size=1, max_size=3, unique=True))]
    rest = sorted(set(range(net.node_count)) - set(axes[0]))
    if rest and draw(st.booleans()):
        axes.append(draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3, unique=True)))
    return system, net, axes


def _tensor_stack(net, axes, seed, top):
    """Every point of a tensor grid of random values in [0, top], on a random baseline."""
    rng = np.random.default_rng(seed)
    values = [rng.uniform(0.0, top, size=(len(a) + 1) ** 2) for a in axes]
    omega = np.full((net.node_count, int(np.prod([len(v) for v in values]))), rng.uniform(0.0, 2.0))
    for nodes, grid in zip(axes, np.meshgrid(*values, indexing="ij")):
        omega[nodes] = grid.ravel()
    return omega


def _check_tensor_route(system, net, omega):
    """A tensor grid of at most sqrt(G) points is pushed first, and every column equals its
    per-point rho.

    The price of ``closedform._point_budget`` pushes every column of sweeps
    this small, so the budget is pinned to sqrt(G) points here to run the
    polynomial route on them.  When the grid's maps are too large to
    interpolate within the rounding the per-point route is held to, the
    sweep then pushes every column.  Returns the points of every push.
    """
    pushed = []
    affine = sv._Pass.affine

    def spy(kernel, cols):
        pushed.append(cols.shape[1])
        return affine(kernel, cols)

    def budget(kernel, columns, step, side):
        return columns**0.5

    with mock.patch.object(sv._Pass, "affine", spy), mock.patch.object(cf, "_point_budget", budget):
        rho = ex.restricted_rho(system, net, omega)
    assert pushed[0] ** 2 <= omega.shape[1]
    assert len(pushed) == 1 or sum(pushed[1:]) == omega.shape[1]
    for i in range(omega.shape[1]):
        want = _per_point(system, net, omega[:, i])
        assert abs(rho[i] - want) <= 1e-12 * max(1.0, want)
    return pushed


@pytest.mark.parametrize("kind", ["tree", "dag"])
@settings(SETTINGS, max_examples=20)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_tensor_grid_equals_per_point(kind, data, seed):
    system, net, axes = data.draw(tensor_sweeps(kind))
    top = data.draw(st.sampled_from([2.0, 8.0, 20.0]))
    _check_tensor_route(system, net, _tensor_stack(net, axes, seed, top))


@settings(SETTINGS, max_examples=4)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_degree_eight_chain_axis_equals_per_point(data, seed):
    """Eight axis nodes on one chain: degree 8, so the grid takes 9 values of at least 81."""
    n = data.draw(st.integers(8, 11))
    net = tp.TreeNetwork.from_edges(n, 0, [(i, i + 1) for i in range(n - 1)])
    axis = sorted(data.draw(st.permutations(range(n)))[:8])
    system = ex.random_tree_system(
        data.draw(st.integers(0, 2**32 - 1)),
        net,
        dim=data.draw(st.integers(1, 4)),
        complex_entries=data.draw(st.booleans()),
        rank_deficient=data.draw(st.booleans()),
    )
    rng = np.random.default_rng(seed)
    omega = np.full((n, data.draw(st.integers(81, 120))), rng.uniform(0.0, 2.0))
    omega[axis] = rng.uniform(0.0, 2.0, size=omega.shape[1])
    assert _check_tensor_route(system, net, omega) == [9]


@settings(SETTINGS, max_examples=4)
@given(data=st.data())
def test_degree_eight_chain_axis_over_the_cli_default_range_equals_per_point(data):
    """Eight axis nodes on one chain swept over ``0.05:8:0.05``, the CLI default.

    B reaches entries near ``|1 - 8|^8`` at the grid's top node, so its
    Lagrange combinations would lose digits at the columns where rho is
    small; every column still equals its per-point rho.
    """
    n = data.draw(st.integers(8, 11))
    net = tp.TreeNetwork.from_edges(n, 0, [(i, i + 1) for i in range(n - 1)])
    axis = tuple(sorted(data.draw(st.permutations(range(n)))[:8]))
    system = ex.random_tree_system(
        data.draw(st.integers(0, 2**32 - 1)),
        net,
        dim=data.draw(st.integers(1, 4)),
        consistent=data.draw(st.booleans()),
        complex_entries=data.draw(st.booleans()),
        rank_deficient=data.draw(st.booleans()),
    )
    omega = ex._omega_stack(n, [axis], ex.grid_from_spec("0.05:8:0.05", 1), 1.5)
    _check_tensor_route(system, net, omega)


def _per_row_csv(result):
    """The sweep CSV with one ``str.format`` per row, as ``sweep_to_csv`` wrote it before."""
    naxes = len(result.grid[0])
    header = ",".join([f"omega_{i + 1}" for i in range(naxes)] + ["rho"])
    row = ",".join(["{:.10g}"] * naxes + ["{:.12g}"]).format
    return "\n".join([header, *(row(*pt, rho) for pt, rho in zip(result.grid, result.rho))]) + "\n"


AWKWARD_RHO = [-0.0, 0.0, 5e-324, 2.2e-308, 1e-300, 1.7976931348623157e308, np.inf, -np.inf, np.nan]
RHO = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(AWKWARD_RHO)
OMEGA = st.floats(0.0, 8.0) | st.just(-0.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 3).flatmap(
    lambda axes: st.lists(
        st.tuples(st.tuples(*[OMEGA] * axes), RHO), min_size=1, max_size=40
    )
))
def test_the_sweep_csv_equals_the_per_row_formatter_byte_for_byte(points):
    grid = [pt for pt, _ in points]
    rho = [r if i % 2 else np.float64(r) for i, (_, r) in enumerate(points)]
    result = ex.SweepResult(grid, rho, 0, 0.0, 0.0)
    assert ex.sweep_to_csv(result).encode() == _per_row_csv(result).encode()


@settings(SETTINGS, max_examples=200)
@given(data=st.data())
def test_sweep_axes_group_as_the_pairwise_comparison_did(data):
    """Rows drawn from a few pool rows, their zeros of either sign, under any cap on the axes."""
    g = data.draw(st.integers(1, 5))
    pool = data.draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=g, max_size=g),
                              min_size=1, max_size=4))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    omega = np.array([pool[i] for i in picks])
    signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=omega.size, max_size=omega.size))
    omega *= np.reshape(signs, omega.shape) ** (omega == 0.0)  # -0.0 where a zero draws -1
    most = data.draw(st.integers(0, 5))
    assert cf._sweep_axes(omega, most) == pairwise_sweep_axes(omega, most)

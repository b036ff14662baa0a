"""``solve`` on the assembled pass map equals ``solve`` on the pass kernel, and the route rule."""

from unittest import mock

import numpy as np
import pytest

from distkaczmarz import experiments as ex
from distkaczmarz import numerics as nm
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import DivergenceError

from oracles import engine_solve, layered_dag, stepwise_solve

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=10)


def caterpillar(n):
    """A spine of about n/2 nodes, each carrying one leaf."""
    edges, spine = [], 0
    for v in range(1, n):
        edges.append((spine, v))
        if v % 2 == 0 and v < n - 1:
            spine = v
    return tp.TreeNetwork.from_edges(n, 0, edges)


@st.composite
def trees(draw, shapes=("chain", "caterpillar", "recursive")):
    """A 1,500-deep chain, a caterpillar or a random recursive tree."""
    shape = draw(st.sampled_from(shapes))
    if shape == "chain":
        net = tp.TreeNetwork.from_edges(1500, 0, [(i, i + 1) for i in range(1499)])
    elif shape == "caterpillar":
        net = caterpillar(draw(st.integers(2, 60)))
    else:
        n = draw(st.integers(1, 12))
        net = tp.TreeNetwork.from_edges(n, 0, [(draw(st.integers(0, v - 1)), v) for v in range(1, n)])
    return net


@st.composite
def cases(draw, networks, omega, consistent=st.booleans()):
    """A network, a seeded system on it (complex, rank-deficient or inconsistent) and a uniform ω."""
    net = draw(networks)
    system = ex.random_tree_system(
        draw(st.integers(0, 2**32 - 1)),
        net,
        dim=draw(st.integers(1, 4)),
        consistent=draw(consistent),
        rank_deficient=draw(st.booleans()),
        complex_entries=draw(st.booleans()),
    )
    return system, net, sv.RelaxationAssignment.uniform(net.node_count, draw(omega))


multi_sink_dags = st.integers(0, 10_000).map(lambda seed: ex.random_dag(seed, max_nodes=10))
CONFIG = sv.SolverConfig(max_iterations=60, step_tolerance=1e-10)


def _blocks(estimates):
    return estimates if isinstance(estimates, list) else [estimates]


def _close(got, want, tol=1e-12):
    for g, w in zip(_blocks(got), _blocks(want), strict=True):
        assert np.linalg.norm(g - w) <= tol * np.linalg.norm(w)


def _exact(got, want):
    return all(np.array_equal(g, w) for g, w in zip(_blocks(got), _blocks(want), strict=True))


def assert_same_solve(system, net, relax, config=CONFIG, route="affine", tol=1e-12):
    """Both routes stop at the same iteration with the same estimates, or diverge at the same one.

    ``solve`` also equals the one-pass-at-a-time loop on its own route bit for bit.
    """
    try:
        got = sv.solve(system, net, relax, config)
    except DivergenceError as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as want:
                engine_solve(system, net, relax, config)
            with pytest.raises(DivergenceError) as stepwise:
                stepwise_solve(system, net, relax, config)
        assert exc.route == route and exc.iteration == want.value.iteration
        _close(exc.last_iterate, want.value.last_iterate, tol)
        assert exc.iteration == stepwise.value.iteration
        assert _exact(exc.last_iterate, stepwise.value.last_iterate)
        return "diverged"
    stepwise = stepwise_solve(system, net, relax, config)
    assert (got.iterations_used, got.converged) == (stepwise.iterations_used, stepwise.converged)
    assert (got.step_norms, got.residual_norms) == (stepwise.step_norms, stepwise.residual_norms)
    assert _exact(got.final_estimates, stepwise.final_estimates)
    want = engine_solve(system, net, relax, config)
    assert got.route == route
    assert (got.iterations_used, got.converged) == (want.iterations_used, want.converged)
    _close(got.final_estimates, want.final_estimates)
    scale = 1e-12 * (1.0 + max(np.linalg.norm(w) for w in _blocks(want.final_estimates)))
    assert np.allclose(got.step_norms, want.step_norms, rtol=1e-9, atol=scale)
    assert np.allclose(got.residual_norms, want.residual_norms, rtol=1e-9, atol=scale)
    return "stopped"


@SETTINGS
@given(cases(trees(), st.floats(0.2, 1.8)))
def test_tree_routes_agree(case):
    assert assert_same_solve(*case) == "stopped"


@SETTINGS
@given(cases(multi_sink_dags, st.floats(0.2, 1.8)))
def test_dag_routes_agree(case):
    assert assert_same_solve(*case) == "stopped"


@SETTINGS
@given(cases(trees(("caterpillar", "recursive")) | multi_sink_dags, st.floats(2.2, 3.0)))
def test_routes_diverge_at_the_same_iteration(case):
    """An inadmissible ω: both routes raise at one iteration, or both stop at one."""
    assert_same_solve(*case, sv.SolverConfig(max_iterations=2_000))


def test_iterates_past_a_divergence_overflow_silently():
    """At ω = 1e100 each pass scales the row component by about -1e100: inf, then nan."""
    net = tp.TreeNetwork.from_edges(1, 0, [])
    system = sv.LinearSystem(rows=np.array([[1.0, 0.0]]), rhs=np.array([1.0]))
    relax = sv.RelaxationAssignment.uniform(1, 1e100)
    with pytest.raises(DivergenceError) as err:
        sv.solve(system, net, relax)
    assert err.value.iteration == 1 and np.array_equal(err.value.last_iterate, [0.0, 0.0])


def test_an_inadmissible_omega_diverges_on_both_routes():
    net = tp.TreeNetwork.from_edges(1, 0, [])
    system = sv.LinearSystem(rows=np.array([[1.0, 0.0]]), rhs=np.array([1.0]))
    relax = sv.RelaxationAssignment.uniform(1, 3.0)  # the row component doubles every pass
    assert assert_same_solve(system, net, relax, sv.SolverConfig(max_iterations=100)) == "diverged"


K = sv.AFFINE_BLOCK
small_networks = trees(("caterpillar", "recursive")) | multi_sink_dags


@SETTINGS
@given(cases(small_networks, st.floats(0.05, 0.3)), st.sampled_from([K - 1, K, K + 1, 2 * K + 1]))
def test_budgets_around_block_edges(case, budget):
    """A budget cuts the last block: the run stops after exactly ``budget`` passes."""
    config = sv.SolverConfig(max_iterations=budget)
    assert_same_solve(*case, config)
    report = sv.solve(*case, config)
    assert report.converged or report.iterations_used == budget


@SETTINGS
@given(cases(small_networks, st.floats(0.05, 0.5)), st.sampled_from([K, K + 1, 2 * K, 2 * K + 1]))
def test_convergence_on_the_first_and_last_iterate_of_a_block(case, target):
    """A tolerance between step ``target`` and every earlier step stops the run exactly there."""
    steps = sv.solve(*case, sv.SolverConfig(max_iterations=target, step_tolerance=1e-300)).step_norms
    assume(len(steps) == target and 0.0 < steps[-1] < 0.99 * min(steps[:-1]))
    config = sv.SolverConfig(max_iterations=3 * K, step_tolerance=(steps[-1] * min(steps[:-1])) ** 0.5)
    assert assert_same_solve(*case, config) == "stopped"
    report = sv.solve(*case, config)
    assert report.converged and report.iterations_used == target


def stationary(case):
    """The case with a start at an exact solution, which every pass keeps to rounding."""
    system = case[0]
    start = nm.min_norm_solution(system.system_matrix(), system.rhs)
    return case, sv.SolverConfig(max_iterations=3 * K, step_tolerance=1e-8, initial_estimate=start)


@SETTINGS
@given(cases(small_networks, st.floats(0.2, 1.8), consistent=st.just(True)).map(stationary))
def test_a_stationary_start_uses_no_iteration(run):
    case, config = run
    assert assert_same_solve(*case, config) == "stopped"
    report = sv.solve(*case, config)
    assert report.converged and report.iterations_used == 0
    assert report.step_norms == [] and report.residual_norms == []


@pytest.mark.parametrize("scale", [1.0, 1e140])
@SETTINGS
@given(cases(small_networks, st.floats(2.2, 3.0)))
def test_divergence_inside_a_block_that_overflows(scale, case):
    """Norms past the divergence overflow to inf in the block; none is reported or warned of.

    From a start near 1e140 the bound is near 1e152, so the reported
    iterates and residuals stay finite, while the squares in the norms of
    iterates that grow past 1e154 overflow before the block ends.
    """
    system, net, relax = case
    start = scale * np.random.default_rng(net.node_count).standard_normal(system.ambient_dim)
    config = sv.SolverConfig(max_iterations=2_000, initial_estimate=start)
    # growth over many orders of magnitude amplifies the rounding gap between map and kernel
    assert_same_solve(system, net, relax, config, tol=1e-9)


def _counting_vectors(counter):
    vectors = sv._Pass.vectors

    def counted(self, xs, omega):
        counter.append(1)
        return vectors(self, xs, omega)

    return counted


ENGINE_RUNS = {
    "budget": st.tuples(
        cases(small_networks, st.floats(0.05, 0.3)), st.just(sv.SolverConfig(max_iterations=K + 1))
    ),
    "converged": st.tuples(
        cases(small_networks, st.floats(0.5, 1.5)),
        st.just(sv.SolverConfig(max_iterations=2_000, step_tolerance=1e-6)),
    ),
    "stationary": cases(small_networks, st.floats(0.2, 1.8), consistent=st.just(True)).map(stationary),
    "diverged": st.tuples(
        cases(small_networks, st.floats(2.2, 3.0)), st.just(sv.SolverConfig(max_iterations=2_000))
    ),
}


@pytest.mark.parametrize("outcome", ENGINE_RUNS)
@SETTINGS
@given(data=st.data())
def test_the_engine_route_runs_no_pass_past_the_stop(outcome, data):
    """Forced onto the engine route, ``solve`` runs exactly the passes it reports."""
    case, config = data.draw(ENGINE_RUNS[outcome])
    passes: list = []
    with mock.patch.object(sv, "solve_route", lambda *size: "engine"):
        assert_same_solve(*case, config, route="engine")
        with mock.patch.object(sv._Pass, "vectors", _counting_vectors(passes)):
            try:
                report = sv.solve(*case, config)
                ran = max(report.iterations_used, 1)  # a stationary start ran one pass
            except DivergenceError as exc:
                ran = exc.iteration
    assert len(passes) == ran


def _bench_sized():
    """Trees, layered DAGs and desk networks of the sizes the benchmark solves."""
    for n in (31, 121):
        rng = np.random.default_rng(n)
        recursive = tp.TreeNetwork.from_edges(n, 0, [(int(rng.integers(0, v)), v) for v in range(1, n)])
        for net in (caterpillar(n), recursive):
            yield ex.random_tree_system(n, net, 8, well_conditioned=True), net
    for layers in (5, 7):
        net = layered_dag(4, layers)
        for d in (6, 7, 8):
            yield ex.random_dag_system(d, net, d, well_conditioned=True), net
    one, seven = ex.network_one()[0], ex.binary7_network()
    for net in (one, seven):
        yield ex.random_tree_system(0, net, net.node_count), net


def test_bench_sized_solves_take_the_affine_route():
    for system, net in _bench_sized():
        relax = sv.RelaxationAssignment.uniform(net.node_count)
        assert sv.solve(system, net, relax, sv.SolverConfig(max_iterations=2)).route == "affine"


def _no_assembly(self, omega):
    raise AssertionError("the engine route assembled the pass map")


@pytest.mark.parametrize(
    "net, dim",
    [
        (tp.TreeNetwork.from_edges(3, 0, [(0, 1), (0, 2)]), 2_000),  # large d beside the network
        (tp.DagNetwork.from_cover_edges(301, [(i, 300) for i in range(300)]), 4),
    ],
    ids=["3-node tree, d 2000", "300 minimal nodes"],
)
def test_large_maps_stay_on_the_engine(monkeypatch, net, dim):
    monkeypatch.setattr(sv._Pass, "affine", _no_assembly)
    system = ex.random_tree_system(1, net, dim)
    relax = sv.RelaxationAssignment.uniform(net.node_count)
    config = sv.SolverConfig(max_iterations=3)
    got = sv.solve(system, net, relax, config)
    want = engine_solve(system, net, relax, config)
    assert got.route == "engine" and got.iterations_used == want.iterations_used
    _close(got.final_estimates, want.final_estimates)


@pytest.mark.parametrize(
    "minimal, dim, size, route",
    [
        (1, 64, 5, "affine"),  # at both bounds
        (1, 65, 10_000, "engine"),  # assembly bound: s d^2 above 4,096
        (1, 64, 3, "engine"),  # matvec bound: (s d)^2 above 1,024 (V + E)
        (100, 5, 201, "engine"),
        (4, 8, 52, "affine"),
    ],
)
def test_route_rule_reads_both_bounds(minimal, dim, size, route):
    assert sv.solve_route(minimal, dim, size) == route

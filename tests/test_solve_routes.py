"""``solve`` on the assembled pass map equals ``solve`` on the pass kernel, and the route rule."""

from unittest import mock

import numpy as np
import pytest

from distkaczmarz import experiments as ex
from distkaczmarz import numerics as nm
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import DivergenceError

from oracles import caterpillar, engine_solve, layered_dag, stepwise_solve

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=10)


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


def test_norms_of_finite_iterates_past_1e154_do_not_overflow():
    """ω = 0.5 on identity rows halves the start; its norms square past the float range."""
    net = tp.TreeNetwork.from_edges(2, 0, [(0, 1)])
    system = sv.LinearSystem(rows=np.eye(2), rhs=np.zeros(2))
    relax = sv.RelaxationAssignment.uniform(2, 0.5)
    for start in ([1e160, 0.0], [3e154, 3e154]):
        config = sv.SolverConfig(initial_estimate=np.array(start))
        report = sv.solve(system, net, relax, config)
        assert report.converged
        want = np.hypot(*start) / 2.0
        assert report.step_norms[0] == pytest.approx(want, rel=1e-15)
        assert report.residual_norms[0] == pytest.approx(want, rel=1e-15)  # A = I, b = 0


def test_scaled_norms_keep_every_finite_plain_norm():
    rng = np.random.default_rng(4)
    blocks = rng.standard_normal((6, 3, 4)) * 10.0 ** rng.integers(-140, 140, (6, 3, 1))
    blocks[0, 1] = [1e155, 1e155, 0.0, 0.0]  # its squares overflow
    blocks[1, 2, 0] = np.inf
    blocks[2, 0, 3] = np.nan
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(blocks, axis=2)
    plain[0, 1] = np.sqrt(2.0) * 1e155
    want = np.max(plain, axis=1)
    with np.errstate(over="ignore"):  # as in solve
        got = sv._worst_norms(blocks)
    assert np.array_equal(got[1:], want[1:], equal_nan=True)
    assert got[0] == pytest.approx(max(want[0], np.sqrt(2.0) * 1e155), rel=1e-15)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(3, 70), st.integers(1, 5), st.integers(1, 70), st.booleans())
def test_worst_norms_are_numpys_norm(seed, k, s, m, complex_entries):
    """``_worst_norms`` is ``np.max(np.linalg.norm(b, axis=-1), axis=-1)`` bit for bit.

    On every iterate of a ``(k, s, m)`` stack whose plain worst norm does not
    overflow, NaN included; on the others, the same after each finite block
    whose plain norm overflowed is scaled by its largest modulus.
    """
    rng = np.random.default_rng(seed)

    def draw():
        return rng.standard_normal((k, s, m)) * 10.0 ** rng.integers(-150, 150, (k, s, 1))

    b = draw() + 1j * draw() if complex_entries else draw()
    blocks = b.reshape(k * s, m)
    big, inf, nan = rng.permutation(k * s)[:3]  # three distinct blocks
    blocks[big] = 1e155  # finite entries whose squares overflow
    blocks[inf, rng.integers(m)] = np.inf
    blocks[nan, rng.integers(m)] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):  # as in solve
        got = sv._worst_norms(b)
        plain = np.linalg.norm(b, axis=-1)
        want = np.max(plain, axis=-1)
        kept = ~np.isinf(want)
        assert np.array_equal(got[kept], want[kept], equal_nan=True)
        over = np.isinf(plain) & np.isfinite(b).all(axis=-1)
        assert over.any()
        scale = np.abs(b[over]).max(axis=-1)
        plain[over] = scale * np.linalg.norm(b[over] / scale[:, None], axis=-1)
        assert np.array_equal(got[~kept], np.max(plain, axis=-1)[~kept], equal_nan=True)


def _at_the_route_limit():
    """A 3-node tree at d = 64 (a 64 x 65 map) and a 4-source layered DAG at d = 32.

    Both sit on the assembly bound ``s d^2 = 4096``, and their ``(s d)^2``
    stays within ``1024 (V + E)``, so they take the affine route with the
    largest maps it admits.
    """
    tree = tp.TreeNetwork.from_edges(3, 0, [(0, 1, 0.5), (0, 2, 0.5)])
    dag = layered_dag(4, 2)  # 8 nodes, 8 edges, 4 minimal nodes
    return [(tree, 64), (dag, 32)]


@pytest.mark.parametrize("start", ["real", "complex rows", "complex start"])
@pytest.mark.parametrize("net, dim", _at_the_route_limit(), ids=["tree d 64", "dag s 4 d 32"])
def test_the_largest_affine_maps_match_one_pass_at_a_time(net, dim, start):
    run = sv._Pass(ex.random_tree_system(0, net, 1), net)
    s = len(run.sources)
    assert s * dim * dim == sv.AFFINE_ASSEMBLY_LIMIT
    assert sv.solve_route(s, dim, run.size) == "affine"
    complex_rows = start == "complex rows"
    system = ex.random_tree_system(dim, net, dim, consistent=False, complex_entries=complex_rows)
    rng = np.random.default_rng(dim)
    init = rng.standard_normal(dim) + 1j * rng.standard_normal(dim) if start == "complex start" else None
    config = sv.SolverConfig(max_iterations=3 * K, initial_estimate=init)  # past a block edge
    relax = sv.RelaxationAssignment.uniform(net.node_count, 0.5)
    assert assert_same_solve(system, net, relax, config) == "stopped"


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


@SETTINGS
@given(cases(small_networks, st.floats(0.2, 1.8)))
def test_a_complex_start_iterates_in_complex_arithmetic(case):
    """A complex start makes the estimates complex; a real start keeps the system's dtype."""
    system, net, relax = case
    rng = np.random.default_rng(net.node_count)
    start = rng.standard_normal(system.ambient_dim) + 1j * rng.standard_normal(system.ambient_dim)
    config = sv.SolverConfig(max_iterations=3 * K, initial_estimate=start)
    assert assert_same_solve(*case, config) == "stopped"
    started = _blocks(sv.solve(*case, config).final_estimates)
    plain = _blocks(sv.solve(*case, CONFIG).final_estimates)
    assert {b.dtype for b in started} == {np.dtype(np.complex128)}
    assert {b.dtype for b in plain} == {system.rows.dtype}


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


def _pass_map(system, net, relax):
    """B and c of the assembled pass, split from the ``[B | c]`` that ``solve`` iterates."""
    (pass_map,) = sv._Pass(system, net).affine(relax.effective())
    return pass_map[:, :-1], pass_map[:, -1]


def _worst(blocks):
    return float(np.max(np.linalg.norm(blocks, axis=1)))


@SETTINGS
@given(cases(small_networks, st.floats(0.2, 1.8)))
def test_every_affine_iterate_is_the_pass_map(case):
    """Iterate t is ``B x + c`` of iterate t - 1 within a few ulps, and only it reaches the report.

    Budgets 1 .. K + 2 cut the run after each pass, across a block edge.
    Every estimate has the shape of the minimal-node blocks, without the
    homogeneous entry, and every norm is the norm of the estimates alone.
    """
    system, net, relax = case
    b, c = _pass_map(system, net, relax)
    a_t = system.system_matrix().T
    start = np.random.default_rng(net.node_count).standard_normal(system.ambient_dim)
    prev = np.tile(start, (b.shape[0] // system.ambient_dim, 1))
    for t in range(1, K + 3):
        config = sv.SolverConfig(max_iterations=t, step_tolerance=1e-300, initial_estimate=start)
        report = sv.solve(system, net, relax, config)
        x = np.array(_blocks(report.final_estimates))
        assert report.route == "affine" and x.shape == prev.shape
        want = b @ prev.ravel() + c
        scale = np.linalg.norm(b, 2) * np.linalg.norm(prev) + np.linalg.norm(c)
        assert np.linalg.norm(x.ravel() - want) <= 8 * np.finfo(float).eps * scale
        if report.converged:  # x is a fixed point to the last bit
            break
        assert report.iterations_used == t
        assert report.step_norms[-1] == _worst(x - prev)
        assert report.residual_norms[-1] == _worst(x @ a_t - system.rhs)
        prev = x


@SETTINGS
@given(cases(small_networks, st.floats(1e2, 1e4)))
def test_a_block_that_overflows_reports_only_the_estimates(case):
    """At ω of 1e2 to 1e4 from a start near 1e140 the iterates overflow inside the block.

    The report is the iterate before the divergence: finite and shaped
    like the estimates, and the run cut one pass earlier ends on it with
    finite norms.
    """
    system, net, relax = case
    b, c = _pass_map(system, net, relax)
    start = 1e140 * np.random.default_rng(net.node_count).standard_normal(system.ambient_dim)
    config = sv.SolverConfig(max_iterations=K, initial_estimate=start)
    with pytest.raises(DivergenceError) as err:
        sv.solve(system, net, relax, config)
    last = np.array(_blocks(err.value.last_iterate))
    assert last.shape == (b.shape[0] // system.ambient_dim, system.ambient_dim)
    assert np.isfinite(last).all()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as want:
        stepwise_solve(system, net, relax, config)
    assert err.value.iteration == want.value.iteration
    assert _exact(err.value.last_iterate, want.value.last_iterate)
    with np.errstate(over="ignore", invalid="ignore"):
        rest = [last.ravel()]
        for _ in range(K - err.value.iteration):
            rest.append(b @ rest[-1] + c)
    assert not np.isfinite(rest).all()  # the block ran past the divergence into overflow
    if err.value.iteration > 1:
        cut = sv.SolverConfig(max_iterations=err.value.iteration - 1, initial_estimate=start)
        report = sv.solve(system, net, relax, cut)
        assert _exact(report.final_estimates, err.value.last_iterate)
        assert np.isfinite(report.step_norms + report.residual_norms).all()
    else:
        assert np.array_equal(last, np.tile(start, (len(last), 1)))


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


def _diverging(dim, factor):
    """A single node and a DAG of two sources into one sink, every row ``e_1``, at one uniform ω.

    Each pass scales the iterates' first entry about the solution 1 by
    ``-factor``: the single node applies one update a pass, the DAG two.
    """
    row = np.eye(dim)[:1]
    single = (tp.TreeNetwork.from_edges(1, 0, []), sv.LinearSystem(rows=row, rhs=np.ones(1)), 1)
    dag = tp.DagNetwork.from_cover_edges(3, [(0, 2), (1, 2)])
    double = (dag, sv.LinearSystem(rows=np.repeat(row, 3, axis=0), rhs=np.ones(3)), 2)
    for net, system, updates in (single, double):
        omega = 1.0 + factor ** (1 / updates)
        yield net, system, sv.RelaxationAssignment.uniform(net.node_count, omega)


@pytest.mark.parametrize(
    "net, system, relax", list(_diverging(3, 1.3)), ids=["single-node", "two-sources-one-sink"]
)
def test_a_block_that_crosses_the_bound_mid_block_stops_where_one_pass_at_a_time_does(
    net, system, relax
):
    """1.3^k passes the bound 1e12 near pass 105, inside the second 64-pass block.

    The first block stays under the divergence screen and takes only its
    step norms; the second takes every norm and stops at the same
    iteration, on the same last iterate, as ``stepwise_solve`` and
    ``engine_solve``.
    """
    config = sv.SolverConfig(max_iterations=1000)
    assert assert_same_solve(system, net, relax, config) == "diverged"
    with pytest.raises(DivergenceError) as err:
        sv.solve(system, net, relax, config)
    assert sv.AFFINE_BLOCK + 1 < err.value.iteration < 2 * sv.AFFINE_BLOCK


@pytest.mark.parametrize(
    "start", [None, np.full(4, 1e-3), np.full(4, 1e-3j)], ids=["zero", "real", "complex"]
)
def test_entries_above_the_screen_with_every_norm_under_the_bound_do_not_diverge(start):
    """Iterates converge to a solution whose largest entry, 2.6e11, passes the screen bound / 4.

    Every iterate stays within twice the solution's norm, 2.9e11, of the
    start, so under the bound of about 1e12: ``solve`` takes the exact
    norms, runs its whole budget without diverging and equals
    ``stepwise_solve`` bit for bit.
    """
    net = caterpillar(6)
    rows = np.random.default_rng(4).standard_normal((net.node_count, 4))
    solution = np.array([2.6e11, 1e11, -1e11, 5e10])
    system = sv.LinearSystem(rows=rows, rhs=rows @ solution)
    relax = sv.RelaxationAssignment.uniform(net.node_count, 1.0)
    config = sv.SolverConfig(max_iterations=150, initial_estimate=start)
    assert assert_same_solve(system, net, relax, config) == "stopped"
    report = sv.solve(system, net, relax, config)
    bound = sv.DIVERGENCE_FACTOR * (1.0 + (0.0 if start is None else np.linalg.norm(start)))
    assert np.abs(report.final_estimates).max() > bound / (2 * np.sqrt(4))
    assert max(report.step_norms) < bound and report.iterations_used == 150

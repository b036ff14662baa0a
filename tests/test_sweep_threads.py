"""A sweep's eigensolve chunks run on every CPU with the serial loop's bits.

``closedform.restricted_rho`` splits its stack into chunks of
``SWEEP_CHUNK_COLUMNS // width`` points and runs them on the caller and up to
one helper thread per further CPU.  With the CPU count set to 1, 2 and 3, the
result is ``np.array_equal`` to the serial one on the bench's two desks (on
the interpolated and the stack route) and on a layered DAG stack; a single
chunk starts no thread; no thread outlives a call, whether it returns or
raises; and an overflow that only a later chunk reaches raises the serial
loop's error without a warning.  Helpers never hold more than
``SWEEP_HELPER_BYTES`` of push state, and sweeps running at once share the
CPUs' helper slots.
"""

import sys
import threading
import types
import warnings

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp
from distkaczmarz.errors import NumericalFailureError

from oracles import layered_dag

CPUS = [1, 2, 3]


def desk(kind):
    """The bench's leaf (network I) or interior (7-node tree) desk on its 1,600-point grid."""
    if kind == "leaf":
        net, _, axes = ex.network_one()
    else:
        net = ex.binary7_network()
        axes = sorted(tuple(sorted(g)) for g in ex.binary7_extended_partition().groups)
    k = net.node_count
    system = ex.generate_system(ex.GeneratorSpec(kind="uniform", k=k, d=k, seed=11)).system
    grid = ex.grid_from_spec("0.2:8:0.2,0.2:8:0.2", 2)
    return system, net, ex._omega_stack(net.node_count, axes, grid, 1.5)


def layered_stack():
    """A 3-wide, 3-deep layered DAG at d = 2 and 1,000 random points: five chunks."""
    net = layered_dag(3, 3)
    system = ex.random_tree_system(4, net, dim=2)
    omega = np.random.default_rng(4).uniform(0.1, 1.9, (net.node_count, 1000))
    return system, net, omega


def chunks(system, net, omega):
    step = cf.SWEEP_CHUNK_COLUMNS // sv._Pass(system, net).width
    return -(-omega.shape[1] // step)


def serial(monkeypatch, system, net, omega):
    with monkeypatch.context() as m:
        m.setattr(cf, "_cpu_count", lambda: 1)
        return cf.restricted_rho(system, net, omega)


class _Started:
    """Counts the threads that ``closedform`` starts."""

    def __init__(self, monkeypatch):
        self.count = 0
        outer = self

        class Thread(threading.Thread):
            def start(self):
                outer.count += 1
                super().start()

        monkeypatch.setattr(cf.threading, "Thread", Thread)


CASES = {"leaf": lambda: desk("leaf"), "interior": lambda: desk("interior"), "dag": layered_stack}
# a random stack has no sweep axes, so the DAG case takes the stack route only
ROUTES = [("leaf", "interpolated"), ("leaf", "stack"), ("interior", "interpolated")]
ROUTES += [("interior", "stack"), ("dag", "stack")]


@pytest.mark.parametrize("case, route", ROUTES)
@pytest.mark.parametrize("cpus", CPUS)
def test_threaded_sweep_equals_the_serial_loop(monkeypatch, cpus, case, route):
    system, net, omega = CASES[case]()
    if route == "stack":
        monkeypatch.setattr(cf, "_interpolated", lambda *args: None)
    want = serial(monkeypatch, system, net, omega)
    assert chunks(system, net, omega) >= 5
    monkeypatch.setattr(cf, "_cpu_count", lambda: cpus)
    started = _Started(monkeypatch)
    before = threading.active_count()
    got = cf.restricted_rho(system, net, omega)
    assert np.array_equal(got, want)
    assert started.count == cpus - 1
    assert threading.active_count() == before


def test_the_desks_take_the_interpolated_route(monkeypatch):
    """The two desks exercise the interpolated maps unless the stack route is forced."""
    calls = []
    real = cf._interpolated

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(cf, "_interpolated", spy)
    for kind in ("leaf", "interior"):
        cf.restricted_rho(*desk(kind))
    assert len(calls) == 2 and all(maps is not None for maps in calls)


@pytest.mark.parametrize("cpus", CPUS)
def test_a_single_chunk_starts_no_thread(monkeypatch, cpus):
    system, net, omega = desk("interior")
    omega = omega[:, :64]  # a probe sweep's size
    assert chunks(system, net, omega) == 1
    want = serial(monkeypatch, system, net, omega)
    monkeypatch.setattr(cf, "_cpu_count", lambda: cpus)
    started = _Started(monkeypatch)
    assert np.array_equal(cf.restricted_rho(system, net, omega), want)
    assert started.count == 0


def test_helpers_never_outnumber_the_chunks(monkeypatch):
    system, net, omega = layered_stack()
    omega = omega[:, : 2 * (cf.SWEEP_CHUNK_COLUMNS // sv._Pass(system, net).width)]
    assert chunks(system, net, omega) == 2
    monkeypatch.setattr(cf, "_cpu_count", lambda: 8)
    started = _Started(monkeypatch)
    cf.restricted_rho(system, net, omega)
    assert started.count == 1


@pytest.fixture(scope="module")
def late_overflow():
    """A 600-deep chain at d = 3 on one axis from ω = 0.05 to 8: only later chunks overflow."""
    n = 600
    net = tp.TreeNetwork.from_edges(n, 0, [(v - 1, v) for v in range(1, n)])
    system = ex.generate_system(ex.GeneratorSpec(kind="uniform", k=n, d=3, seed=0)).system
    omega = np.tile(np.linspace(0.05, 8.0, 1600), (n, 1))
    return system, net, omega


@pytest.mark.parametrize("cpus", CPUS)
def test_an_overflow_in_a_later_chunk_raises_the_serial_error(monkeypatch, late_overflow, cpus):
    system, net, omega = late_overflow
    step = cf.SWEEP_CHUNK_COLUMNS // sv._Pass(system, net).width
    assert np.isfinite(cf.restricted_rho(system, net, omega[:, :step])).all()
    with pytest.raises(NumericalFailureError) as want:
        serial(monkeypatch, system, net, omega)
    monkeypatch.setattr(cf, "_cpu_count", lambda: cpus)
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError) as got:
            cf.restricted_rho(system, net, omega)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("the assembled pass map overflowed")
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [2, 3])
def test_the_first_failure_in_chunk_order_is_raised(monkeypatch, cpus):
    """Chunk 1 fails only after chunk 2 has failed on another thread; chunk 1's error wins."""
    monkeypatch.setattr(cf, "_cpu_count", lambda: cpus)
    ran, second = [], threading.Event()

    def work(i):
        ran.append(i)
        if i == 1:
            assert second.wait(timeout=30)
            raise ValueError("chunk 1")
        if i == 2:
            second.set()
            raise ValueError("chunk 2")
        return i

    before = threading.active_count()
    with pytest.raises(ValueError, match="chunk 1"):
        cf._chunks_in_order(work, 40, 1)
    assert {0, 1, 2} <= set(ran)
    assert threading.active_count() == before
    assert cf._chunks_in_order(lambda i: i * i, 7, 1) == [i * i for i in range(7)]


def test_a_failure_stops_further_claims(monkeypatch):
    """Chunk 0 fails while chunk 1 runs on the other thread; no chunk after them starts.

    Chunk 1 returns only once the failing thread has released the claim lock
    after its failure, which it first does at the end of ``stop``.
    """
    monkeypatch.setattr(cf, "_cpu_count", lambda: 2)
    ran, started, stopped, failing = [], threading.Event(), threading.Event(), []

    class Lock:
        def __init__(self):
            self._lock = threading.Lock()

        def __enter__(self):
            self._lock.acquire()

        def __exit__(self, *exc):
            self._lock.release()
            if failing and failing[0] == threading.get_ident():
                stopped.set()

    monkeypatch.setattr(cf, "threading", types.SimpleNamespace(Thread=threading.Thread, Lock=Lock))

    def work(i):
        ran.append(i)
        if i == 0:
            assert started.wait(timeout=30)
            failing.append(threading.get_ident())
            raise ValueError("chunk 0")
        if i == 1:
            started.set()
            assert stopped.wait(timeout=30)
        return i

    with pytest.raises(ValueError, match="chunk 0"):
        cf._chunks_in_order(work, 40, 1)
    assert sorted(ran) == [0, 1]


def test_every_chunk_runs_once_under_frequent_thread_switches(monkeypatch):
    """More threads than cores and a tiny switch interval: a lost claim would repeat or skip."""
    monkeypatch.setattr(cf, "_cpu_count", lambda: 8)
    runs = [0] * 3000

    def work(i):
        runs[i] += 1  # each index is claimed by one thread only
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert cf._chunks_in_order(work, len(runs), 1) == list(range(len(runs)))
    finally:
        sys.setswitchinterval(interval)
    assert runs == [5] * len(runs)


def test_the_cpu_count_reads_the_affinity_mask():
    if hasattr(cf.os, "sched_getaffinity"):
        assert cf._cpu_count() == len(cf.os.sched_getaffinity(0))
    assert cf._cpu_count() >= 1


def test_helpers_hold_at_most_the_helper_bytes(monkeypatch):
    """A chunk above ``SWEEP_HELPER_BYTES`` starts no helper; a cap of three chunks starts three."""
    monkeypatch.setattr(cf, "_cpu_count", lambda: 8)
    started = _Started(monkeypatch)
    size = cf.SWEEP_HELPER_BYTES
    assert cf._chunks_in_order(lambda i: i, 10, size + 1) == list(range(10))
    assert started.count == 0
    assert cf._chunks_in_order(lambda i: i, 10, size // 3) == list(range(10))
    assert started.count == 3


def test_the_push_state_sets_a_sweep_s_helper_bytes(monkeypatch):
    """Chunks of (V + 1) d kernel columns' entries: a budget of two chunks takes two helpers."""
    system, net, omega = layered_stack()
    kernel = sv._Pass(system, net)
    step = cf.SWEEP_CHUNK_COLUMNS // kernel.width
    chunk_bytes = (net.node_count + 1) * kernel.dim * step * kernel.width * 8
    want = serial(monkeypatch, system, net, omega)
    monkeypatch.setattr(cf, "_cpu_count", lambda: 8)
    monkeypatch.setattr(cf, "SWEEP_HELPER_BYTES", 2 * chunk_bytes + 1)
    started = _Started(monkeypatch)
    assert np.array_equal(cf.restricted_rho(system, net, omega), want)
    assert started.count == 2


def test_sweeps_running_at_once_share_the_helper_slots(monkeypatch):
    """A sweep started inside another's chunk finds every slot taken; all are free afterwards."""
    monkeypatch.setattr(cf, "_cpu_count", lambda: 3)
    started = _Started(monkeypatch)
    inner = []

    def work(i):
        if i == 0:
            inner.append(cf._chunks_in_order(lambda j: j, 5, 1))
        return i

    assert cf._chunks_in_order(work, 6, 1) == list(range(6))
    assert inner == [list(range(5))]
    assert started.count == 2
    with pytest.raises(ValueError):
        cf._chunks_in_order(lambda i: int("x") if i == 3 else i, 6, 1)
    assert cf._helpers_running == 0
    assert cf._reserve_helpers(5) == 2
    cf._release_helpers(2)

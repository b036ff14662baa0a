"""A system keeps its ω-free facts: the row-space basis and one pass kernel per network.

``LinearSystem.row_basis`` is one SVD on the first read, kept read-only;
``closedform.row_space_basis`` hands out a fresh list of its rows.
``solver._kernel`` keeps the kernel of the last network the system ran on,
matched by identity, so every analysis and solve of one system and network
builds one kernel.  Neither cache is a field: equality and repr ignore
them, and a copy or a pickle starts without them.  Results read through
warm caches equal those of a cold system bit for bit, also when threads
share one system.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import numerics as nm
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp

COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}
CACHES = {"row_basis", "_pass"}


def _tree_case():
    net = ex.random_tree(4, min_nodes=8, max_nodes=8)
    return ex.random_tree_system(4, net, dim=3, rank_deficient=True), net


def _dag_case():
    net = ex.figure_dag()
    return ex.random_dag_system(7, net, dim=4), net


def _warm(system, net):
    relax = sv.RelaxationAssignment.uniform(net.node_count, 0.9)
    sv.solve(system, net, relax)
    cf.row_space_basis(system)
    assert CACHES <= vars(system).keys()


@pytest.mark.parametrize("how", sorted(COPIERS))
def test_a_warm_system_copies_equal_and_without_its_caches(how):
    system, net = _dag_case()
    _warm(system, net)
    again = COPIERS[how](system)
    assert again == system and repr(again) == repr(system)
    assert not CACHES & vars(again).keys()
    assert np.array_equal(again.row_basis, system.row_basis)


@pytest.mark.parametrize("rank_deficient", [False, True])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_the_basis_rows_are_the_svd_rows_read_only(rank_deficient, complex_entries):
    net = ex.random_tree(2, min_nodes=6, max_nodes=6)
    kinds = {"rank_deficient": rank_deficient, "complex_entries": complex_entries}
    system = ex.random_tree_system(2, net, dim=5, **kinds)
    rows = cf.row_space_basis(system)
    want = nm.orthonormal_basis(system.rows)
    assert len(rows) == len(want) == system.row_basis.shape[0]
    for got, ref in zip(rows, want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert not got.flags.writeable
    with pytest.raises(ValueError):
        rows[0][0] = 1.0
    again = cf.row_space_basis(system)
    assert again is not rows and all(a.base is b.base for a, b in zip(again, rows))


def _count_kernels(monkeypatch):
    built = []
    init = sv._Pass.__init__

    def counting(self, *args):
        built.append(args[1])
        init(self, *args)

    monkeypatch.setattr(sv._Pass, "__init__", counting)
    return built


def test_one_kernel_serves_every_analysis_of_a_tree(monkeypatch):
    system, net = _tree_case()
    relax = sv.RelaxationAssignment.uniform(net.node_count, 0.9)
    built = _count_kernels(monkeypatch)
    sv.solve(system, net, relax)
    cf.tree_affine(system, net, relax)
    cf.restricted_rho(system, net, np.full((net.node_count, 3), 0.9))
    sv.tree_iterate(system, net, relax, np.zeros(system.ambient_dim))
    assert built == [net]
    other = copy.copy(net)  # equal, but another object
    sv.solve(system, other, relax)
    sv.solve(system, other, relax)
    assert built == [net, other]


def test_one_kernel_serves_every_analysis_of_a_dag(monkeypatch):
    system, net = _dag_case()
    relax = sv.RelaxationAssignment.uniform(net.node_count, 0.9)
    built = _count_kernels(monkeypatch)
    sv.solve(system, net, relax)
    cf.dag_block_structure(system, net, relax)
    cf.restricted_rho(system, net, np.full((net.node_count, 3), 0.9))
    sv.dag_iterate(system, net, relax, [np.zeros(system.ambient_dim)] * 2)
    assert built == [net]
    other = ex.figure_dag()
    cf.dag_block_structure(system, other, relax)
    cf.dag_block_structure(system, net, relax)  # one slot: the first network builds again
    assert built == [net, other, net]


def _results(system, net):
    """Every cached path once: a solve, the block map, a sweep and the basis."""
    v = net.node_count
    relax = sv.RelaxationAssignment(np.linspace(0.6, 1.2, v))
    omega = np.repeat(np.linspace(0.5, 1.5, v)[:, None], 7, axis=1) * np.linspace(0.8, 1.2, 7)
    return (
        sv.solve(system, net, relax),
        cf._block_map(system, net, relax).aggregate,
        cf.restricted_rho(system, net, omega).tobytes(),
        [r.tobytes() for r in cf.row_space_basis(system)],
    )


@pytest.mark.parametrize("case", [_tree_case, _dag_case])
def test_warm_and_cold_results_are_bit_identical(case):
    system, net = case()
    cold = _results(copy.copy(system), net)
    assert _results(system, net) == cold  # filling the caches
    assert _results(system, net) == cold  # reading them


@pytest.mark.parametrize("case", [_tree_case, _dag_case])
def test_threads_sharing_one_system_read_the_cold_results(case):
    """More threads than cores and a tiny switch interval, two networks taking turns in the slot."""
    system, net = case()
    nets = [net, copy.copy(net)]
    cold = _results(copy.copy(system), net)
    failures = []

    def work():
        for i in range(20):
            if _results(system, nets[i % 2]) != cold:
                failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []

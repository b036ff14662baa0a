"""Every dataclass of the package compares by value: equal arrays make equal objects.

A dataclass's generated ``__eq__`` compares tuples of fields, which raises
on arrays of more than one element; the package's dataclasses that hold
arrays compare them with ``np.array_equal`` instead, and are unhashable; a
dataclass that claims to be hashable hashes equal instances alike.
A frozen dataclass is immutable all the way down: its array fields cannot
be written and its mapping fields are read-only views.  A frozen value
class stores copies of the caller's arrays and dicts, so later writes to
them never reach it, and it keeps that freeze through ``copy.copy``,
``copy.deepcopy`` and pickle.  The walk below covers every dataclass the
package defines, so a new one must be listed here, and a new frozen value
class in ``FROM_ARRAYS`` too.
"""

import collections.abc
import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from types import MappingProxyType

import numpy as np
import pytest

import distkaczmarz
from distkaczmarz import cli
from distkaczmarz import closedform as cf
from distkaczmarz import experiments as ex
from distkaczmarz import numerics as nm
from distkaczmarz import solver as sv
from distkaczmarz import topology as tp


def system():
    rows = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0j]])
    return sv.LinearSystem(rows, np.array([1.0, 2.0, 0.5]))


def tree():
    return tp.TreeNetwork.from_edges(3, 0, [(0, 1), (0, 2)])


def dag():
    return tp.DagNetwork.from_cover_edges(4, [(0, 2), (1, 2), (2, 3)])


def relax():
    return sv.RelaxationAssignment(np.array([1.0, 0.5, 1.5]))


def dag_relax():
    return sv.RelaxationAssignment(np.array([1.0, 0.5, 1.5, 1.2]))


def dag_system():
    return sv.LinearSystem(np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.5]]), np.ones(4))


def leaves():
    return tp.SubnetworkPartition.of([{1, 2}])


def tree_map():
    return cf.tree_affine(system(), tree(), relax())


def block_structure():
    return cf.dag_block_structure(dag_system(), dag(), dag_relax())


# One maker per dataclass; each call builds a new instance from new arrays.
MAKERS = {
    cli.RunConfig: lambda: cli.RunConfig(
        system(), tree(), leaves(), relax(), sv.SolverConfig(), [(1, 2)], ".", "json", {"a": [1]}
    ),
    cf.Restriction: lambda: tree_map().restriction(cf.row_space_basis(system())),
    cf.AffineIteration: tree_map,
    cf.PathSorFactors: lambda: cf.path_sor_factors(system(), [0, 1], relax()),
    cf.GroupVerdict: lambda: cf.check_admissibility(system(), tree(), leaves(), relax()).groups[0],
    cf.AdmissibilityReport: lambda: cf.check_admissibility(system(), tree(), leaves(), relax()),
    cf.DichotomyReport: lambda: cf.eigen_dichotomy_check(tree_map(), system()),
    cf.BlockStructure: block_structure,
    ex.GeneratorSpec: lambda: ex.GeneratorSpec("uniform", 3, 2, 0),
    ex.SweepResult: lambda: ex.omega_sweep(system(), tree(), [(0.5,), (1.0,)], [(1, 2)]),
    ex.LimitRow: lambda: ex.LimitRow(0.5, 1e-3, 10, True),
    nm.Spectrum: lambda: nm.eigenvalues(np.array([[2.0, 1.0], [0.0, 1.0]])),
    sv.LinearSystem: system,
    sv.RelaxationAssignment: relax,
    sv.SolverConfig: lambda: sv.SolverConfig(5, initial_estimate=np.array([1.0, 2.0])),
    sv.SolveReport: lambda: sv.solve(dag_system(), dag(), dag_relax(), sv.SolverConfig(4)),
    tp.Violation: lambda: tp.Violation("cycle", "a cycle", (1, 2)),
    tp.Level: lambda: tree().schedule.levels[1],
    tp.Schedule: lambda: dag().schedule,
    tp.TreeNetwork: tree,
    tp.SubnetworkPartition: leaves,
    tp.ResolvedGroup: lambda: tp.resolve_groups(tree(), leaves())[0],
    tp.DagNetwork: dag,
    tp.UpDownPath: lambda: tp.enumerate_updown_paths(dag(), 0, 1)[0],
    tp.DispersionPath: lambda: tp.enumerate_dispersion_paths(dag())[0][0],
}


def _package_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(distkaczmarz.__path__):
        module = importlib.import_module(f"distkaczmarz.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found.add(obj)
    return found


def test_every_dataclass_of_the_package_is_walked():
    assert {c.__qualname__ for c in _package_dataclasses()} == {c.__qualname__ for c in MAKERS}


@pytest.mark.parametrize("cls", MAKERS, ids=lambda c: c.__qualname__)
def test_distinct_equal_instances_compare_equal(cls):
    a, b = MAKERS[cls](), MAKERS[cls]()
    assert type(a) is type(b) is cls and a is not b
    assert a == b and not a != b
    assert a != object() and not a == object()
    if cls.__eq__.__qualname__.startswith(nm.value_dataclass.__name__):
        assert not isinstance(a, collections.abc.Hashable)
    if isinstance(a, collections.abc.Hashable):  # a class that claims to hash must hash
        assert hash(a) == hash(b)
    if cls.__dataclass_params__.frozen:
        for f in dataclasses.fields(a):
            value = getattr(a, f.name)
            assert not (isinstance(value, np.ndarray) and value.flags.writeable), f.name
            assert not isinstance(value, collections.abc.MutableMapping), f.name


# One instance per class that holds arrays or mappings, and one that differs from it in one.
DIFFERENT = {
    "AffineIteration": (tree_map(), cf.AffineIteration(tree_map().B, tree_map().c + 1.0)),
    "AffineIteration, other size": (tree_map(), cf.AffineIteration(np.eye(3), np.zeros(3))),
    "LinearSystem": (system(), sv.LinearSystem(system().rows, np.zeros(3))),
    "RelaxationAssignment": (relax(), sv.RelaxationAssignment(np.ones(3))),
    "SolverConfig": (
        sv.SolverConfig(initial_estimate=np.array([1.0, 2.0])),
        sv.SolverConfig(initial_estimate=np.array([1.0, 3.0])),
    ),
    "SolverConfig, no start": (sv.SolverConfig(initial_estimate=np.zeros(2)), sv.SolverConfig()),
    "SolveReport": (
        sv.solve(dag_system(), dag(), dag_relax(), sv.SolverConfig(max_iterations=3)),
        sv.solve(dag_system(), dag(), dag_relax(), sv.SolverConfig(max_iterations=4)),
    ),
    "Spectrum": (nm.eigenvalues(np.eye(2)), nm.eigenvalues(2.0 * np.eye(2))),
    "Level": (tree().schedule.levels[1], dag().schedule.levels[1]),
    "Schedule": (tree().schedule, dag().schedule),
    "Restriction": (MAKERS[cf.Restriction](), tree_map().restriction([np.array([1.0, 0.0])])),
    "TreeNetwork, a mapping": (tree(), tp.TreeNetwork.from_edges(3, 0, [(0, 1, 0.3), (0, 2, 0.7)])),
    "DagNetwork, a mapping": (
        dag(),
        tp.DagNetwork.from_cover_edges(4, [(0, 2, 0.4, 1.0), (1, 2, 0.6, 1.0), (2, 3, 1.0, 1.0)]),
    ),
    "GroupVerdict, a mapping": (
        cf.GroupVerdict((1, 2), 0.5, True, {1: 2.0, 2: 2.0}),
        cf.GroupVerdict((1, 2), 0.5, True, {1: 2.0, 2: 3.0}),
    ),
}


@pytest.mark.parametrize("pair", DIFFERENT.values(), ids=list(DIFFERENT))
def test_instances_that_differ_in_an_array_compare_unequal(pair):
    a, b = pair
    assert a != b and not a == b


# One builder per frozen value class, and a maker of the caller's arrays and dicts it is
# built from: one for each array or mapping the instance holds, in its own fields or in
# the fields of the value objects it holds.
FROM_ARRAYS = {
    nm.Spectrum: (lambda e: nm.Spectrum(e, 2.0), lambda: [np.array([2.0 + 0j, 1.0])]),
    cf.Restriction: (
        lambda q, big_q, r: cf.Restriction(q, big_q, r, 0.5),
        lambda: [np.eye(2)[:, :1], np.eye(2)[:, :1], np.array([[0.5]])],
    ),
    cf.AffineIteration: (cf.AffineIteration, lambda: [0.5 * np.eye(2), np.ones(2)]),
    cf.PathSorFactors: (
        lambda *arrays: cf.PathSorFactors((0, 1), *arrays),
        lambda: [np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2), np.ones(2)],
    ),
    cf.DichotomyReport: (
        lambda e: cf.DichotomyReport(1, 1, True, 0.5, 0.5, 0.5, True, e),
        lambda: [np.array([1.0 + 0j, 0.5])],
    ),
    sv.LinearSystem: (sv.LinearSystem, lambda: [np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2)]),
    sv.RelaxationAssignment: (sv.RelaxationAssignment, lambda: [np.array([1.0, 0.5])]),
    sv.SolverConfig: (lambda x: sv.SolverConfig(5, initial_estimate=x), lambda: [np.ones(2)]),
    tp.Level: (
        lambda pred, w_d, copy: tp.Level(1, 3, pred, w_d, copy),
        lambda: [np.zeros((2, 1), np.intp), np.ones((2, 1)), np.zeros(2, np.intp)],
    ),
    tp.Schedule: (
        lambda order, maximal, pool, parent: tp.Schedule(order, (0,), (), maximal, pool, 5, parent),
        lambda: [np.arange(3), np.array([1, 2]), np.ones((1, 2)), np.array([3, 0, 0, 3])],
    ),
    tp.TreeNetwork: (
        lambda parent, weights: tp.TreeNetwork(3, 0, parent, weights),
        lambda: [{1: 0, 2: 0}, {(0, 1): 0.5, (0, 2): 0.5}],
    ),
    tp.DagNetwork: (
        lambda w_d, w_p: tp.DagNetwork(4, [[0, 2], [1, 2], [2, 3]], w_d, w_p),
        lambda: [{(0, 2): 0.5, (1, 2): 0.5, (2, 3): 1.0}, {(0, 2): 1.0, (1, 2): 1.0, (2, 3): 1.0}],
    ),
    cf.GroupVerdict: (
        lambda bounds: cf.GroupVerdict((1, 2), 0.5, True, bounds),
        lambda: [{1: 2.0, 2: 2.0}],
    ),
    cf.AdmissibilityReport: (
        lambda verdicts, bounds: cf.AdmissibilityReport(
            verdicts, (cf.GroupVerdict((1, 2), 0.5, True, bounds),), True
        ),
        lambda: [{0: (1.0, True)}, {1: 2.0, 2: 2.0}],
    ),
    cf.BlockStructure: (  # the network's two weight tables are held too
        lambda b, c, rows, rhs, w_d, w_p: cf.BlockStructure(
            cf.AffineIteration(b, c), (0, 1), 2, sv.LinearSystem(rows, rhs),
            tp.DagNetwork(4, [[0, 2], [1, 2], [2, 3]], w_d, w_p),
        ),
        lambda: [
            np.eye(4), np.ones(4), dag_system().rows.copy(), np.ones(4),
            {(0, 2): 0.5, (1, 2): 0.5, (2, 3): 1.0}, {(0, 2): 1.0, (1, 2): 1.0, (2, 3): 1.0},
        ],
    ),
}


def _held(value, at=""):
    """``(path, x)`` for every array and mapping that ``value`` holds.

    The walk reads the fields of ``value`` and of the frozen value objects it
    holds, directly or in a tuple; ``at`` prefixes the paths.
    """
    out = []
    for f in dataclasses.fields(value):
        items = getattr(value, f.name)
        for i, x in enumerate(items if isinstance(items, tuple) else (items,)):
            path = f"{at}{f.name}[{i}]"
            if isinstance(x, (np.ndarray, collections.abc.Mapping)):
                out.append((path, x))
            elif dataclasses.is_dataclass(x) and type(x).__dataclass_params__.frozen:
                out += _held(x, f"{path}.")
    return out


def _assert_frozen(value):
    """Every array ``value`` holds is read-only, and every mapping a read-only view."""
    for path, x in _held(value):
        if isinstance(x, np.ndarray):
            assert not x.flags.writeable, path
        else:
            assert type(x) is MappingProxyType, path


def test_every_frozen_value_class_is_built_from_arrays():
    frozen = {
        c for c in _package_dataclasses()
        if c.__dataclass_params__.frozen and c.__eq__.__qualname__.startswith("value_dataclass")
    }
    assert {c.__qualname__ for c in frozen} == {c.__qualname__ for c in FROM_ARRAYS}
    for c in frozen:  # the freezing __init__ keeps the generated signature
        assert list(inspect.signature(c).parameters) == [f.name for f in dataclasses.fields(c)]


@pytest.mark.parametrize("cls", FROM_ARRAYS, ids=lambda c: c.__qualname__)
def test_a_value_object_stores_read_only_copies_of_the_callers_arrays(cls):
    """Building one leaves the caller's arrays and dicts writeable, and later writes never reach it.

    Its arrays are read-only and its mappings read-only views.
    """
    build, arrays = FROM_ARRAYS[cls]
    given = arrays()
    value, snapshot = build(*given), build(*arrays())
    held = _held(value)
    assert len(held) == len(given)
    assert all(a.flags.writeable for a in given if isinstance(a, np.ndarray))
    _assert_frozen(value)
    for path, x in held:
        if isinstance(x, collections.abc.Mapping):
            with pytest.raises(TypeError):
                x[next(iter(x))] = 7
    for a in given:
        if isinstance(a, np.ndarray):
            a[...] = 7
        else:
            a.clear()
    assert value == snapshot
    for (path, x), (_, y) in zip(held, _held(snapshot), strict=True):  # compare=False fields too
        assert np.array_equal(x, y), path


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def _round_trips():
    return [
        pytest.param(c, how, id=f"{c.__qualname__}-{name}")
        for c in FROM_ARRAYS
        for name, how in COPIERS.items()
    ]


@pytest.mark.parametrize("cls, how", _round_trips())
def test_copies_and_pickles_keep_the_value_and_the_freeze(cls, how):
    value = MAKERS[cls]()
    again = how(value)
    assert type(again) is cls and again is not value
    assert again == value
    _assert_frozen(again)
    for (path, x), (_, y) in zip(_held(value), _held(again), strict=True):
        assert np.array_equal(x, y), path


@pytest.mark.parametrize("how", COPIERS.values(), ids=list(COPIERS))
def test_a_copy_starts_without_the_caches_of_the_original(how):
    it, basis = tree_map(), cf.row_space_basis(system())
    kept = it.restriction(basis)
    net = dag()
    assert net.violations == () and net.schedule is not None
    it_again, net_again = how(it), how(net)
    assert it_again._restricted is None and it_again.restriction(basis) == kept
    assert not {"levels", "order", "violations", "schedule"} & set(vars(net_again))
    assert net_again.schedule == net.schedule and net_again.violations == ()

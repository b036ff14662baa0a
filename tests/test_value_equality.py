"""Every dataclass of the package compares by value: equal arrays make equal objects.

A dataclass's generated ``__eq__`` compares tuples of fields, which raises
on arrays of more than one element; the package's dataclasses that hold
arrays compare them with ``np.array_equal`` instead, and are unhashable; a
dataclass that claims to be hashable hashes equal instances alike.
A frozen dataclass is immutable all the way down: its array fields cannot
be written and its mapping fields are read-only views.  A frozen value
class stores copies of the caller's arrays, so later writes to them never
reach it.  The walk below covers every dataclass the package defines, so a
new one must be listed here, and a new frozen value class in
``FROM_ARRAYS`` too.
"""

import collections.abc
import dataclasses
import importlib
import inspect
import pkgutil

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


BLOCKS = cf.dag_block_structure(dag_system(), dag(), dag_relax())


def block_structure():
    """A fresh map and system around one kernel, which block structures compare by identity."""
    fresh = cf.AffineIteration(BLOCKS.aggregate.B, BLOCKS.aggregate.c)
    return dataclasses.replace(BLOCKS, aggregate=fresh, system=dag_system())


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


# One instance per class that holds arrays, and one that differs from it in an array.
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
}


@pytest.mark.parametrize("pair", DIFFERENT.values(), ids=list(DIFFERENT))
def test_instances_that_differ_in_an_array_compare_unequal(pair):
    a, b = pair
    assert a != b and not a == b


# One builder per frozen value class, and a maker of the caller's arrays it is built from.
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
}


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
    """Building one leaves the caller's arrays writeable, and later writes to them never reach it."""
    build, arrays = FROM_ARRAYS[cls]
    given = arrays()
    value, snapshot = build(*given), build(*arrays())
    names = [f.name for f in dataclasses.fields(cls) if isinstance(getattr(value, f.name), np.ndarray)]
    assert len(names) == len(given)
    assert all(a.flags.writeable for a in given)
    assert not any(getattr(value, n).flags.writeable for n in names)
    for a in given:
        a[...] = 7
    assert value == snapshot
    for n in names:  # compare=False fields too
        assert np.array_equal(getattr(value, n), getattr(snapshot, n)), n
